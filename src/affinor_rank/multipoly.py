"""Sparse multivariate polynomials over the rationals.

Just enough polynomial arithmetic to expand small symbolic determinants
and decide whether they vanish identically.  A polynomial with rational
coefficients that is identically zero as a formal expression vanishes on
all of R^n, which is what turns "no witness found" into a proof.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Monomial = tuple[int, ...]

_ZERO = Fraction(0)


class Poly:
    """Immutable sparse polynomial: monomial exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict[Monomial, Fraction]] = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        value = Fraction(value)
        if value == 0:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: value})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                out[m] = out.get(m, _ZERO) + ca * cb
        return Poly(self.nvars, out)

    def substitute(self, index: int, value) -> "Poly":
        """Fix one variable to an exact value (exponent slot collapses to 0)."""
        value = Fraction(value)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            c = coeff * value ** e if e else coeff
            m = mono[:index] + (0,) + mono[index + 1:]
            out[m] = out.get(m, _ZERO) + c
        return Poly(self.nvars, out)

    def max_degree_in(self, index: int) -> int:
        if not self.terms:
            return 0
        return max(m[index] for m in self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {len(self.terms)} terms)"


def determinant(entries: list[list[Poly]]) -> Poly:
    """Determinant of a small square polynomial matrix by minor expansion.

    Memoizes on column subsets, so cost is O(n * 2^n) polynomial products;
    intended for n <= 8.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = entries[0][0].nvars
    cache: dict[tuple[int, int], Poly] = {}

    def minor(row: int, colmask: int) -> Poly:
        if row == n:
            return Poly.constant(nvars, 1)
        key = (row, colmask)
        got = cache.get(key)
        if got is not None:
            return got
        total = Poly(nvars)
        sign = 1
        for j in range(n):
            bit = 1 << j
            if colmask & bit:
                continue
            e = entries[row][j]
            if not e.is_zero:
                sub = minor(row + 1, colmask | bit)
                if not sub.is_zero:
                    term = e * sub
                    total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = total
        return total

    return minor(0, 0)


def find_nonzero_point(poly: Poly) -> Optional[tuple[Fraction, ...]]:
    """An exact integer point where a nonzero polynomial does not vanish.

    Fixes variables one at a time; a univariate slice of degree d cannot
    vanish at more than d points, so scanning d+1 integers per variable
    always succeeds.  Returns None only for the zero polynomial.
    """
    if poly.is_zero:
        return None
    point: list[Fraction] = []
    current = poly
    for idx in range(poly.nvars):
        d = current.max_degree_in(idx)
        if d == 0:
            point.append(_ZERO)
            current = current.substitute(idx, 0)
            continue
        for k in range(d + 1):
            candidate = Fraction(-(k // 2 + 1)) if k % 2 else Fraction(k // 2 + 1)
            nxt = current.substitute(idx, candidate)
            if not nxt.is_zero:
                point.append(candidate)
                current = nxt
                break
        else:  # pragma: no cover - impossible for a nonzero polynomial
            return None
    return tuple(point)
