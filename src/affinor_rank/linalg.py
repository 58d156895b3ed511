"""Exact matrix kernels over the rationals.

Every matrix holds ``fractions.Fraction`` entries; floats are rejected on
construction, because a rounded entry would poison any certificate computed
downstream.  Float numerics (curve planarity) run on numpy arrays obtained
through ``Matrix.to_ndarray`` and never flow back.

Rank and determinant share one fraction-free (Bareiss) elimination run
after clearing denominators row by row, so intermediate values stay
integers of bounded size and the reported pivots select a minor whose
determinant is provably nonzero.  Inverse and span membership share one
Gauss-Jordan reduction over Fractions that records its row transform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotInvertible, NotSquare, ShapeMismatch

ExactVector = tuple[Fraction, ...]

#: Scalar tag written into matrix JSON; the only one a reader accepts.
EXACT = "exact"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats are rejected: an exact value must never be fabricated from a
    rounded one.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


def exact_vector(values: Iterable) -> ExactVector:
    return tuple(as_fraction(v) for v in values)


def scalar_to_json(value: Fraction):
    """JSON form of an exact scalar: an int, or a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ShapeMismatch("entry rows do not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        return Matrix(len(data), len(data[0]) if data else 0, data)

    @staticmethod
    def identity(m: int) -> "Matrix":
        return Matrix(
            m, m, tuple(tuple(_ONE if i == j else _ZERO for j in range(m)) for i in range(m))
        )

    # -- basic structure ----------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> ExactVector:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def vectorize(self) -> ExactVector:
        """Row-major flattening, used to treat matrices as span vectors."""
        return tuple(v for row in self.entries for v in row)

    def to_ndarray(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "mode": EXACT,
            "entries": [[scalar_to_json(v) for v in row] for row in self.entries],
        }

    # -- arithmetic ----------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"shape ({self.rows}x{self.cols}) vs ({other.rows}x{other.cols})"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows, self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows, self.cols,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix(
            self.rows, self.cols, tuple(tuple(c * v for v in row) for row in self.entries)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"inner dimensions {self.cols} and {other.rows} differ"
            )
        cols = other.transpose().entries
        return Matrix(
            self.rows, other.cols,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            ),
        )

    def apply(self, vec: Sequence[Fraction]) -> ExactVector:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def frobenius_norm_sq(self) -> Fraction:
        return sum(v * v for row in self.entries for v in row)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


# ---------------------------------------------------------------------------
# Fraction-free elimination: rank and determinant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankResult:
    """Rank together with a re-checkable pivot selection.

    The minor picked out by ``pivot_rows`` x ``pivot_cols`` has nonzero
    determinant; anyone can recompute it to audit the claim.
    """

    rank: int
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "pivot_rows": list(self.pivot_rows),
            "pivot_cols": list(self.pivot_cols),
        }


def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators.

    Row scaling by a nonzero rational preserves rank and every minor's
    vanishing pattern, so pivots found on the scaled matrix certify the
    original one.  Also returns the product of the row scales, by which a
    determinant of the scaled matrix exceeds the original's.
    """
    out = []
    scale = 1
    for row in m.entries:
        denom = math.lcm(*(v.denominator for v in row)) if row else 1
        scale *= denom
        out.append([int(v * denom) for v in row])
    return out, scale


def _bareiss_rank(a: list[list[int]]) -> tuple[int, list[int], list[int], int, int]:
    """Bareiss elimination of an integer matrix, in place.

    Returns (rank, sorted pivot rows, pivot columns, row-swap sign, last
    pivot).  For a square matrix of full rank, sign * last pivot is its
    determinant (Sylvester's identity).
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    row_of = list(range(nrows))  # original index of the row now in each slot
    sign = 1
    prev = 1
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            row_of[r], row_of[p] = row_of[p], row_of[r]
            sign = -sign
        pivot = a[r][c]
        pivot_rows.append(row_of[r])
        pivot_cols.append(c)
        for i in range(r + 1, nrows):
            ai = a[i]
            ar = a[r]
            f = ai[c]
            if f == 0:
                # Sylvester identity still demands the pivot scaling here.
                for j in range(c + 1, ncols):
                    ai[j] = ai[j] * pivot // prev
            else:
                for j in range(c + 1, ncols):
                    ai[j] = (ai[j] * pivot - f * ar[j]) // prev
                ai[c] = 0
        prev = pivot
        r += 1
    return r, sorted(pivot_rows), pivot_cols, sign, prev


def rank(m: Matrix) -> RankResult:
    """Certified rank of a matrix, with the pivots of a nonzero maximal minor."""
    rk, prows, pcols, _, _ = _bareiss_rank(_integer_rows(m)[0])
    return RankResult(rk, tuple(prows), tuple(pcols))


def det(m: Matrix) -> Fraction:
    """Exact determinant."""
    if not m.is_square:
        raise NotSquare("determinant of a non-square matrix")
    rows, scale = _integer_rows(m)
    rk, _, _, sign, last_pivot = _bareiss_rank(rows)
    if rk < m.rows:
        return _ZERO
    return Fraction(sign * last_pivot, scale)


def invertible(m: Matrix) -> bool:
    """Whether a square matrix is invertible, decided by its determinant."""
    if not m.is_square:
        raise NotSquare("invertibility of a non-square matrix")
    return det(m) != 0


# ---------------------------------------------------------------------------
# Gauss-Jordan reduction with transform: inverse and span solving
# ---------------------------------------------------------------------------


def _rref_with_transform(rows: list[list[Fraction]]):
    """Reduced row echelon form of ``rows`` (reduced in place).

    Returns (nonzero echelon rows, transform rows, pivot columns), where
    transform row i combines the input rows into echelon row i.  Pivots
    are the first nonzero entry at or below the current row.
    """
    n = len(rows)
    width = len(rows[0]) if n else 0
    transform = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        transform[r], transform[p] = transform[p], transform[r]
        inv = _ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        transform[r] = [v * inv for v in transform[r]]
        for i in range(n):
            if i == r or rows[i][c] == 0:
                continue
            f = rows[i][c]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[r])]
            transform[i] = [u - f * v for u, v in zip(transform[i], transform[r])]
        pivots.append(c)
        r += 1
    return rows[:r], transform[:r], pivots


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
    if not m.is_square:
        raise NotSquare("inverse of a non-square matrix")
    _, transform, pivots = _rref_with_transform([list(row) for row in m.entries])
    if len(pivots) < m.rows:
        raise NotInvertible("matrix is singular")
    return Matrix.exact(transform)


class SpanSolver:
    """Repeated exact membership tests against the span of fixed matrices.

    The vectorized span generators are reduced once to a normalized row
    echelon form together with the transform that produced it; each
    membership query is then a single read-off plus an equality check.
    """

    def __init__(self, mats: Sequence[Matrix]):
        if not mats:
            raise ShapeMismatch("empty span basis")
        shape = (mats[0].rows, mats[0].cols)
        for m in mats:
            if (m.rows, m.cols) != shape:
                raise ShapeMismatch("span basis matrices differ in shape")
        self.n = len(mats)
        self.width = shape[0] * shape[1]
        self._rows, self._transform, self._pivots = _rref_with_transform(
            [list(m.vectorize()) for m in mats]
        )

    @property
    def span_dim(self) -> int:
        return len(self._pivots)

    def _candidate(self, target: Sequence[Fraction]):
        gammas = [target[c] for c in self._pivots]
        combo = [_ZERO] * self.width
        for g, row in zip(gammas, self._rows):
            if g == 0:
                continue
            for j in range(self.width):
                if row[j] != 0:
                    combo[j] += g * row[j]
        return gammas, combo

    def coefficients(self, target: Sequence[Fraction]) -> Optional[ExactVector]:
        """Coefficients expressing ``target`` over the span basis, or None."""
        if len(target) != self.width:
            raise ShapeMismatch("target length does not match span width")
        gammas, combo = self._candidate(target)
        if any(u != v for u, v in zip(combo, target)):
            return None
        coeffs = [_ZERO] * self.n
        for g, trow in zip(gammas, self._transform):
            if g == 0:
                continue
            for j in range(self.n):
                coeffs[j] += g * trow[j]
        return tuple(coeffs)

    def residual_sq(self, target: Sequence[Fraction]) -> Fraction:
        """Squared distance between ``target`` and its echelon candidate."""
        _, combo = self._candidate(target)
        return sum((u - v) ** 2 for u, v in zip(combo, target))


def solve_in_span(basis_mats: Sequence[Matrix], target: Matrix) -> Optional[ExactVector]:
    """Express ``target`` as a linear combination of ``basis_mats``.

    Returns the coefficient vector, or None when the target lies outside
    the span.
    """
    if not basis_mats:
        raise ShapeMismatch("empty span basis")
    if (target.rows, target.cols) != (basis_mats[0].rows, basis_mats[0].cols):
        raise ShapeMismatch("target shape does not match basis shape")
    return SpanSolver(basis_mats).coefficients(target.vectorize())


# ---------------------------------------------------------------------------
# Fast full-row-rank test (validation only)
# ---------------------------------------------------------------------------

_PRIMES = (2147483629, 2147483587, 2147483563)


def _full_row_rank_modp(rows: list[list[Fraction]], p: int) -> Optional[bool]:
    """One-sided full-row-rank test over GF(p).

    Full rank mod p implies full rank over the rationals.  Returns True on
    that certificate, False when rank dropped mod p (inconclusive for the
    rationals), or None when a denominator vanishes mod p.
    """
    n = len(rows)
    if n == 0:
        return True
    width = len(rows[0])
    if n > width:
        return False
    a = np.zeros((n, width), dtype=np.int64)
    inv_cache: dict[int, int] = {1: 1}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            den = v.denominator % p
            if den == 0:
                return None
            inv = inv_cache.get(den)
            if inv is None:
                inv = pow(den, p - 2, p)
                inv_cache[den] = inv
            a[i, j] = (v.numerator % p) * inv % p
    r = 0
    for c in range(width):
        if r >= n:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1:, c].copy()
        if below.any():
            a[r + 1:] = (a[r + 1:] - np.outer(below, a[r])) % p
        r += 1
    return r == n


def has_full_row_rank(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Exact full-row-rank decision with a modular fast path.

    A full-rank result modulo a large prime certifies full rank over the
    rationals; a rank drop modulo one prime falls back to exact
    fraction-free elimination at once, and a vanishing denominator moves on
    to the next prime.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return True
    for p in _PRIMES:
        res = _full_row_rank_modp(rows, p)
        if res:
            return True
        if res is None:
            continue
        break
    rk, _, _, _, _ = _bareiss_rank(_integer_rows(Matrix.exact(rows))[0])
    return rk == len(rows)


# ---------------------------------------------------------------------------
# Misc helpers
# ---------------------------------------------------------------------------


def scalar_multiple_of_identity(m: Matrix) -> Optional[Fraction]:
    """The q with m == q*identity, or None."""
    if not m.is_square:
        return None
    q = m.entries[0][0]
    for i in range(m.rows):
        for j in range(m.cols):
            v = m.entries[i][j]
            if i == j:
                if v != q:
                    return None
            elif v != 0:
                return None
    return q


def random_int_vector(rng: random.Random, length: int, bound: int) -> ExactVector:
    """Seeded random integer vector with entries in [-bound, bound], not all zero."""
    while True:
        vec = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(length))
        if any(v != 0 for v in vec):
            return vec
