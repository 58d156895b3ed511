"""Exact matrix kernels over the rationals.

Every matrix holds ``fractions.Fraction`` entries; floats are rejected on
construction, because a rounded entry would poison any certificate computed
downstream.  Float numerics (curve planarity) run on numpy arrays obtained
through ``Matrix.to_ndarray`` and never flow back.

Each matrix lazily builds one scaled-integer view of itself: its entries
as integer numerators over their least common denominator d, held in a
numpy array.  Products and matrix-vector products multiply the numerator
arrays and divide by the product of the denominators.  They use int64
when an a-priori bound proves that no partial sum overflows
(max|A| * max|B| * inner dimension < 2**63) and object arrays of Python
ints otherwise, so the result is exact either way; it is rebuilt as
Fractions, and a product keeps its own view for the next product.

Rank and determinant share one fraction-free (Bareiss) elimination run on
the view's numerators, so intermediate values stay integers of bounded
size and the reported pivots select a minor whose determinant is provably
nonzero.  The modular linear-independence test stacks the numerators of
several matrices' views, one matrix per row, and reduces them mod p.
Inverse and span membership share one Gauss-Jordan reduction over
Fractions that records its row transform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

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

    @cached_property
    def _scaled(self) -> "_Scaled":
        """Integer numerators over the lcm of the entry denominators."""
        return _scale([v for row in self.entries for v in row], (self.rows, self.cols))

    # -- basic structure ----------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

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
        view = self._scaled
        if view.den == 1:
            entries = view.nums.tolist()
        else:
            entries = [[scalar_to_json(v) for v in row] for row in self.entries]
        return {"rows": self.rows, "cols": self.cols, "mode": EXACT, "entries": entries}

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
        a, b = self._scaled, other._scaled
        view = _lowest_terms(
            _int_product(a, b, self.cols).ravel().tolist(), a.den * b.den,
            (self.rows, other.cols),
        )
        out = Matrix(self.rows, other.cols, tuple(
            tuple(_fractions(row, view.den)) for row in view.nums.tolist()
        ))
        out.__dict__["_scaled"] = view  # the slot cached_property fills
        return out

    def apply(self, vec: Sequence[Fraction]) -> ExactVector:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        a, x = self._scaled, _scale(vec, (self.cols,))
        return tuple(_fractions(_int_product(a, x, self.cols).tolist(), a.den * x.den))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


# ---------------------------------------------------------------------------
# Scaled-integer view: numerators over one common denominator
# ---------------------------------------------------------------------------

# int64 arithmetic is exact while every partial sum stays below this.
_INT64_LIMIT = 1 << 63


class _Scaled(NamedTuple):
    """Exact values ``nums / den`` with ``den`` the lcm of their denominators.

    ``nums`` is an int64 array when every numerator fits, and an object
    array of Python ints otherwise; ``bound`` is the largest absolute
    numerator, from which products decide whether int64 is safe.
    """

    nums: np.ndarray
    den: int
    bound: int


def _lowest_terms(nums: list[int], den: int, shape: tuple[int, ...]) -> _Scaled:
    """Scaled view of ``nums / den``, reduced so ``den`` is the least common denominator."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    bound = max(map(abs, nums), default=0)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    return _Scaled(np.array(nums, dtype=dtype).reshape(shape), den, bound)


def _scale(values: Sequence[Fraction], shape: tuple[int, ...]) -> _Scaled:
    """Scaled view of exact values laid out in ``shape`` (row-major)."""
    den = math.lcm(*{v.denominator for v in values})
    if den == 1:
        nums = [v.numerator for v in values]
    else:
        nums = [v.numerator * (den // v.denominator) for v in values]
    return _lowest_terms(nums, den, shape)


def _int_product(a: _Scaled, b: _Scaled, inner: int) -> np.ndarray:
    """Exact product of the numerator arrays.

    int64 when both arrays are int64 and max|a| * max|b| * inner < 2**63
    bounds every partial sum, Python ints in an object array otherwise.
    """
    if a.nums.dtype == b.nums.dtype == np.int64 and a.bound * b.bound * inner < _INT64_LIMIT:
        return a.nums @ b.nums
    return a.nums.astype(object) @ b.nums.astype(object)


def _fractions(nums: list[int], den: int) -> list[Fraction]:
    """The Fractions ``v / den`` for ``v`` in ``nums``, each in lowest terms."""
    if den == 1:
        return [Fraction(v) for v in nums]
    return [Fraction(v, den) for v in nums]


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
    """The matrix's scaled-integer numerators as Python int rows.

    Scaling by the common denominator d preserves rank and every minor's
    vanishing pattern, so pivots found on the scaled matrix certify the
    original one.  Also returns d**rows, by which a determinant of the
    scaled matrix exceeds the original's.
    """
    view = m._scaled
    return view.nums.tolist(), view.den ** m.rows


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
# Fast linear-independence test (validation only)
# ---------------------------------------------------------------------------

_PRIMES = (2147483629,)


def _full_row_rank_modp(rows: np.ndarray, p: int) -> bool:
    """One-sided full-row-rank test of an integer array over GF(p).

    Full rank mod p implies full rank over the rationals; False means the
    rank dropped mod p, which is inconclusive for the rationals.
    """
    n, width = rows.shape
    if n > width:
        return False
    a = (rows % p).astype(np.int64, copy=False)
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


def has_full_row_rank(mats: Sequence[Matrix]) -> bool:
    """Whether equally shaped matrices are linearly independent.

    Row i of the test is matrix i's scaled-integer numerators, flattened:
    its entries times its own nonzero denominator, which leaves the rank
    unchanged.  Full rank modulo a large prime certifies independence; a
    rank drop falls back to exact fraction-free elimination.
    """
    if not mats:
        return True
    rows = np.stack([m._scaled.nums.reshape(-1) for m in mats])
    if _full_row_rank_modp(rows, _PRIMES[0]):
        return True
    return _bareiss_rank(rows.tolist())[0] == len(mats)


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
