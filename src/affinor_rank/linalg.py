"""Exact matrix kernels over the rationals.

A matrix is exact, and it is its scaled-integer view: integer numerators
over the least common denominator d of its entries, in a numpy array, in
lowest terms.  Producers that already hold integers (products, inverses
and ``unstack``) make a matrix straight from that view with
``Matrix.from_view``; the constructor scales int or
``fractions.Fraction`` entries into it at once.  A matrix keeps no
Fraction entries: Fractions appear only in the scalars and vectors the
kernels return (``det``, ``apply``, span coefficients and residuals).
Floats are rejected on construction, because a rounded entry would poison
any certificate computed downstream.
Float numerics (curve planarity) run on numpy arrays obtained through
``Matrix.to_ndarray`` and never flow back.

Products and matrix-vector products multiply the numerator arrays and
divide by the product of the denominators.  An a-priori bound on every
partial sum, max|A| * max|B| * inner dimension, picks exact arithmetic:
float64 BLAS below 2**53 (matrix x matrix, from 2**11 multiplications),
int64 below 2**63, and object arrays of Python ints otherwise.  A product
is reduced to lowest terms on its array, which makes its view canonical,
and is kept as a view for the next product.

Equally shaped matrices stack into one view, one flattened matrix per
row, and a family the package builds (a basis, the operators of an
algebra, the projectors of a splitting) is stored as that stack alone;
``unstack`` gives its matrices on demand, each in lowest terms and over
den 1 a view of its row.  Every exact product identity in the package
reads such stacks: all pairwise products of a stack are one integer
product, a row of linear combinations of a stack is another, and two
views are compared row by row by cross-multiplying their denominators.
There is no entrywise Fraction arithmetic on matrices.

Rank and determinant share one fraction-free (Bareiss) elimination run on
the view's numerators, so intermediate values stay integers of bounded
size and the reported pivots select a minor whose determinant is provably
nonzero.  A row with a zero in the pivot column is only rescaled by
pivot / prev, which is skipped when pivot == prev and is a negation when
pivot == -prev: on signed permutations and other sparse {-1, 0, 1} data
most rows are left as they are.  The linear-independence test reads the
numerators of a stack: rows with disjoint supports pass at sight, and
other stacks are reduced mod p, and if need be exactly, on the columns
that are nonzero somewhere in the stack, where ``SpanSolver`` finds its
pivots too.  The same elimination, then fraction-free back substitution
over whole rows that skips zero coefficients, gives the inverse.
``SpanSolver`` solves on the stack of its generators; span coordinates of
a whole batch of targets follow from the inverse pivot block, proved by
an integer product, and come out as one integer view over a common
denominator, that is a matrix as it stands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import InvalidBasis, NotInvertible, NotSquare, ShapeMismatch

ExactVector = tuple[Fraction, ...]

_ZERO = Fraction(0)


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


class Matrix:
    """Immutable row-major matrix of exact rationals.

    A matrix holds one thing, its scaled-integer view in lowest terms; its
    shape is the view's.
    """

    __slots__ = ("_scaled",)

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Union[int, Fraction]]]):
        if len(entries) != rows:
            raise ShapeMismatch("entry rows do not match declared row count")
        for row in entries:
            if len(row) != cols:
                raise ShapeMismatch("ragged matrix rows")
        values = [v for row in entries for v in row]
        wrong = set(map(type, values)) - {int, Fraction}  # bools and floats too
        if wrong:
            names = ", ".join(sorted(t.__name__ for t in wrong))
            raise TypeError(f"matrix entries are ints or Fractions, not {names}")
        object.__setattr__(self, "_scaled", _scale(values, (rows, cols)))

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable: cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild from the view, not by setattr
        return Matrix.from_view, (self._scaled,)

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(rows: Iterable[Iterable]) -> "Matrix":
        data = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        return Matrix(len(data), len(data[0]) if data else 0, data)

    @staticmethod
    def from_view(view: "_Scaled") -> "Matrix":
        """The matrix ``view.nums / view.den`` of a 2-d view in lowest terms
        (as ``_lowest_terms`` makes it)."""
        out = object.__new__(Matrix)
        object.__setattr__(out, "_scaled", view)
        return out

    @staticmethod
    def identity(m: int) -> "Matrix":
        return Matrix.from_view(_Scaled(np.eye(m, dtype=np.int64), 1, int(m > 0)))

    @property
    def rows(self) -> int:
        return self._scaled.nums.shape[0]

    @property
    def cols(self) -> int:
        return self._scaled.nums.shape[1]

    # -- basic structure ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        a, b = self._scaled, other._scaled  # both in lowest terms, so canonical
        return a.den == b.den and a.nums.shape == b.nums.shape and np.array_equal(a.nums, b.nums)

    def __hash__(self) -> int:
        view = self._scaled
        return hash((view.nums.shape, view.den, tuple(view.nums.ravel().tolist())))

    def __repr__(self) -> str:
        entries = _json_rows(self._scaled.nums, self._scaled.den)
        return f"Matrix(rows={self.rows}, cols={self.cols}, entries={entries!r})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_ndarray(self) -> np.ndarray:
        # int / int rounds once, exactly like float(Fraction)
        view = self._scaled
        return np.array([v / view.den for v in view.nums.ravel().tolist()],
                        dtype=float).reshape(view.nums.shape)

    def to_json(self) -> dict:
        """The matrix JSON, as ``matrices_json`` writes each row of a stack."""
        return _matrix_json(self._scaled.nums.ravel(), self.rows, self.cols, self._scaled.den)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"inner dimensions {self.cols} and {other.rows} differ"
            )
        a, b = self._scaled, other._scaled
        return Matrix.from_view(_lowest_terms(_int_product(a, b, self.cols), a.den * b.den))

    def apply(self, vec: Sequence[Fraction]) -> ExactVector:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        a, x = self._scaled, _scale(vec, (self.cols,))
        return tuple(_fractions(_int_product(a, x, self.cols).tolist(), a.den * x.den))


# ---------------------------------------------------------------------------
# Scaled-integer view: numerators over one common denominator
# ---------------------------------------------------------------------------

# int64, and float64, arithmetic is exact while every partial sum stays below these.
_INT64_LIMIT = 1 << 63
_FLOAT_EXACT = 1 << 53
# Fewest multiplications for which float64, conversions included, beats int64.
_FLOAT_MIN_MULTS = 1 << 11


class _Scaled(NamedTuple):
    """Exact values ``nums / den`` with ``den`` the lcm of their denominators.

    ``nums`` is an int64 array when every numerator fits, and an object
    array of Python ints otherwise; ``bound`` is the largest absolute
    numerator, or for the rows of a stack that of the whole stack, from
    which products decide whether int64 is safe.
    """

    nums: np.ndarray
    den: int
    bound: int


def _lowest_terms(nums: np.ndarray, den: int) -> _Scaled:
    """Scaled view of the integer array ``nums / den``, reduced so ``den`` is
    the least common denominator; canonical, equal values give equal views."""
    if den < 0:
        nums, den = -nums, -den
    if den != 1:
        flat = nums.ravel()
        g = int(np.gcd.reduce(flat)) if nums.dtype == np.int64 else math.gcd(*flat.tolist())
        if g == 0:  # every numerator is zero
            return _view(nums, 1)
        g = math.gcd(den, g)
        if g != 1:
            nums, den = nums // g, den // g
    return _view(nums, den)


def _scale(values: Sequence[Union[int, Fraction]], shape: tuple[int, ...]) -> _Scaled:
    """Scaled view of exact values, ints or Fractions, laid out in ``shape``
    (row-major); no prime of the lcm divides every numerator."""
    den = math.lcm(*{v.denominator for v in values})
    if den == 1:
        nums = [v.numerator for v in values]
    else:
        nums = [v.numerator * (den // v.denominator) for v in values]
    bound = max(map(abs, nums), default=0)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    return _Scaled(np.array(nums, dtype=dtype).reshape(shape), den, bound)


def _scale_sparse(values: Sequence[Union[int, Fraction]], positions: Sequence[int],
                  shape: tuple[int, int]) -> _Scaled:
    """Scaled view of the matrix of ``shape`` that is zero but for
    ``values`` at the flat row-major ``positions``."""
    nonzero = _scale(values, (len(values),))
    nums = np.zeros(shape[0] * shape[1], dtype=nonzero.nums.dtype)
    nums[positions] = nonzero.nums
    return _Scaled(nums.reshape(shape), nonzero.den, nonzero.bound)


def _product_dtype(a: _Scaled, b: _Scaled, inner: int):
    """The dtype ``_int_product`` multiplies in, by the bound max|a| * max|b| *
    inner on every partial sum: float64 (BLAS) below 2**53 for a large enough
    matrix x matrix product, int64 below 2**63, Python ints otherwise."""
    x, y = a.nums, b.nums
    if x.dtype == y.dtype == np.int64:
        bound = a.bound * b.bound * inner
        if (bound < _FLOAT_EXACT and x.shape[-2] > 1 and y.ndim > 1 and y.shape[-1] > 1
                and x.size * y.shape[-1] >= _FLOAT_MIN_MULTS):
            return np.float64
        if bound < _INT64_LIMIT:
            return np.int64
    return object


def _int_product(a: _Scaled, b: _Scaled, inner: int) -> np.ndarray:
    """Exact product of the numerator arrays, int64 or object."""
    dtype = _product_dtype(a, b, inner)
    out = a.nums.astype(dtype, copy=False) @ b.nums.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def _rows_equal(a: _Scaled, b: _Scaled) -> list[bool]:
    """Whether row r of ``a`` holds the same values as row r of ``b``, for each r.

    ``a.nums / a.den == b.nums / b.den`` exactly when ``a.nums * b.den ==
    b.nums * a.den``; the cross products run in int64 when the bounds prove
    them exact and in Python ints otherwise.
    """
    x, y = a.nums, b.nums
    if not (x.dtype == y.dtype == np.int64
            and max(a.bound * b.den, b.bound * a.den, a.den, b.den) < _INT64_LIMIT):
        x, y = x.astype(object), y.astype(object)
    return (x * b.den == y * a.den).all(axis=1).tolist()


def _ratio_json(num: int, den: int):
    """``scalar_to_json(Fraction(num, den))``, without making the Fraction."""
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def matrices_json(s: _Scaled, rows: int, cols: int) -> list[dict]:
    """The matrix JSON of each row of a stack of flattened rows x cols matrices."""
    return [_matrix_json(nums, rows, cols, s.den) for nums in s.nums]


def _matrix_json(nums: np.ndarray, rows: int, cols: int, den: int) -> dict:
    """The matrix JSON of flattened rows x cols numerators over ``den``:
    ``"entries"`` row by row, or, when the matrix is not empty and at most
    one entry in eight is nonzero, ``"nonzeros"``, the triples [i, j, v] of
    its nonzero entries in row-major order (at that density never the longer
    text while both dimensions stay below 10**5), each value in lowest terms."""
    out = {"rows": rows, "cols": cols}
    if nums.size == 0 or 8 * np.count_nonzero(nums) > nums.size:
        out["entries"] = _json_rows(nums.reshape(rows, cols), den)
        return out
    at = np.flatnonzero(nums != 0)  # row-major; faster on a bool array
    values = nums[at].tolist()
    if den != 1:
        values = [_ratio_json(v, den) for v in values]
    out["nonzeros"] = [[k // cols, k % cols, v] for k, v in zip(at.tolist(), values)]
    return out


def _json_rows(nums: np.ndarray, den: int) -> list[list]:
    """The rows of 2-d numerators over ``den`` as JSON scalars, ints and "p/q" strings."""
    rows = nums.tolist()
    if den == 1:
        return rows
    return [[_ratio_json(v, den) for v in row] for row in rows]


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
        p = r  # a loop, not next() over a generator: this runs once per column
        while p < nrows and a[p][c] == 0:
            p += 1
        if p == nrows:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            row_of[r], row_of[p] = row_of[p], row_of[r]
            sign = -sign
        ar = a[r]
        pivot = ar[c]
        pivot_rows.append(row_of[r])
        pivot_cols.append(c)
        for i in range(r + 1, nrows):
            ai = a[i]
            f = ai[c]
            if f == 0:
                # Sylvester identity still demands the pivot scaling here,
                # which is the identity when pivot == prev and a negation
                # when pivot == -prev, as on signed permutations.
                if pivot == prev:
                    continue
                if pivot == -prev:
                    ai[c + 1:] = [-v for v in ai[c + 1:]]
                    continue
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
    """Certified rank of a matrix, with the pivots of a nonzero maximal minor.

    Elimination runs on the view's numerators, den times the matrix, which
    has the same rank and the same vanishing minors, so its pivots certify
    the matrix itself.
    """
    rk, prows, pcols, _, _ = _bareiss_rank(m._scaled.nums.tolist())
    return RankResult(rk, tuple(prows), tuple(pcols))


def det(m: Matrix) -> Fraction:
    """Exact determinant: that of the view's numerators over den**rows."""
    if not m.is_square:
        raise NotSquare("determinant of a non-square matrix")
    view = m._scaled
    rk, _, _, sign, last_pivot = _bareiss_rank(view.nums.tolist())
    if rk < m.rows:
        return _ZERO
    return Fraction(sign * last_pivot, view.den ** m.rows)


# ---------------------------------------------------------------------------
# Fraction-free solve: inverse and span coordinates
# ---------------------------------------------------------------------------


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by fraction-free elimination.

    Bareiss elimination of [A | I], where A is the integer view den * m,
    then fraction-free back substitution (Nakos, Turner and Williams 1997)
    of A @ x == D * I, with D = +-det(A) the last pivot: row k of x is
    (D * rhs_k - sum over j > k with a_kj != 0 of a_kj * x_j) // a_kk.
    Every division is exact, because D * A^-1 is integral; m^-1 = den * x / D.
    """
    if not m.is_square:
        raise NotSquare("inverse of a non-square matrix")
    n, view = m.rows, m._scaled
    aug = [row + unit for row, unit in zip(view.nums.tolist(), np.eye(n, dtype=int).tolist())]
    _, _, pivot_cols, _, d = _bareiss_rank(aug)
    if pivot_cols != list(range(n)):
        raise NotInvertible("matrix is singular")
    x: list[list[int]] = [[]] * n
    for k in range(n - 1, -1, -1):  # row k of x from the rows below it
        row = aug[k]
        acc = [d * v for v in row[n:]]
        for c, xj in zip(row[k + 1:n], x[k + 1:]):
            if c:
                acc = [u - c * v for u, v in zip(acc, xj)]
        x[k] = [u // row[k] for u in acc]
    return Matrix.from_view(_lowest_terms(np.array(x, dtype=object).reshape(n, n) * view.den, d))


def _view(nums: np.ndarray, den: int) -> _Scaled:
    """Scaled view of an exact integer array, as int64 when its bound fits."""
    # max and min, not abs: np.abs would copy the whole array
    bound = max(int(nums.max()), -int(nums.min())) if nums.size else 0
    if nums.dtype == object and bound < _INT64_LIMIT:
        nums = nums.astype(np.int64)
    return _Scaled(nums, den, bound)


def stack(mats: Sequence[Matrix]) -> _Scaled:
    """Equally shaped matrices, flattened, as the rows of one scaled view."""
    views = [m._scaled for m in mats]
    den = math.lcm(*(v.den for v in views))
    return _view(np.stack([
        v.nums.reshape(-1) if v.den == den else v.nums.reshape(-1).astype(object) * (den // v.den)
        for v in views
    ]), den)


def unstack(s: _Scaled, m: int) -> tuple[Matrix, ...]:
    """The m x m matrices in the rows of ``s``, each in lowest terms; over
    den 1 each is a view of its row."""
    return tuple(Matrix.from_view(_lowest_terms(nums, s.den))
                 for nums in s.nums.reshape(len(s.nums), m, m))


def _is_identity_times(nums: np.ndarray, q: int, m: int) -> bool:
    """Whether the m x m numerators ``nums``, flattened, are q times the
    identity, for q != 0."""
    square = nums.reshape(m, m)
    return np.count_nonzero(square) == m and square.diagonal().tolist() == [q] * m


#: Most entries, n**2 * m**2, that the n**2 pairwise products of n m x m
#: matrices may hold: closure, associativity and the projector identities
#: each build that stack, so its size, not the input's, sets their memory.
MAX_PRODUCT_ENTRIES = 1 << 20


def products_refused(n: int, m: int) -> Optional[str]:
    """Why the pairwise products of n m x m matrices are refused, or None."""
    if n * n * m * m > MAX_PRODUCT_ENTRIES:
        return f"the products of {n} matrices of {m}x{m} exceed {MAX_PRODUCT_ENTRIES} entries"
    return None


def pairwise_products(s: _Scaled, m: int) -> _Scaled:
    """Row i*n + j: the product of the m x m matrices in rows i and j of ``s``.

    All n**2 products are one integer product [A_0; ..; A_(n-1)] @
    [A_0 .. A_(n-1)] of the numerators, under ``_int_product``'s int64 rule.
    """
    n = s.nums.shape[0]
    blocks = s.nums.reshape(n, m, m)
    tall = _Scaled(blocks.reshape(n * m, m), s.den, s.bound)
    wide = _Scaled(blocks.transpose(1, 0, 2).reshape(m, n * m), s.den, s.bound)
    grid = _int_product(tall, wide, m).reshape(n, m, n, m)
    return _view(grid.transpose(0, 2, 1, 3).reshape(n * n, m * m), s.den * s.den)


def combine(coeffs: Sequence[Sequence[Fraction]], s: _Scaled) -> _Scaled:
    """Row r: the combination of the rows of ``s`` with coefficients
    ``coeffs[r]``, as one integer product of the numerators."""
    c = _scale([v for row in coeffs for v in row], (len(coeffs), s.nums.shape[0]))
    return _view(_int_product(c, s, s.nums.shape[0]), c.den * s.den)


class SpanSolver:
    """Exact coordinates over the span of independent, equally shaped matrices.

    A span element is fixed by its values on the pivot columns of the
    stacked generators, the columns their reduced row echelon form picks.
    ``__init__`` takes their ``stack``, finds those columns and inverts
    the pivot block B once; the view of B^-1 is an integer matrix over a
    denominator D.  A batch of targets (a ``stack``) is solved by one
    integer product and proved by a second one, coordinates x stack == D x
    targets, compared exactly.
    """

    def __init__(self, generators: _Scaled):
        self.generators = generators
        self.n = self.generators.nums.shape[0]
        cols = np.flatnonzero(generators.nums.any(axis=0))  # the rest hold no pivot
        rk, _, pivots, _, _ = _bareiss_rank(generators.nums[:, cols].tolist())
        self._pivots = cols[pivots].tolist()
        if rk < self.n:
            raise InvalidBasis("span basis matrices are linearly dependent")
        # column k of the block is generator k on the pivot columns
        block = self.generators.nums[:, self._pivots].T
        inv = inverse(Matrix.from_view(_view(block, 1)))._scaled
        self._det, self._adj_t = inv.den, _Scaled(inv.nums.T, 1, inv.bound)

    def _scaled_coordinates(self, targets: _Scaled) -> _Scaled:
        """D times the coordinates of the span elements that agree with
        each target row on the pivot columns."""
        if targets.nums.shape[1] != self.generators.nums.shape[1]:
            raise ShapeMismatch("targets do not match the span basis shape")
        picked = _Scaled(targets.nums[:, self._pivots], 1, targets.bound)
        return _view(_int_product(picked, self._adj_t, self.n), 1)

    def coordinates(self, targets: _Scaled) -> tuple[_Scaled, list[bool]]:
        """The coordinates over the generators of the span elements that
        agree with each target row on the pivot columns, as one view in
        lowest terms with a row per target, and whether each row is proved
        to equal its target, which holds exactly for targets in the span."""
        ys = self._scaled_coordinates(targets)
        d = self._det
        # ys x stack == D x targets, numerator by numerator
        combos = _view(_int_product(ys, self.generators, self.n), d)
        proved = _rows_equal(combos, targets._replace(den=1))
        # target = sum_k (y_k / D) * stack row k / den_t, and stack row k
        # is den_g times generator k; Python ints where den_g * y_k may pass
        # the int64 range
        g = self.generators.den
        nums = ys.nums if max(ys.bound, 1) * g < _INT64_LIMIT else ys.nums.astype(object)
        return _lowest_terms(nums * g, d * targets.den), proved

    # No command calls this; bench/tracing.py wraps it by name (ROADMAP item 4 frees it).
    def coefficients(self, targets: _Scaled) -> list[Optional[ExactVector]]:
        """Coordinates over the generators of each target row, or None for
        a row outside the span."""
        view, proved = self.coordinates(targets)
        return [
            tuple(_fractions(y, view.den)) if ok else None
            for ok, y in zip(proved, view.nums.tolist())
        ]

    def residual_sq(self, targets: _Scaled, t: int) -> Fraction:
        """Squared norm of target row ``t`` minus the span element that
        agrees with it on the pivot columns: zero exactly on the span, and
        an upper bound on the squared distance to it."""
        one = _Scaled(targets.nums[t:t + 1], targets.den, targets.bound)
        combo = _int_product(self._scaled_coordinates(one), self.generators, self.n)
        d = self._det
        gap = sum((c - d * v) ** 2 for c, v in zip(combo[0].tolist(), one.nums[0].tolist()))
        return Fraction(gap, (d * targets.den) ** 2)


# ---------------------------------------------------------------------------
# Fast linear-independence test (validation only)
# ---------------------------------------------------------------------------

_PRIMES = (2147483629,)


def _full_row_rank_modp(rows: np.ndarray, p: int) -> bool:
    """One-sided full-row-rank test of an integer array over GF(p).

    Full rank mod p implies full rank over the rationals; False means the
    rank dropped mod p, which is inconclusive for the rationals.  Callers
    pass the nonzero columns only.
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


def has_full_row_rank(s: _Scaled) -> bool:
    """Whether the rows of a stack, equally shaped matrices, are linearly
    independent.

    The test reads the stack's numerators, the entries times one common
    nonzero denominator, which leaves the rank unchanged.  Nonzero rows
    with pairwise disjoint supports (no column holds two nonzeros, as for
    Clifford blades) are independent, which one boolean mask shows.  Other
    stacks are tested modulo a large prime, where full rank certifies
    independence; a rank drop falls back to exact fraction-free
    elimination, both on the nonzero columns.  Distinct permutation matrices
    are not enough: the six 3 x 3 ones overlap and span only 5 dimensions.
    """
    support = s.nums != 0
    per_column = np.count_nonzero(support, axis=0)
    if support.any(axis=1).all() and (per_column <= 1).all():
        return True
    rows = s.nums[:, per_column > 0]
    if _full_row_rank_modp(rows, _PRIMES[0]):
        return True
    return _bareiss_rank(rows.tolist())[0] == len(rows)
