"""Property tests of the scaled-integer kernels against naive Fraction loops.

Entries mix small values with magnitudes near 2**31 and 2**62, so products
take the int64 path when the overflow bound allows it and the Python-int
path when it does not; denominators are pairwise coprime (one of them the
first modular-rank prime) and shapes include empty rows and columns.  The
fraction-free solves (closure and inverse) are checked against a
Gauss-Jordan reduction over Fractions written here.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affinor_rank import AffinorBasis, Matrix, det, from_affinors, inverse, linalg, rank
from affinor_rank.errors import InvalidBasis, NotClosed, NotInvertible
from affinor_rank.linalg import has_full_row_rank, scalar_to_json

from conftest import cofactor_det, quaternion_matrices

settings.register_profile("kernels", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("kernels")

_NUMERATORS = st.one_of(
    st.integers(-3, 3),
    st.integers(2**31 - 4, 2**31 + 4),
    st.integers(2**62 - 4, 2**62 + 4),
    st.integers(-(2**62) - 4, -(2**62) + 4),
)
_DENOMINATORS = st.sampled_from((1, 1, 1, 2, 3, 5, 7, linalg._PRIMES[0]))
_SCALARS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)


def _matrix(rows: int, cols: int, scalars=_SCALARS):
    cells = st.lists(scalars, min_size=rows * cols, max_size=rows * cols)
    return cells.map(lambda flat: Matrix(rows, cols, tuple(
        tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)
    )))


_DIMS = st.integers(0, 4)


@st.composite
def _chain(draw, length: int):
    """``length`` matrices whose shapes multiply left to right."""
    dims = [draw(_DIMS) for _ in range(length + 1)]
    return [draw(_matrix(dims[i], dims[i + 1])) for i in range(length)]


def _naive_matmul(a: Matrix, b: Matrix):
    return tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
              for j in range(b.cols))
        for i in range(a.rows)
    )


def _naive_pivots(rows) -> list[int]:
    """Pivot columns of the row echelon form of Fraction rows."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def _assert_exact(values):
    for v in values:
        assert type(v) is Fraction
        assert type(v.numerator) is int and type(v.denominator) is int


@given(_chain(2))
def test_matmul_matches_fraction_loop(mats):
    a, b = mats
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == _naive_matmul(a, b)
    _assert_exact(v for row in prod.entries for v in row)
    json.dumps(prod.to_json())


@given(_chain(3))
def test_product_of_a_product_matches_fraction_loop(mats):
    # the inner product hands its scaled view on to the outer one
    a, b, c = mats
    ab = a @ b
    expected = _naive_matmul(Matrix(ab.rows, ab.cols, _naive_matmul(a, b)), c)
    assert (ab @ c).entries == expected
    assert (a @ (b @ c)).entries == expected


@given(_DIMS.flatmap(lambda cols: st.tuples(
    _DIMS.flatmap(lambda rows: _matrix(rows, cols)),
    st.lists(_SCALARS, min_size=cols, max_size=cols),
)))
def test_apply_matches_fraction_loop(case):
    m, vec = case
    out = m.apply(vec)
    assert type(out) is tuple
    assert out == tuple(
        sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in m.entries
    )
    _assert_exact(out)


@given(st.tuples(_DIMS, _DIMS).flatmap(lambda shape: _matrix(*shape)))
def test_rank_and_full_row_rank_match_fraction_elimination(m):
    expected = len(_naive_pivots(m.entries))
    got = rank(m)
    assert got.rank == expected
    if expected:
        minor = [[m.entries[i][j] for j in got.pivot_cols] for i in got.pivot_rows]
        assert cofactor_det(minor) != 0
    assert has_full_row_rank([Matrix(1, m.cols, (row,)) for row in m.entries]) == (
        expected == m.rows
    )


@given(_DIMS.flatmap(lambda n: _matrix(n, n)))
def test_det_matches_cofactor_expansion(m):
    got = det(m)
    assert got == (cofactor_det(m.entries) if m.rows else 1)
    _assert_exact([got])


_BEYOND_INT64 = st.builds(
    Fraction,
    st.one_of(_NUMERATORS, st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63))),
    _DENOMINATORS,
)


def _json_cases():
    """Matrices whose views take every path: integer, fractional, beyond int64,
    and products whose views ``_lowest_terms`` reduces to denominator 1."""
    shapes = st.tuples(_DIMS, _DIMS)
    plain = shapes.flatmap(lambda shape: _matrix(*shape))
    big = shapes.flatmap(lambda shape: _matrix(*shape, _BEYOND_INT64))
    # scaling by the view's denominator leaves an integer product whose
    # view is reduced from denominator d to 1
    cleared = plain.map(lambda m: m @ Matrix.identity(m.cols).scale(m._scaled.den))
    products = _chain(3).map(lambda mats: (mats[0] @ mats[1]) @ mats[2])
    return st.one_of(plain, big, cleared, products)


@given(_json_cases())
def test_to_json_matches_per_entry_form(m):
    got = m.to_json()
    assert got == {
        "rows": m.rows, "cols": m.cols, "mode": "exact",
        "entries": [[scalar_to_json(v) for v in row] for row in m.entries],
    }
    for row in got["entries"]:
        for v in row:
            assert type(v) is int or (type(v) is str and "/" in v)
    assert json.loads(json.dumps(got)) == got


def test_product_that_wraps_in_int64_stays_exact():
    big = 2**62
    a = Matrix.exact([[big, big]])
    b = Matrix.exact([[1], [1]])
    wrapped = np.array([[big, big]], dtype=np.int64) @ np.array([[1], [1]], dtype=np.int64)
    assert int(wrapped[0, 0]) == -(2**63)  # what unchecked int64 would report
    assert (a @ b).entries == ((Fraction(2**63),),)
    assert a.apply((Fraction(1), Fraction(1))) == (Fraction(2**63),)


# ---------------------------------------------------------------------------
# Fraction-free solves: closure tables and inverse
# ---------------------------------------------------------------------------


def _naive_solve(a, b):
    """x with a @ x == b for a square Fraction matrix a, None when a is singular."""
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _reference_closure(mats):
    """Structure constants of the span of ``mats``, or the (pair, residual)
    of the first product in row-major order that leaves it.

    Each product is solved on the pivot columns of the stacked matrices;
    the span element with those coordinates must equal the product, and
    the residual is their squared difference when it does not."""
    n = len(mats)
    vecs = [[v for row in m.entries for v in row] for m in mats]
    pivots = _naive_pivots(vecs)
    assert len(pivots) == n
    block = [[vecs[k][c] for k in range(n)] for c in pivots]
    planes = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = [v for row in _naive_matmul(mats[i], mats[j]) for v in row]
            x = [row[0] for row in _naive_solve(block, [[prod[c]] for c in pivots])]
            combo = [sum((x[k] * vecs[k][c] for k in range(n)), Fraction(0))
                     for c in range(len(prod))]
            if combo != prod:
                return (i, j), sum((u - v) ** 2 for u, v in zip(prod, combo))
            plane.append(tuple(x))
        planes.append(tuple(plane))
    return tuple(planes)


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3)))
_NEAR_2_31 = st.builds(Fraction, st.integers(2**31 - 4, 2**31 + 4), st.sampled_from((1, 2, 3)))


def _small_or_large(m: int, large):
    """m x m matrices of small entries, whose products stay on the int64
    path, or with some ``large`` entries, which leave it."""
    return st.one_of(_matrix(m, m, _SMALL), _matrix(m, m, st.one_of(_SMALL, large)))


@st.composite
def _frame(draw, m: int):
    """A random invertible m x m frame and its inverse."""
    q = draw(_small_or_large(m, _NEAR_2_31))
    q_inv = _naive_solve(q.entries, Matrix.identity(m).entries)
    assume(q_inv is not None)
    return q, Matrix(m, m, tuple(tuple(row) for row in q_inv))


@given(_frame(4))
def test_from_affinors_matches_reference_on_conjugated_quaternions(frame):
    # the regular representation of the quaternions, in a random frame
    q, q_inv = frame
    mats = [Matrix(4, 4, _naive_matmul(Matrix(4, 4, _naive_matmul(q, a)), q_inv))
            for a in quaternion_matrices()]
    expected = _reference_closure(mats)
    assert isinstance(expected[0][0], tuple)  # the reference finds it closed
    got = from_affinors(AffinorBasis(mats, allow_equal_dim=True))
    assert got.c == expected
    _assert_exact(v for plane in got.c for row in plane for v in row)


@st.composite
def _open_span(draw):
    """The identity and random matrices, led in half the draws by a corner
    matrix N with N @ N == 0, which moves the first failure past (1, 1)."""
    m = draw(st.integers(3, 4))
    mats = [Matrix.identity(m)] + draw(st.lists(_small_or_large(m, _SCALARS), min_size=1, max_size=2))
    if draw(st.booleans()):
        c = draw(_SCALARS.filter(bool))
        corner = tuple(tuple(c if (i, j) == (0, m - 1) else Fraction(0) for j in range(m))
                       for i in range(m))
        mats.insert(1, Matrix(m, m, corner))
    return mats


@given(_open_span())
def test_not_closed_matches_reference_pair_and_residual(mats):
    try:
        basis = AffinorBasis(mats, allow_equal_dim=True)
    except InvalidBasis:
        assume(False)
    expected = _reference_closure(basis.mats)
    if isinstance(expected[0][0], tuple):
        assert from_affinors(basis).c == expected
        return
    with pytest.raises(NotClosed) as err:
        from_affinors(basis)
    assert (err.value.pair, err.value.residual) == expected
    _assert_exact([err.value.residual])


@given(st.integers(0, 4).flatmap(lambda n: _matrix(n, n)))
def test_inverse_is_exact_on_fractional_matrices(m):
    assume(det(m) != 0)
    inv = inverse(m)
    assert (m @ inv).entries == Matrix.identity(m.rows).entries
    _assert_exact(v for row in inv.entries for v in row)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _matrix(n, n), st.integers(0, n - 1), st.lists(_SCALARS, min_size=n, max_size=n))))
def test_inverse_rejects_singular_matrices(case):
    # row ``dup`` is replaced by a combination of the other rows
    m, dup, weights = case
    rows = [list(r) for r in m.entries]
    rows[dup] = [sum((w * rows[i][c] for i, w in enumerate(weights) if i != dup), Fraction(0))
                 for c in range(m.cols)]
    with pytest.raises(NotInvertible):
        inverse(Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows)))
