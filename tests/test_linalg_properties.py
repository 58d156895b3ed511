"""Property tests of the scaled-integer kernels against naive Fraction loops.

Entries mix small values with magnitudes near 2**31 and 2**62, so products
take the int64 path when the overflow bound allows it and the Python-int
path when it does not; denominators are pairwise coprime (one of them the
first modular-rank prime) and shapes include empty rows and columns.  The
fraction-free solves (closure and inverse) are checked against a
Gauss-Jordan reduction over Fractions written here, and the product
identities (associativity, projector systems, Clifford relations, the
inversion probe) against the same identities written out over Fractions.
The integer certificate verifier of ``cli`` is checked against its Fraction
reference in ``conftest`` on certificates in random frames, intact and with
one entry tampered.
"""

import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from affinor_rank import (
    AffinorBasis,
    AllSampledInvertible,
    CliffordSignature,
    CounterexampleFound,
    Inapplicable,
    Matrix,
    NoWitnessFound,
    ProjectorSystem,
    RankCertificate,
    Splitting,
    StructureConstants,
    build_clifford,
    certify_generic_rank,
    chat,
    clifford_rank_theorem_check,
    det,
    from_affinors,
    gram,
    hullrank,
    inverse,
    inversion_probe,
    linalg,
    projectors_from_splitting,
    rank,
    verify_associativity,
    verify_clifford_relations,
    verify_complete_system,
    verify_unity,
    weak_rank_witness,
)
from affinor_rank import algebra, cli, frobenius
from affinor_rank.algebra import ChatMatrices
from affinor_rank.cli import _fresh_rank, _verify_certificate_dict
from affinor_rank.errors import (InputFormatError, InvalidAlgebra, InvalidBasis, NotClosed,
                                 NotInvertible)
from affinor_rank.jsonio import (MAX_DIGITS, constants_from_json, exact_pair_from_json,
                                 exact_scalar_from_json, matrix_from_json)
from affinor_rank.linalg import has_full_row_rank, scalar_to_json

from conftest import (
    block_double,
    cofactor_det,
    constants_cube,
    densify,
    dual_number_constants,
    fraction_rows,
    is_zero_matrix,
    linear_combination,
    local3_constants,
    local_constants,
    matrix_algebra_2x2_constants,
    quaternion_constants,
    quaternion_matrices,
    reference_exact_scalar,
    reference_verify_certificate,
    rotation_block,
)

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
    x, y = fraction_rows(a), fraction_rows(b)
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(a.cols)), Fraction(0))
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
    assert fraction_rows(prod) == _naive_matmul(a, b)
    json.dumps(prod.to_json())


def _assert_canonical(mat: Matrix):
    """The view ``mat`` was made with is the one its entries give: lowest
    terms, a positive denominator, int64 exactly when the bound fits."""
    view, ref = mat._scaled, Matrix(mat.rows, mat.cols, fraction_rows(mat))._scaled
    assert (view.den, view.nums.dtype, view.bound) == (ref.den, ref.nums.dtype, ref.bound)
    assert np.array_equal(view.nums, ref.nums)


@given(st.lists(st.one_of(_NUMERATORS, st.integers(2**63, 2**70)), max_size=12),
       st.sampled_from((1, 2, 6, 2**40, 2**70)),
       st.one_of(st.integers(1, 10**6), st.integers(-(10**6), -1), st.integers(2**63, 2**70)))
@example([6, -12, 0], 1, 3)  # the gcd clears the denominator
@example([2**64, 3 * 2**64], 1, 2**64)  # object numerators that reduce into int64
@example([1, 2], 1, -4)
@example([], 1, 5)
@example([0, 0], 1, 2**70)
def test_lowest_terms_of_an_array_matches_scale(nums, factor, den):
    # reduced on the array, int64 where it fits, nums * factor / (den *
    # factor) is the view _scale makes of the same Fractions, dtype and
    # bound included
    scaled = linalg._view(np.array([v * factor for v in nums], dtype=object), 1).nums
    got = linalg._lowest_terms(scaled, den * factor)
    want = linalg._scale([Fraction(v, den) for v in nums], (len(nums),))
    assert (got.den, got.nums.dtype, got.bound) == (want.den, want.nums.dtype, want.bound)
    assert got.nums.tolist() == want.nums.tolist()


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_matrix(n, n), _matrix(n, n))))
def test_views_made_without_fractions_are_canonical(case):
    # products and inverses (whose determinant may be negative) are made
    # straight from views
    a, b = case
    made = [a @ b] + ([inverse(a)] if det(a) != 0 else [])
    for mat in made:
        _assert_canonical(mat)
    same = a @ Matrix.identity(a.cols)
    assert same == a and hash(same) == hash(a)


_PAST_INT64 = st.builds(Fraction, st.integers(2**63 - 2, 2**63 + 2), _DENOMINATORS)


def _family(scalars):
    """One to four m x m matrices, m from 0 to 3, of the given scalars."""
    return st.integers(0, 3).flatmap(
        lambda m: st.lists(_matrix(m, m, scalars), min_size=1, max_size=4))


@given(st.one_of(_family(st.builds(Fraction, _NUMERATORS)), _family(_SCALARS),
                 _family(st.one_of(_SCALARS, _PAST_INT64))))
@example([Matrix.exact([[2**63, 1], [0, 1]]), Matrix.identity(2)])  # den 1, one object row
def test_unstack_inverts_stack(mats):
    # each matrix comes back in lowest terms with its own bound and dtype,
    # over den 1 as a view of its row
    m = mats[0].rows
    s = linalg.stack(mats)
    got = linalg.unstack(s, m)
    assert got == tuple(mats)
    for mat, want in zip(got, mats):
        _assert_canonical(mat)
        assert mat._scaled.den == want._scaled.den
        assert np.array_equal(mat._scaled.nums, want._scaled.nums)
        if s.den == 1 and mat._scaled.nums.dtype == s.nums.dtype and m:
            assert np.shares_memory(mat._scaled.nums, s.nums)


@st.composite
def _maybe_basis(draw):
    """The identity, or in a quarter of the draws any matrix, then up to m - 1
    matrices of mixed magnitude and denominator."""
    m = draw(st.integers(1, 3))
    first = draw(st.one_of(st.just(Matrix.identity(m)), st.just(Matrix.identity(m)),
                           st.just(Matrix.identity(m)), _matrix(m, m)))
    return [first] + draw(st.lists(_matrix(m, m), max_size=m))


@given(_maybe_basis())
@example([Matrix.exact([[2**63, 0], [0, 2**63]])])  # den * I past int64 is not I
@example([Matrix.exact([["1/2", 0], [0, "1/2"]])])
def test_basis_from_a_stack_is_the_basis_of_its_matrices(mats):
    m = mats[0].rows
    try:
        want = AffinorBasis.of(mats)
    except InvalidBasis as exc:
        with pytest.raises(InvalidBasis) as err:
            AffinorBasis(linalg.stack(mats), m)
        assert str(err.value) == str(exc)
        return
    got = AffinorBasis(linalg.stack(mats), m)
    assert mats[0] == Matrix.identity(m)
    assert got == want and got.mats == tuple(mats) and hash(got) == hash(want)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@st.composite
def _structure_constants(draw):
    """An n x n x n table of mixed scalars, with the unity rows of e_0 set
    in half the draws."""
    n = draw(st.integers(1, 3))
    flat = draw(st.lists(_SCALARS, min_size=n ** 3, max_size=n ** 3))
    c = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            c[0][i] = c[i][0] = [Fraction(int(k == i)) for k in range(n)]
    return StructureConstants.exact(c)


@given(_structure_constants())
@example(quaternion_constants())
def test_chat_stacks_match_the_fraction_planes(sc):
    n, c = sc.n, constants_cube(sc)
    want_hat = tuple(Matrix(n, n, tuple(tuple(c[j][i][k] for k in range(n)) for j in range(n)))
                     for i in range(n))
    want_star = tuple(Matrix(n, n, tuple(tuple(c[i][k][j] for k in range(n)) for j in range(n)))
                      for i in range(n))
    mats = algebra._chat_raw(sc)
    assert linalg.unstack(mats.c_hat, n) == want_hat
    assert linalg.unstack(mats.c_hat_star, n) == want_star
    if want_hat[0] == Matrix.identity(n):
        assert linalg.unstack(chat(sc).c_hat, n) == want_hat
    else:
        with pytest.raises(InvalidAlgebra):
            chat(sc)


@given(_chain(3))
def test_product_of_a_product_matches_fraction_loop(mats):
    # the inner product hands its scaled view on to the outer one
    a, b, c = mats
    ab = a @ b
    expected = _naive_matmul(Matrix(ab.rows, ab.cols, _naive_matmul(a, b)), c)
    assert fraction_rows(ab @ c) == expected
    assert fraction_rows(a @ (b @ c)) == expected


@given(_DIMS.flatmap(lambda cols: st.tuples(
    _DIMS.flatmap(lambda rows: _matrix(rows, cols)),
    st.lists(_SCALARS, min_size=cols, max_size=cols),
)))
def test_apply_matches_fraction_loop(case):
    m, vec = case
    out = m.apply(vec)
    assert type(out) is tuple
    assert out == tuple(
        sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in fraction_rows(m)
    )
    _assert_exact(out)


@given(st.tuples(_DIMS, _DIMS).flatmap(lambda shape: _matrix(*shape)))
def test_rank_and_full_row_rank_match_fraction_elimination(m):
    rows = fraction_rows(m)
    expected = len(_naive_pivots(rows))
    got = rank(m)
    assert got.rank == expected
    if expected:
        minor = [[rows[i][j] for j in got.pivot_cols] for i in got.pivot_rows]
        assert cofactor_det(minor) != 0
    assert has_full_row_rank(m._scaled) == (
        expected == m.rows
    )


@given(_DIMS.flatmap(lambda n: _matrix(n, n)))
def test_det_matches_cofactor_expansion(m):
    got = det(m)
    assert got == (cofactor_det(fraction_rows(m)) if m.rows else 1)
    _assert_exact([got])


_BEYOND_INT64 = st.builds(
    Fraction,
    st.one_of(_NUMERATORS, st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63))),
    _DENOMINATORS,
)


def _json_cases():
    """Matrices whose views take every path: integer, fractional, beyond int64,
    products whose views ``_lowest_terms`` reduces to denominator 1, and
    mostly zero matrices on both sides of the sparse form's density rule
    (identities reach it exactly at 8 x 8)."""
    shapes = st.tuples(_DIMS, _DIMS)
    plain = shapes.flatmap(lambda shape: _matrix(*shape))
    big = shapes.flatmap(lambda shape: _matrix(*shape, _BEYOND_INT64))
    # scaling by the view's denominator leaves an integer product whose
    # view is reduced from denominator d to 1
    cleared = plain.map(
        lambda m: m @ linear_combination([Matrix.identity(m.cols)], [m._scaled.den]))
    products = _chain(3).map(lambda mats: (mats[0] @ mats[1]) @ mats[2])
    one_in_ten = st.integers(0, 9).flatmap(
        lambda k: _BEYOND_INT64 if k == 0 else st.just(Fraction(0)))
    wide = st.tuples(st.integers(0, 12), st.integers(0, 12))
    sparse = wide.flatmap(lambda shape: _matrix(*shape, one_in_ten))
    identities = st.integers(0, 12).map(Matrix.identity)
    # every entry over 2**64, so that the view's denominator passes int64
    # while its numerators fit
    odd = st.integers(-(2**40), 2**40).map(lambda v: Fraction(2 * v + 1, 2**64))
    tiny = shapes.flatmap(lambda shape: _matrix(*shape, odd))
    return st.one_of(plain, big, cleared, products, sparse, identities, tiny)


def _dense_entries(m):
    return [[scalar_to_json(v) for v in row] for row in fraction_rows(m)]


def _assert_matrix_json(got, m):
    # the dense form entry by entry; a sparse form densifies to it, is
    # chosen by the one density rule and is never the longer text; both
    # forms read back into the same matrix
    dense = {
        "rows": m.rows, "cols": m.cols, "entries": _dense_entries(m),
    }
    nonzero = sum(v != 0 for row in fraction_rows(m) for v in row)
    assert ("nonzeros" in got) == (0 < m.rows * m.cols >= 8 * nonzero)
    assert densify(got) == dense
    if "nonzeros" in got:
        assert set(got) == {"rows", "cols", "nonzeros"}
        positions = [(i, j) for i, j, _ in got["nonzeros"]]
        assert positions == sorted(set(positions)) and len(positions) == nonzero
        assert len(cli._encode(got)) <= len(cli._encode(dense))
    for v in [v for row in dense["entries"] for v in row]:
        assert type(v) is int or (type(v) is str and "/" in v)
    assert json.loads(json.dumps(got)) == got
    assert matrix_from_json(got, "<mem>") == m == matrix_from_json(dense, "<mem>")


@given(_json_cases())
@example(Matrix.exact([["1/9223372036854775808"]]))
@example(Matrix.exact([[Fraction(1, 2**64)] + [0] * 8]))
def test_to_json_matches_per_entry_form(m):
    _assert_matrix_json(m.to_json(), m)
    assert repr(m) == f"Matrix(rows={m.rows}, cols={m.cols}, entries={_dense_entries(m)!r})"
    # the float view rounds each exact entry once, as float(Fraction) does
    assert m.to_ndarray().tolist() == [[float(v) for v in row] for row in fraction_rows(m)]


@st.composite
def _json_stacks(draw):
    """Equally shaped matrices, each dense, sparse, past int64, integral or
    fractional on its own, so that one stack mixes sparse and dense rows
    and, over its common denominator, rows whose own lowest terms differ."""
    rows, cols = draw(st.tuples(st.integers(0, 9), st.integers(0, 9)))
    sparse = st.integers(0, 9).flatmap(lambda k: _SCALARS if k == 0 else st.just(Fraction(0)))
    kinds = st.one_of(_matrix(rows, cols), _matrix(rows, cols, _BEYOND_INT64),
                      _matrix(rows, cols, sparse), _matrix(rows, cols, st.integers(-3, 3)))
    return draw(st.lists(kinds, min_size=1, max_size=5))


@given(_json_stacks())
@example([Matrix.exact([[Fraction(1, 2)]]), Matrix.exact([[3]]), Matrix.exact([[0]])])
@example([Matrix.exact([[Fraction(1, 2**64), 0]]), Matrix.exact([[0, 2**64]])])
@example([Matrix(0, 3, ()), Matrix(0, 3, ())])
@example([Matrix(2, 0, ((), ()))])
def test_stack_json_matches_per_entry_form(mats):
    # each row of a stack is written as its own matrix
    rows, cols = mats[0].rows, mats[0].cols
    got = linalg.matrices_json(linalg.stack(mats), rows, cols)
    assert len(got) == len(mats)
    for g, m in zip(got, mats):
        _assert_matrix_json(g, m)
    if rows == cols > len(mats):  # a basis writes its stack the same way
        try:
            basis = AffinorBasis.of((Matrix.identity(rows), *mats))
        except InvalidBasis:
            return
        assert basis.to_json()["mats"] == [Matrix.identity(rows).to_json(), *got]


def _int_view(rows):
    return linalg._view(np.array(rows, dtype=np.int64).reshape(len(rows), -1), 1)


@st.composite
def _products_near_2_53(draw):
    """Integer matrix products whose bound max|a| * max|b| * inner falls on
    either side of 2**53, in every shape from vector to matrix, and on both
    sides of the float path's floor on the multiplications."""
    rows, cols = draw(st.sampled_from((1, 2, 8, 64))), draw(st.sampled_from((1, 2, 8, 64)))
    inner = draw(st.integers(1, 4))
    top = draw(st.sampled_from((2**25, 2**26 - 1, 2**26, 2**26 + 1, 2**27)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    a = rng.integers(-top, top, (rows, inner), endpoint=True)
    b = rng.integers(-top, top, (inner, cols), endpoint=True)
    a[0, 0], b[0, 0] = top, -top  # the bound is reached
    return a.tolist(), b.tolist()


@given(_products_near_2_53())
@example(([[2**26 - 1] * 2] * 64, [[2**26 - 1] * 64] * 2))  # 2**53 - 2**28 + 2: float64
@example(([[2**52 + 1, 2**52]], [[1], [1]]))  # 2**53 + 1, one row: int64
@example(([[2**52 + 1, 2**52]] * 64, [[1] * 64] * 2))  # past 2**53: int64
@example(([[2**62, 2**62]], [[1], [1]]))  # 2**63: Python ints
def test_product_that_wraps_in_int64_stays_exact(case):
    a, b = map(_int_view, case)
    inner = a.nums.shape[1]
    want = (np.array(case[0], dtype=object) @ np.array(case[1], dtype=object)).tolist()
    assert linalg._int_product(a, b, inner).tolist() == want
    bound = a.bound * b.bound * inner
    rows, cols = a.nums.shape[0], b.nums.shape[1]
    on_float = (bound < 2**53 and rows > 1 and cols > 1
                and rows * inner * cols >= linalg._FLOAT_MIN_MULTS)
    assert (linalg._product_dtype(a, b, inner) is np.float64) == on_float
    # a matrix x vector product never takes the float path
    x = linalg._view(b.nums[:, 0], 1)
    on_int64 = a.bound * x.bound * inner < 2**63
    assert linalg._product_dtype(a, x, inner) is (np.int64 if on_int64 else object)
    assert linalg._int_product(a, x, inner).tolist() == [row[0] for row in want]
    big = 2**62
    wrapped = np.array([[big, big]], dtype=np.int64) @ np.array([[1], [1]], dtype=np.int64)
    assert int(wrapped[0, 0]) == -(2**63)  # what unchecked int64 would report
    a, b = Matrix.exact([[big, big]]), Matrix.exact([[1], [1]])
    assert fraction_rows(a @ b) == ((Fraction(2**63),),)
    assert a.apply((Fraction(1), Fraction(1))) == (Fraction(2**63),)
    assert (Matrix.exact(case[0]) @ Matrix.exact(case[1])) == Matrix.exact(want)


def _bareiss_reference(a):
    """The fraction-free elimination as first written, in place: every row
    below a pivot is rescaled by pivot // prev, identity or not."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    row_of = list(range(nrows))
    sign, prev, r = 1, 1, 0
    pivot_rows, pivot_cols = [], []
    for c in range(ncols):
        if r >= nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), nrows)
        if p == nrows:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            row_of[r], row_of[p] = row_of[p], row_of[r]
            sign = -sign
        pivot = a[r][c]
        pivot_rows.append(row_of[r])
        pivot_cols.append(c)
        for i in range(r + 1, nrows):
            f = a[i][c]
            if f == 0:
                for j in range(c + 1, ncols):
                    a[i][j] = a[i][j] * pivot // prev
            else:
                for j in range(c + 1, ncols):
                    a[i][j] = (a[i][j] * pivot - f * a[r][j]) // prev
                a[i][c] = 0
        prev = pivot
        r += 1
    return r, sorted(pivot_rows), pivot_cols, sign, prev


def _int_rows(entries, max_side: int):
    shape = st.tuples(st.integers(0, max_side), st.integers(0, max_side))
    return shape.flatmap(lambda s: st.lists(
        st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]))


# signed permutations, where every pivot is +-prev; sparse sign matrices,
# where both pivot == prev and pivot == -prev meet rows with a zero in the
# pivot column; and dense ones, where pivots grow past +-prev
_SIGNED_PERMUTATIONS = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
)).map(lambda ps: [[s * (j == p) for j in range(len(ps[0]))] for p, s in zip(*ps)])
_SPARSE_SIGNS = _int_rows(st.sampled_from((-1, 0, 0, 0, 1)), 8)
_DENSE_INTS = st.one_of(_int_rows(st.integers(-9, 9), 6),
                        _int_rows(_NUMERATORS.filter(lambda v: isinstance(v, int)), 4))


@given(st.one_of(_SIGNED_PERMUTATIONS, _SPARSE_SIGNS, _DENSE_INTS))
@example([[1, 0, 0], [0, -1, 0], [0, 0, -1]])  # skipped, then negated, rows
@example([[2, 0, 1], [0, 3, 0], [4, 1, 2]])  # a zero in the pivot column, pivot 3 over 2
@example([[0, 1], [1, 0], [1, 1]])  # a row swap, then a row that drops out
def test_bareiss_matches_the_rescaling_loop(rows):
    # same rank, pivots, sign and last pivot, and the same matrix left in
    # place, which ``inverse`` reads for its back substitution
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    assert linalg._bareiss_rank(got) == _bareiss_reference(want)
    assert got == want
    if rows and len(rows) == len(rows[0]) and cofactor_det(rows) != 0:
        expected = _naive_solve([[Fraction(v) for v in r] for r in rows],
                                fraction_rows(Matrix.identity(len(rows))))
        assert fraction_rows(inverse(Matrix.exact(rows))) == tuple(map(tuple, expected))


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
    vecs = [[v for row in fraction_rows(m) for v in row] for m in mats]
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
    q_inv = _naive_solve(fraction_rows(q), fraction_rows(Matrix.identity(m)))
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
    got = from_affinors(AffinorBasis.of(mats))
    assert constants_cube(got) == expected


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
        basis = AffinorBasis.of(mats)
    except InvalidBasis:
        assume(False)
    expected = _reference_closure(basis.mats)
    if isinstance(expected[0][0], tuple):
        assert constants_cube(from_affinors(basis)) == expected
        return
    with pytest.raises(NotClosed) as err:
        from_affinors(basis)
    assert (err.value.pair, err.value.residual) == expected
    _assert_exact([err.value.residual])


def _fraction_route_table(basis):
    """The closure table made as it first was: each proved coordinate
    den_g * y / (D * den_t) as a Fraction, then scaled into a table."""
    solver = linalg.SpanSolver(basis.stacked)
    products = linalg.pairwise_products(solver.generators, basis.m)
    ys = solver._scaled_coordinates(products)
    den = solver._det * products.den
    coords = [tuple(Fraction(solver.generators.den * v, den) for v in row)
              for row in ys.nums.tolist()]
    n = basis.n
    return StructureConstants.exact([coords[i * n:(i + 1) * n] for i in range(n)])


# scales of the quaternion units: with 1/65537 on one of them the scaled
# coordinates y fit int64 but den_g * y does not
_UNIT_SCALES = st.sampled_from((1, 2**31 + 1, Fraction(1, 3), Fraction(1, 65537),
                                Fraction(5, 1048583), Fraction(1, 2**31 + 1),
                                Fraction(2**31 + 1, 3)))


def _scaled_quaternions(scales, frame=None):
    mats = [linear_combination([a], [c]) for a, c in zip(quaternion_matrices(), (1, *scales))]
    if frame is not None:
        q, q_inv = frame
        mats = [Matrix(4, 4, _naive_matmul(Matrix(4, 4, _naive_matmul(q, a)), q_inv))
                for a in mats]
    return AffinorBasis.of(mats)


@given(st.lists(_UNIT_SCALES, min_size=3, max_size=3), st.one_of(st.none(), _frame(4)))
@example([1, 1, Fraction(1, 65537)], None)
def test_closure_table_matches_the_fraction_route(scales, frame):
    basis = _scaled_quaternions(scales, frame)
    got, want = from_affinors(basis).table._scaled, _fraction_route_table(basis).table._scaled
    assert (got.den, got.bound, got.nums.dtype) == (want.den, want.bound, want.nums.dtype)
    assert np.array_equal(got.nums, want.nums)


def test_closure_table_scales_past_int64_in_python_ints():
    # y fits int64 and den_g * y does not: an int64 product would wrap
    basis = _scaled_quaternions([1, 1, Fraction(1, 65537)])
    solver = linalg.SpanSolver(basis.stacked)
    ys = solver._scaled_coordinates(linalg.pairwise_products(solver.generators, 4))
    assert ys.nums.dtype == np.int64 and solver.generators.den * ys.bound >= 2**63
    assert constants_cube(from_affinors(basis)) == _reference_closure(basis.mats)


def test_coordinates_of_zero_targets_over_a_denominator_past_int64():
    # a zero batch has bound 0, yet den_g * 0 must not be formed in int64
    # when den_g itself does not fit there
    basis = _scaled_quaternions([1, Fraction(1, 2**64), 1])
    solver = linalg.SpanSolver(basis.stacked)
    assert solver.generators.den >= 2**63
    zeros = linalg._view(np.zeros((2, 16), dtype=np.int64), 1)
    view, proved = solver.coordinates(zeros)
    assert proved == [True, True] and view.den == 1 and not view.nums.any()
    assert solver.coefficients(zeros) == [(Fraction(0),) * 4] * 2


@given(st.integers(0, 4).flatmap(lambda n: _matrix(n, n)))
def test_inverse_is_exact_on_fractional_matrices(m):
    assume(det(m) != 0)
    inv = inverse(m)
    assert m @ inv == Matrix.identity(m.rows)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _matrix(n, n), st.integers(0, n - 1), st.lists(_SCALARS, min_size=n, max_size=n))))
def test_inverse_rejects_singular_matrices(case):
    # row ``dup`` is replaced by a combination of the other rows
    m, dup, weights = case
    rows = [list(r) for r in fraction_rows(m)]
    rows[dup] = [sum((w * rows[i][c] for i, w in enumerate(weights) if i != dup), Fraction(0))
                 for c in range(m.cols)]
    with pytest.raises(NotInvertible):
        inverse(Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows)))


# ---------------------------------------------------------------------------
# Product identities: associativity, projectors, Clifford relations and the
# inversion probe, against the same identities written out over Fractions
# ---------------------------------------------------------------------------


# the amount a tamper moves one entry by; zero leaves the input intact
_NUDGE = st.one_of(st.just(Fraction(0)), _SCALARS)


def _failing_operator_pairs(family, c):
    """(j, k) in row-major order with family[j] @ family[k] !=
    sum_s c[j][k][s] * family[s]."""
    n = len(c)
    return tuple((j, k) for j in range(n) for k in range(n)
                 if _naive_matmul(family[j], family[k])
                 != fraction_rows(linear_combination(family, c[j][k])))


def _reference_associativity(c):
    n = len(c)
    c_hat = [Matrix(n, n, tuple(tuple(c[j][i][k] for k in range(n)) for j in range(n)))
             for i in range(n)]
    c_hat_star = [Matrix(n, n, tuple(tuple(c[i][k][j] for k in range(n)) for j in range(n)))
                  for i in range(n)]
    return _failing_operator_pairs(c_hat, c), _failing_operator_pairs(c_hat_star, c)


@st.composite
def _tampered_algebra(draw):
    """A known associative algebra in a random basis that keeps the unity
    first (row 0 of the frame is e_0), with one entry of its table moved
    by a drawn amount."""
    make = draw(st.sampled_from((dual_number_constants, local3_constants,
                                 matrix_algebra_2x2_constants, quaternion_constants)))
    c = constants_cube(make())
    n = len(c)
    rest = draw(st.one_of(_matrix(n - 1, n, _SMALL), _matrix(n - 1, n, st.one_of(_SMALL, _NEAR_2_31))))
    q = (tuple(Fraction(int(j == 0)) for j in range(n)),) + fraction_rows(rest)
    q_inv = _naive_solve(q, fraction_rows(Matrix.identity(n)))
    assume(q_inv is not None)
    # f_i = sum_a q[i][a] e_a, so f_i f_j = sum q[i][a] q[j][b] c[a][b][s] q_inv[s][k] f_k
    terms = [(a, b, s, c[a][b][s]) for a in range(n) for b in range(n) for s in range(n)
             if c[a][b][s]]
    table = [[[sum((q[i][a] * q[j][b] * v * q_inv[s][k] for a, b, s, v in terms), Fraction(0))
               for k in range(n)] for j in range(n)] for i in range(n)]
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    table[i][j][k] += draw(_NUDGE)
    return StructureConstants.exact(table)


@given(_tampered_algebra())
def test_associativity_matches_fraction_identities(sc):
    plain, star = _reference_associativity(constants_cube(sc))
    got = verify_associativity(sc)
    assert (got.violations, got.star_violations) == (plain, star)
    assert got.ok == (not plain and not star)
    assert got.families_agree == (bool(plain) == bool(star))


# ---------------------------------------------------------------------------
# Structure constants: the table's integer view against Fraction loops
# ---------------------------------------------------------------------------


def _reference_unity(c):
    """Unity violations as a loop over Fractions lists them: (0, i, k) before
    (i, 0, k), each (0, 0, k) once."""
    n, violations = len(c), []
    for i in range(n):
        for k in range(n):
            expected = 1 if i == k else 0
            if c[0][i][k] != expected:
                violations.append((0, i, k))
            if c[i][0][k] != expected:
                violations.append((i, 0, k))
    seen = set()
    return tuple(v for v in violations if not (v in seen or seen.add(v)))


@st.composite
def _unity_tampered(draw):
    """A tampered algebra with up to three more entries of e_0 e_i or e_i e_0 moved."""
    sc = draw(_tampered_algebra())
    table = [[list(row) for row in plane] for plane in constants_cube(sc)]
    for _ in range(draw(st.integers(0, 3))):
        i, k = draw(st.integers(0, sc.n - 1)), draw(st.integers(0, sc.n - 1))
        plane, row = (0, i) if draw(st.booleans()) else (i, 0)
        table[plane][row][k] += draw(_SCALARS)
    return StructureConstants.exact(table)


@given(_unity_tampered())
def test_unity_violations_match_the_fraction_loop(sc):
    got = verify_unity(sc)
    assert got.violations == _reference_unity(constants_cube(sc))
    assert got.ok == (not got.violations)


@given(_tampered_algebra(), st.data())
def test_gram_matches_the_fraction_sum(sc, data):
    n, c = sc.n, constants_cube(sc)
    lam = data.draw(st.lists(_SCALARS, min_size=n, max_size=n))
    expected = tuple(tuple(sum((c[i][j][s] * lam[s] for s in range(n)), Fraction(0))
                           for j in range(n)) for i in range(n))
    got = gram(sc, lam)
    assert fraction_rows(got.gram) == expected
    assert got.det == cofactor_det(expected) and got.regular == (got.det != 0)


@given(_tampered_algebra())
@example(StructureConstants.exact([[["1", "1/2"], ["-3/4", 0]], [[0, "5/7"], [1, "2/3"]]]))
def test_table_round_trips_through_json_and_fractions(sc):
    c = constants_cube(sc)
    written = {"n": sc.n, "C": [[[scalar_to_json(v) for v in row] for row in plane] for plane in c]}
    text = json.dumps(sc.to_json(), sort_keys=True)
    assert text == json.dumps(written, sort_keys=True)
    back = constants_from_json(json.loads(text), "<mem>")
    assert back == sc and StructureConstants.exact(c) == sc


def _reference_identification(c, mats):
    """The identification as a loop over the unit functionals e_s: the
    images of e_s, column s of each operator, against the Gram matrix
    [c[i][j][s]] and its transpose."""
    n = len(c)
    families = [linalg.unstack(family, n) for family in (mats.c_hat, mats.c_hat_star)]
    plain = star = True
    for s in range(n):
        g = [[c[i][j][s] for j in range(n)] for i in range(n)]
        images = [[[rows[j][s] for j in range(n)] for rows in map(fraction_rows, family)]
                  for family in families]
        plain = plain and images[0] == [list(col) for col in zip(*g)]
        star = star and images[1] == g
    return {"multiplier_rows_match_gram_transpose": plain, "star_rows_match_gram": star}


@given(_tampered_algebra())
@example(quaternion_constants())
def test_identification_matches_the_unit_vector_loop(sc):
    mats, c = algebra._chat_raw(sc), constants_cube(sc)
    got = frobenius._identification(sc, mats)
    assert got == _reference_identification(c, mats)
    assert got["multiplier_rows_match_gram_transpose"] is True
    swapped = ChatMatrices(mats.c_hat_star, mats.c_hat)
    got = frobenius._identification(sc, swapped)
    assert got == _reference_identification(c, swapped)
    # e_i e_k must have the e_0 coordinate of e_0 e_i for the swap to pass
    if any(c_ik[0] != c[0][i][k] for i, plane in enumerate(c) for k, c_ik in enumerate(plane)):
        assert got["multiplier_rows_match_gram_transpose"] is False


_SPARSE = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)), _SCALARS)


@st.composite
def _projector_candidates(draw):
    """Sparse or fractional matrices, or a complete system in a random
    frame with one entry moved by a drawn amount."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        return [draw(_matrix(m, m, _SPARSE)) for _ in range(n)]
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    m = sum(dims)
    q, _ = draw(_frame(m))
    ps = projectors_from_splitting(Splitting(m, tuple(dims), q))
    mats = list(linalg.unstack(ps.stacked, m))
    t, i, j = draw(st.integers(0, len(mats) - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    rows = [list(row) for row in fraction_rows(mats[t])]
    rows[i][j] += draw(_NUDGE)
    mats[t] = Matrix(m, m, tuple(tuple(row) for row in rows))
    return mats


@given(_projector_candidates())
def test_projector_identities_match_fraction_products(ps):
    n, m = len(ps), ps[0].rows
    expected = [("idempotent", i) for i, p in enumerate(ps)
                if _naive_matmul(p, p) != fraction_rows(p)]
    expected += [("annihilate", i, j) for i in range(n) for j in range(n)
                 if i != j and not is_zero_matrix(Matrix(m, m, _naive_matmul(ps[i], ps[j])))]
    if linear_combination(ps, [1] * n) != Matrix.identity(m):
        expected.append(("sum_to_identity",))
    got = verify_complete_system(ProjectorSystem(linalg.stack(ps), m))
    assert got.violations == tuple(expected)
    assert got.ok == (not expected)


@st.composite
def _framed_splittings(draw):
    """Block sizes, singletons included, and no frame or an invertible one
    of small, near-2**31 or past-int64 entries, with its inverse."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    m = sum(dims)
    ident = fraction_rows(Matrix.identity(m))
    q = draw(st.one_of(st.none(), _small_or_large(m, st.one_of(_NEAR_2_31, _SCALARS))))
    if q is None:
        return dims, None, ident, ident
    q_inv = _naive_solve(fraction_rows(q), ident)
    assume(q_inv is not None)
    return dims, q, fraction_rows(q), q_inv


def _assert_same_view(got: Matrix, want: Matrix):
    g, w = got._scaled, want._scaled
    assert (g.den, g.bound, g.nums.dtype) == (w.den, w.bound, w.nums.dtype)
    assert g.nums.shape == w.nums.shape
    assert np.array_equal(g.nums, w.nums)


@given(_framed_splittings())
def test_batched_projectors_match_fraction_conjugation(case):
    # P_i = Q D_i Q^-1, the sum over block i of Q's columns times Q^-1's rows
    dims, q, qe, qi = case
    m = sum(dims)
    got = linalg.unstack(projectors_from_splitting(Splitting(m, dims, q)).stacked, m)
    start = 0
    for p, size in zip(got, dims):
        block = range(start, start + size)
        want = tuple(tuple(sum((qe[r][k] * qi[k][c] for k in block), Fraction(0))
                           for c in range(m)) for r in range(m))
        _assert_same_view(p, Matrix(m, m, want))
        start += size


@given(st.integers(1, 5).flatmap(lambda n: st.one_of(
    _matrix(n, n, _SPARSE), _matrix(n, n, _SMALL), _matrix(n, n))))
@example(Matrix.exact([[0, 2, 0], [1, 0, 0], [0, 0, -1]]))  # zeros above the diagonal skipped
@example(Matrix.exact([[2**62, 1], [1, 2**62]]))  # D past 2**63
def test_inverse_matches_gauss_jordan(m):
    expected = _naive_solve(fraction_rows(m), fraction_rows(Matrix.identity(m.rows)))
    if expected is None:
        with pytest.raises(NotInvertible):
            inverse(m)
    else:
        _assert_same_view(inverse(m), Matrix(m.rows, m.rows, tuple(map(tuple, expected))))


_STACK_ENTRIES = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2, 2),
                           st.just(linalg._PRIMES[0]), st.integers(2**62 - 4, 2**62 + 4))


def _rank_mod(rows, p: int) -> int:
    """Rank over GF(p) of integer rows, by plain Gaussian elimination."""
    rows = [[v % p for v in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(u - f * v) % p for u, v in zip(rows[i], rows[r])]
        r += 1
    return r


@given(_int_rows(_STACK_ENTRIES, 6))
@example([[0, 1, 0], [0, 0, 2]])  # a zero column
@example([[0, 1, 3], [0, 0, 0]])  # a zero row
@example([[1, 0], [0, 1], [1, 1]])  # more rows than columns
@example([[linalg._PRIMES[0], 0], [0, 1]])  # full rank, but not mod p
def test_modp_full_row_rank_never_overclaims(rows):
    width = len(rows[0]) if rows else 0
    s = linalg._view(np.array(rows, dtype=object).reshape(len(rows), width), 1)
    full = len(_naive_pivots([[Fraction(v) for v in r] for r in rows])) == len(rows)
    verdict = linalg._full_row_rank_modp(s.nums, linalg._PRIMES[0])
    assert type(verdict) is bool and (full or not verdict)
    assert verdict == (_rank_mod(rows, linalg._PRIMES[0]) == len(rows))
    assert has_full_row_rank(s) == full == (rank(Matrix.from_view(s)).rank == len(rows))


@st.composite
def _dense_clifford(draw):
    """A regular Clifford representation in a random frame, so that its
    generators are dense, with one generator entry moved by a drawn amount."""
    s, t = draw(st.sampled_from(((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 3))))
    cb = build_clifford(CliffordSignature(s, t))
    m = cb.basis.m
    q, q_inv = draw(_frame(m))
    mats = [Matrix(m, m, _naive_matmul(Matrix(m, m, _naive_matmul(q, a)), q_inv))
            for a in cb.basis.mats]
    g, i, j = draw(st.integers(1, s + t)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    rows = [list(row) for row in fraction_rows(mats[g])]
    rows[i][j] += draw(_NUDGE)
    mats[g] = Matrix(m, m, tuple(tuple(row) for row in rows))
    try:
        basis = AffinorBasis.of(mats)
    except InvalidBasis:
        assume(False)
    return replace(cb, basis=basis, relations=None)


@given(_dense_clifford())
def test_clifford_fallback_matches_fraction_products(cb):
    sig, m = cb.signature, cb.basis.m
    gens = cb.basis.mats[1:1 + sig.generators]
    expected = []
    for i, g in enumerate(gens):
        want = 1 if i < sig.s else -1
        if _naive_matmul(g, g) != fraction_rows(linear_combination([Matrix.identity(m)], [want])):
            expected.append(("square", i + 1, want))
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            anti = linear_combination([Matrix(m, m, _naive_matmul(gens[i], gens[j])),
                                       Matrix(m, m, _naive_matmul(gens[j], gens[i]))], [1, 1])
            if not is_zero_matrix(anti):
                expected.append(("anticommute", i + 1, j + 1))
    got = verify_clifford_relations(cb)
    assert got.violations == tuple(expected)
    assert got.ok == (not expected)


@st.composite
def _conjugated_span(draw):
    """The identity and sparse matrices, conjugated by a frame whose corner
    is near 2**31, so that span elements take the Python-int path."""
    m = draw(st.integers(2, 4))
    others = draw(st.lists(_matrix(m, m, _SPARSE), min_size=1, max_size=m - 1))
    q, _ = draw(_frame(m))
    rows = [list(row) for row in fraction_rows(q)]
    rows[0][0] = draw(_NEAR_2_31)
    q_inv = _naive_solve(rows, fraction_rows(Matrix.identity(m)))
    assume(q_inv is not None)
    q, q_inv = Matrix(m, m, tuple(map(tuple, rows))), Matrix(m, m, tuple(map(tuple, q_inv)))
    mats = [Matrix.identity(m)] + [
        Matrix(m, m, _naive_matmul(Matrix(m, m, _naive_matmul(q, a)), q_inv)) for a in others]
    try:
        return AffinorBasis.of(mats)
    except InvalidBasis:
        assume(False)


@given(_conjugated_span(), st.integers(0, 3), st.integers(1, 40))
def test_inversion_probe_finds_the_first_singular_candidate(basis, seed, trials):
    # up to 45 samples: batches of 1, 2, 4, 8, 16 and 32 decide them
    candidates = itertools.chain(
        hullrank._deterministic_candidates(basis.n),
        hullrank._random_candidates(random.Random(seed), basis.n, trials),
    )
    expected, tried = None, 0
    for coeffs in candidates:
        tried += 1
        if cofactor_det(fraction_rows(linear_combination(basis.mats, coeffs))) == 0:
            expected = coeffs
            break
    got = inversion_probe(basis, trials, seed)
    if expected is None:
        assert got == AllSampledInvertible(samples=tried, implied_weak_rank=basis.n)
    else:
        assert got == CounterexampleFound(coeffs=expected, det=Fraction(0))


def _shift(m: int, k: int) -> Matrix:
    """The k-th power of the nilpotent Jordan block of size m."""
    return Matrix.exact([[int(j == i + k) for j in range(m)] for i in range(m)])


def _doubled(*mats):
    return tuple(block_double(Matrix.exact(a)) for a in mats)


_E2 = [[1, 0], [0, 1]]
_ROOT_TWO = [[0, 2], [1, 0]]  # M^2 = 2E: no rational M + c E is singular

# Closed spans on R^2 and R^4, and whether each is a division algebra.
_CLOSED_SPANS = (
    ((Matrix.identity(2),), True),
    ((Matrix.identity(2), rotation_block(2)), True),
    # E + J is not trace-free: the trace form is read on the trace-zero part
    ((Matrix.identity(4), linear_combination([Matrix.identity(4), rotation_block(4)], [1, 1])),
     True),
    (quaternion_matrices(), True),
    # dual numbers, and truncated polynomials on a Jordan block
    ((Matrix.identity(2), _shift(2, 1)), False),
    (_doubled(_E2, [[0, 1], [0, 0]]), False),
    (tuple(_shift(3, k) for k in range(3)), False),
    (tuple(_shift(4, k) for k in range(4)), False),
    # M2(R) and C + C, whose fixed candidates are all invertible
    (_doubled(_E2, [[2, 0], [0, -2]], [[0, 1], [1, 0]], [[0, -1], [1, 0]]), False),
    (tuple(Matrix.exact(a) for a in (
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, -2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]],
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])), False),
    ((Matrix.identity(2), Matrix.exact(_ROOT_TWO)), False),
    (_doubled(_E2, _ROOT_TWO), False),
)


@st.composite
def _framed_closed_span(draw):
    """A closed span of ``_CLOSED_SPANS`` in a random frame, and whether it
    is a division algebra."""
    mats, division = draw(st.sampled_from(_CLOSED_SPANS))
    m = mats[0].rows
    q, q_inv = draw(_frame(m))
    return AffinorBasis.of([Matrix(m, m, _naive_matmul(Matrix(m, m, _naive_matmul(q, a)), q_inv))
                            for a in mats]), division


@settings(max_examples=100)
@given(_framed_closed_span(), st.integers(0, 3), st.integers(1, 40))
def test_inversion_probe_decides_division_algebras_as_sampling_does(span, seed, trials):
    basis, division = span
    assert hullrank._is_division_algebra(basis) == division
    # the probe must end as the test above's one-at-a-time cofactor search
    # over every candidate ends, also where it draws no random candidate
    test_inversion_probe_finds_the_first_singular_candidate.hypothesis.inner_test(
        basis, seed, trials)


def _draws(rng, m, trials):
    """The seeded random candidates, written out: entries in [-b, b], with
    b = 4 doubled every 8 draws, and the zero vector drawn again."""
    for k in range(trials):
        vec = (0,) * m
        while not any(vec):
            vec = tuple(rng.randint(-(4 << k // 8), 4 << k // 8) for _ in range(m))
        yield vec


def _first_of(candidates, dim, target):
    """The first candidate whose ``dim`` reaches ``target``, or None, then
    the number tried and the best dimension before it."""
    tried, best = 0, 0
    for c in candidates:
        tried += 1
        d = dim(c)
        if d == target:
            return c, tried, best
        best = max(best, d)
    return None, tried, best


def _weak_one_at_a_time(basis, trials, seed):
    m = basis.m
    unit = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    return _first_of(itertools.chain(unit, [(1,) * m], _draws(random.Random(seed), m, trials)),
                     lambda x: hullrank.hull(basis, x).dim, basis.n)


def _pairs_one_at_a_time(basis, witness, trials, seed):
    m, rng = basis.m, random.Random(seed)
    unit = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    return _first_of(itertools.chain(
        ((unit[i], unit[j]) for i in range(m) for j in range(i + 1, m)),
        ((witness, unit[i]) for i in range(m)),
        zip(_draws(rng, m, trials), _draws(rng, m, trials)),
    ), lambda xy: hullrank.pair_span_dim(basis, *xy), 2 * basis.n)


@st.composite
def _search_span(draw):
    """The identity with disjoint diagonal block projectors, a closed span
    (a block of size 1 leaves pairs short of 2n), or with sparse matrices,
    rarely closed, in a random frame."""
    m = draw(st.integers(2, 6))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=m - 1)))
        others = [Matrix.exact([[int(i == j and lo <= i < hi) for j in range(m)] for i in range(m)])
                  for lo, hi in zip([0] + cuts, cuts)]
    else:
        others = draw(st.lists(_matrix(m, m, _SPARSE), min_size=1, max_size=m // 2))
    q, q_inv = draw(_frame(m))
    mats = [Matrix.identity(m)] + [
        Matrix(m, m, _naive_matmul(Matrix(m, m, _naive_matmul(q, a)), q_inv)) for a in others]
    try:
        return AffinorBasis.of(mats)
    except InvalidBasis:
        assume(False)


_RANK_ONE_PROJECTOR_SPAN = AffinorBasis.of((
    Matrix.identity(6), Matrix.exact([[int(i == j == 0) for j in range(6)] for i in range(6)])))


@given(_search_span(), st.integers(1, 40), st.integers(0, 3))
@example(_RANK_ONE_PROJECTOR_SPAN, 40, 1)
@example(AffinorBasis(chat(local3_constants()).c_hat, 3), 40, 2)  # no witness, proved
@example(AffinorBasis(chat(local_constants(7)).c_hat, 7), 33, 0)  # no witness, unproved
def test_batched_searches_match_one_at_a_time(basis, trials, seed):
    # batch boundaries fall after candidates 1, 3, 7, 15, 31 and 63; the
    # first hit, its pivots, trials and the best dimension must not move
    x, tried, best = _weak_one_at_a_time(basis, trials, seed)
    got = weak_rank_witness(basis, trials, seed)
    assert got.trials == tried
    if x is not None:
        pivots = hullrank.hull(basis, x).rank_result
        assert (got.witness, got.pivot_rows, got.pivot_cols) == (
            x, pivots.pivot_rows, pivots.pivot_cols)
    elif isinstance(got, NoWitnessFound):
        assert got.max_dim_seen == best
        assert got.definitive == (hullrank._symbolic_minor_scan(basis)[0] == "vanish")
    else:  # a witness read off a nonzero symbolic minor
        assert hullrank._symbolic_minor_scan(basis)[0] == "witness"
    generic = certify_generic_rank(basis, trials, seed)
    if isinstance(generic, Inapplicable) or isinstance(got, NoWitnessFound):
        assert isinstance(generic, Inapplicable) or generic == got
        return
    pair, pair_tried, pair_best = _pairs_one_at_a_time(basis, got.witness, trials, seed)
    if pair is not None:
        assert generic.pair == (*pair, 2 * basis.n)
    else:
        assert generic == NoWitnessFound(
            target_rank=2 * basis.n, stage="pair", max_dim_seen=pair_best,
            trials=pair_tried, definitive=False, note=generic.note)


@st.composite
def _basis_and_pair(draw):
    """Identity plus up to m - 1 random matrices of mixed magnitude and
    denominator, with two vectors of the same kind."""
    m = draw(st.integers(1, 4))
    others = draw(st.lists(_matrix(m, m), max_size=m - 1))
    x, y = (draw(st.lists(_SCALARS, min_size=m, max_size=m)) for _ in range(2))
    try:
        basis = AffinorBasis.of([Matrix.identity(m)] + others)
    except InvalidBasis:
        assume(False)
    return basis, tuple(x), tuple(y)


@given(_basis_and_pair())
def test_hull_and_pair_rows_match_per_matrix_apply(case):
    # the stacked product gives the same lowest-terms view as the rows built
    # one apply at a time, so elimination sees the same integers
    basis, x, y = case
    rows = [a.apply(x) for a in basis.mats]
    pair = rows + [a.apply(y) for a in basis.mats]
    h = hullrank.hull(basis, x)
    assert h.matrix == Matrix.exact(rows)
    assert fraction_rows(h.matrix) == tuple(rows)
    assert h.rank_result == rank(Matrix.exact(rows))
    assert hullrank._images(basis.stacked, basis.m, [x, y]) == Matrix.exact(pair)
    assert hullrank.pair_span_dim(basis, x, y) == rank(Matrix.exact(pair)).rank


# ---------------------------------------------------------------------------
# The integer certificate verifier against the Fraction reference
# ---------------------------------------------------------------------------


_INTEGERS = st.one_of(st.integers(-3, 3), st.integers(2**31 - 4, 2**31 + 4),
                      st.integers(-(2**31) - 4, -(2**31) + 4))


@st.composite
def _low_rank_rows(draw):
    """Integer rows a @ b through an inner dimension of at most 3, so most
    of them are rank deficient by more than repeated or zero rows."""
    k, inner, cols = draw(st.integers(1, 6)), draw(st.integers(0, 3)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(_INTEGERS, min_size=inner, max_size=inner),
                      min_size=k, max_size=k))
    b = draw(st.lists(st.lists(_INTEGERS, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * cols
            for row in a]


@given(_low_rank_rows())
def test_verifier_rank_matches_fraction_elimination(rows):
    assert _fresh_rank(rows) == len(_naive_pivots([[Fraction(v) for v in row] for row in rows]))


def _regular_local(k: int) -> tuple[Matrix, ...]:
    """Left multiplications of unity plus k - 1 square-zero elements, on two copies."""
    mats = [Matrix.identity(k)] + [
        Matrix.exact([[int((r, c) == (a, 0)) for c in range(k)] for r in range(k)])
        for a in range(1, k)]
    return tuple(block_double(a) for a in mats)


# generic certificates with m = 2n: the complex numbers, the dual numbers,
# local3 and the quaternions, each acting on two copies of itself
_CERTIFIED_SPANS = (
    (Matrix.identity(4), rotation_block(4)),
    _regular_local(2),
    _regular_local(3),
    tuple(block_double(a) for a in quaternion_matrices()),
)

_TAMPER_SITES = ("intact", "basis", "witness", "closure", "pair", "pivots", "collapsed")

# a scalar as a report writes it, or as an unreduced fraction string
_JSON_SCALARS = _SCALARS.flatmap(lambda v: st.sampled_from(
    (scalar_to_json(v), f"{3 * v.numerator}/{3 * v.denominator}")))


@st.composite
def _tampered_certificate(draw):
    """A generic certificate of a rescaled span in a random frame (small
    rational entries, or some near 2**31): intact, with one entry of its
    basis, witness, closure table, pair or pivots replaced, or with the
    witness zeroed or the pair collapsed to y = x (rank drops)."""
    span = draw(st.sampled_from(_CERTIFIED_SPANS))
    m, n = span[0].rows, len(span)
    q, q_inv = draw(_frame(m))
    # rescaling all but the unity makes the closure constants fractional
    scales = [Fraction(1)] + [draw(_SMALL.filter(bool)) for _ in span[1:]]
    mats = tuple(Matrix(m, m, _naive_matmul(Matrix(m, m, _naive_matmul(q, a)), q_inv))
                 for a in span)
    mats = tuple(linear_combination([a], [c]) for a, c in zip(mats, scales))
    cert = certify_generic_rank(AffinorBasis.of(mats))
    assert isinstance(cert, RankCertificate) and cert.kind == "generic"
    cert = json.loads(json.dumps(cert.to_json()))
    site = draw(st.sampled_from(_TAMPER_SITES))
    index = st.integers(0, m - 1)
    if site == "basis":
        cert["basis"] = densify(cert["basis"])  # the verifier reads both forms
        k, r, s = draw(st.integers(0, n - 1)), draw(index), draw(index)
        cert["basis"]["mats"][k]["entries"][r][s] = draw(_JSON_SCALARS)
    elif site == "witness":
        cert["witness"][draw(index)] = draw(_JSON_SCALARS)
    elif site == "closure":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        cert["closure"]["C"][i][j][k] = draw(_JSON_SCALARS)
    elif site == "pair":
        if draw(st.booleans()):
            cert["pair"][draw(st.sampled_from("xy"))][draw(index)] = draw(_JSON_SCALARS)
        else:
            cert["pair"]["dim"] = draw(st.integers(0, 2 * n))
    elif site == "pivots":
        key = draw(st.sampled_from(("pivot_rows", "pivot_cols")))
        cert[key][draw(st.integers(0, n - 1))] = draw(st.integers(-1, m))
    elif site == "collapsed":
        if draw(st.booleans()):
            cert["witness"] = [0] * m
        else:
            cert["pair"]["y"] = list(cert["pair"]["x"])
    return site, cert


@settings(max_examples=100)
@given(_tampered_certificate())
def test_integer_verifier_matches_fraction_reference(case):
    site, cert = case
    expected = reference_verify_certificate(cert)
    assert _verify_certificate_dict(cert) == expected
    if site == "intact":
        assert expected == (True, "ok")


@st.composite
def _tampered_clifford_certificate(draw):
    """The certificate of a Clifford module of at most four generators, so
    that the oracle's Fraction products stay small, its basis in generator
    form: intact, with its witness zeroed, or with one entry of its witness,
    pivots or a generator replaced (a generator's entry may be fractional,
    which the integer verifier's rows carry as a positive scale)."""
    k = draw(st.integers(1, 4))
    s = draw(st.integers(0, k))
    cb = build_clifford(CliffordSignature(s, k - s))
    cert = json.loads(json.dumps(clifford_rank_theorem_check(cb).to_json()))
    m = 1 << k
    index = st.integers(0, m - 1)
    site = draw(st.sampled_from(("intact", "zeroed", "witness", "pivots", "generator")))
    if site == "zeroed":
        cert["witness"] = [0] * m
    elif site == "witness":
        cert["witness"][draw(index)] = draw(_JSON_SCALARS)
    elif site == "pivots":
        key = draw(st.sampled_from(("pivot_rows", "pivot_cols")))
        cert[key][draw(index)] = draw(st.integers(-1, m))
    elif site == "generator":
        g = draw(st.integers(0, k - 1))
        gen = cert["basis"]["generators"][g] = densify(cert["basis"]["generators"][g])
        gen["entries"][draw(index)][draw(index)] = draw(_JSON_SCALARS)
    return site, cert


@settings(max_examples=40, deadline=None)
@given(_tampered_clifford_certificate())
def test_integer_verifier_matches_fraction_reference_on_generator_form(case):
    site, cert = case
    expected = reference_verify_certificate(cert)
    assert _verify_certificate_dict(cert) == expected
    if site == "intact":
        assert expected == (True, "ok")


# exact scalars as a file may hold them: "p/q" with ASCII or other digits,
# signs, spaces, underscores, decimals, exponents, zero or leading-zero
# denominators, strings either side of MAX_DIGITS, and JSON's other values
_DIGIT_TEXT = st.text(alphabet="0123456789", min_size=1, max_size=6)
_SCALAR_TEXT = st.one_of(
    st.builds("{}{}/{}".format, st.sampled_from(("", "-", "+", " ", "--", "\u2212")),
              _DIGIT_TEXT, _DIGIT_TEXT),
    st.text(alphabet="0123456789/-+ _.eE\u0663\u0966\u00b2", max_size=10),
    st.sampled_from(("1/0", "0/00", "-0/1", "007/003", "1_000/7", "1/2 ", "\u0663/\u0664",
                     "1.5", "-2.5e-3", "3E2", "1e8601", "/3", "3/", "")),
    st.builds(lambda size, slash: "7" * (size - 2 * slash) + "/3" * slash,
              st.sampled_from((MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1, MAX_DIGITS + 2)),
              st.booleans()),
)
_JSON_SCALARS_ANY = st.one_of(_SCALAR_TEXT, st.integers(), st.booleans(), st.floats(),
                              st.none())


def _examples(values):
    """``@example(v)`` for each of ``values``."""
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test
    return decorate


def _read_or_message(reader, value):
    try:
        return reader(value, "scalars.json", "x")
    except InputFormatError as exc:
        return str(exc)


_READER_EXAMPLES = (
    "1/0", "0/00", "007/003", "-3/4", "+3/4", " 3/4", "3_0/4", "\u0663/\u0664", "1.5", "1e3",
    "7" * (MAX_DIGITS - 2) + "/3", "7" * (MAX_DIGITS - 1) + "/3", "7" * MAX_DIGITS,
    "7" * (MAX_DIGITS + 1), 10 ** 30, -5, True, False, 1.0, None)


@given(_JSON_SCALARS_ANY)
@_examples(_READER_EXAMPLES)
def test_pair_reader_matches_the_fraction_reader(value):
    want = _read_or_message(reference_exact_scalar, value)
    pair = _read_or_message(exact_pair_from_json, value)
    scalar = _read_or_message(exact_scalar_from_json, value)
    if isinstance(want, str):
        assert pair == scalar == want
    else:
        assert pair[1] > 0 and Fraction(*pair) == want
        assert type(scalar) is Fraction and scalar == want


def test_pair_reader_under_a_lowered_digit_limit():
    # int() then refuses what the "p/q" split would take, and Fraction says why
    value = "7" * 700 + "/3"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = _read_or_message(exact_pair_from_json, value)
        want = _read_or_message(reference_exact_scalar, value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want and "not a valid rational" in got
