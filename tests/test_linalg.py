"""Exact matrix kernels."""

import ast
import copy
import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import affinor_rank
from affinor_rank import (
    CliffordSignature,
    Matrix,
    algebra,
    build_clifford,
    det,
    inverse,
    linalg,
    rank,
)
from affinor_rank.errors import InvalidBasis, NotInvertible, NotSquare, ShapeMismatch
from affinor_rank.linalg import SpanSolver, has_full_row_rank, stack
from affinor_rank.multipoly import Poly, determinant

from conftest import (
    brute_force_rank,
    cofactor_det,
    fraction_rows,
    linear_combination,
    poly_variable,
    quaternion_matrices,
    random_exact_matrix,
)


def test_rank_identity():
    r = rank(Matrix.identity(3))
    assert r.rank == 3
    assert r.pivot_rows == (0, 1, 2)
    assert r.pivot_cols == (0, 1, 2)


def test_rank_proportional_rows():
    assert rank(Matrix.exact([[1, 2], [2, 4]])).rank == 1


def test_rank_quaternion_hull_at_unit():
    # rows are the images of e1 under 1, i, j, k; brute-force minor
    # enumeration is the oracle for the expected full rank
    e, i, j, k = quaternion_matrices()
    x = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    rows = [m.apply(x) for m in (e, i, j, k)]
    assert brute_force_rank(rows) == 4
    assert rank(Matrix.exact(rows)).rank == 4


def test_rank_rational_entries():
    m = Matrix.exact([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(m).rank == 1
    m2 = Matrix.exact([["1/2", "1/3"], ["1/4", "1/5"]])
    assert rank(m2).rank == 2


def test_exact_rank_matches_brute_force(rng):
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_exact_matrix(rng, rows, cols, bound=3)
        assert rank(m).rank == brute_force_rank(fraction_rows(m))


def test_rank_permutation_invariance(rng):
    for _ in range(40):
        m = random_exact_matrix(rng, 4, 5)
        rperm = list(range(4))
        cperm = list(range(5))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        rows = fraction_rows(m)
        permuted = Matrix.exact([[rows[i][j] for j in cperm] for i in rperm])
        assert rank(permuted).rank == rank(m).rank


def test_rank_transpose_invariance(rng):
    for _ in range(40):
        m = random_exact_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m).rank == rank(Matrix.exact(zip(*fraction_rows(m)))).rank


def test_exact_rank_equals_float_rank_on_integer_matrices():
    # seeded property run, at least 1000 cases, mixing full-rank draws with
    # forced low-rank products
    rng = random.Random(7)
    cases = 0
    while cases < 1000:
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        if cases % 2 == 0:
            m = random_exact_matrix(rng, rows, cols, bound=9)
        else:
            inner = rng.randint(1, min(rows, cols))
            a = [[rng.randint(-1, 1) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
            m = Matrix.exact(a) @ Matrix.exact(b)
        exact = rank(m).rank
        floats = int(np.linalg.matrix_rank(m.to_ndarray()))
        assert exact == floats, f"case {cases}: exact {exact} vs float {floats}"
        cases += 1


def test_pivot_minor_is_nonsingular(rng):
    for _ in range(60):
        m = random_exact_matrix(rng, rng.randint(2, 5), rng.randint(2, 5), bound=4)
        res = rank(m)
        assert len(res.pivot_rows) == res.rank == len(res.pivot_cols)
        if res.rank:
            rows = fraction_rows(m)
            minor = [[rows[i][j] for j in res.pivot_cols] for i in res.pivot_rows]
            assert cofactor_det(minor) != 0


def test_exact_entries_reject_floats():
    with pytest.raises(TypeError):
        Matrix.exact([[0.5]])


@pytest.mark.parametrize("value", [True, 0.5, 1.0, "1/2", None], ids=repr)
def test_constructor_takes_only_ints_and_fractions(value):
    # a bool would pass as 1 and a float fail on its missing denominator
    with pytest.raises(TypeError):
        Matrix(1, 2, [[1, value]])


def test_empty_matrices_keep_their_shape():
    assert Matrix(0, 3, ()).to_ndarray().shape == (0, 3)
    assert Matrix(2, 0, ((), ())).to_ndarray().shape == (2, 0)


def test_repr_shows_entries_of_a_sparse_written_matrix():
    m = linear_combination([Matrix.identity(8)], [Fraction(1, 2)])
    assert "nonzeros" in m.to_json()
    entries = [["1/2" if i == j else 0 for j in range(8)] for i in range(8)]
    assert repr(m) == f"Matrix(rows=8, cols=8, entries={entries!r})"


# ---------------------------------------------------------------------------
# SpanSolver
# ---------------------------------------------------------------------------


def test_solve_in_span_identity_target():
    e = Matrix.identity(2)
    target = linear_combination([e], [5])
    assert SpanSolver(stack([e])).coefficients(stack([target])) == [(Fraction(5),)]


def test_solve_in_span_rotation_square():
    # F is the quarter turn; F @ F = -E checked entrywise is the oracle
    e = Matrix.identity(2)
    f = Matrix.exact([[0, -1], [1, 0]])
    ff = f @ f
    assert ff == linear_combination([e], [-1])
    coeffs = SpanSolver(stack([e, f])).coefficients(stack([ff]))
    assert coeffs == [(Fraction(-1), Fraction(0))]


def test_solve_in_span_infeasible():
    e = Matrix.identity(3)
    p = Matrix.exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    target = Matrix.exact([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    # a batch answers each target on its own
    half_p = linear_combination([p], ["1/2"])
    assert SpanSolver(stack([e, p])).coefficients(stack([target, e, half_p])) == [
        None, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1, 2)),
    ]


def test_solve_in_span_shape_checks():
    e2, e3 = Matrix.identity(2), Matrix.identity(3)
    with pytest.raises(ShapeMismatch):
        SpanSolver(stack([e2])).coefficients(stack([e3]))
    with pytest.raises(InvalidBasis):
        SpanSolver(stack([e2, linear_combination([e2], [3])]))


def test_span_solver_residual():
    e = Matrix.identity(2)
    solver = SpanSolver(stack([e]))
    targets = stack([Matrix.exact([[1, 1], [0, 1]])])
    assert solver.coefficients(targets) == [None]
    assert solver.residual_sq(targets, 0) == 1


def test_span_solver_residual_is_not_the_distance():
    # diag(1, 0) agrees with E on the pivot column (entry 0, 0), so the
    # residual is |diag(1, 0) - E|^2 = 1; the orthogonal projection onto
    # the span is E/2, at squared distance 1/2
    solver = SpanSolver(stack([Matrix.identity(2)]))
    targets = stack([Matrix.exact([[1, 0], [0, 0]])])
    assert solver.coefficients(targets) == [None]
    assert solver.residual_sq(targets, 0) == 1


# ---------------------------------------------------------------------------
# invertibility / determinant / inverse
# ---------------------------------------------------------------------------


def test_invertible_basic():
    assert det(Matrix.identity(3)) != 0
    assert det(Matrix.exact([[1, 0], [0, 0]])) == 0
    with pytest.raises(NotSquare):
        det(Matrix.exact([[1, 0]]))


def test_generic_quaternion_element_is_invertible():
    # symbolic oracle: det(aE + bI + cJ + dK) expands to (a^2+b^2+c^2+d^2)^2
    e, i, j, k = quaternion_matrices()
    mats = (e, i, j, k)
    entries = []
    for r in range(4):
        row = []
        for c in range(4):
            terms = {}
            for v, mat in enumerate(map(fraction_rows, mats)):
                coeff = mat[r][c]
                if coeff != 0:
                    mono = tuple(1 if t == v else 0 for t in range(4))
                    terms[mono] = Fraction(coeff)
            row.append(Poly(4, terms))
        entries.append(row)
    sym_det = determinant(entries)
    norm = Poly(4)
    for v in range(4):
        norm = norm + poly_variable(4, v) * poly_variable(4, v)
    expected = norm * norm
    assert sym_det.terms == expected.terms

    rng = random.Random(3)
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(4)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        element = linear_combination(mats, coeffs)
        assert det(element) != 0


def test_det_matches_cofactor_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_exact_matrix(rng, n, n, bound=5)
        assert det(m) == cofactor_det([list(r) for r in fraction_rows(m)])


def test_det_rational_scaling():
    m = Matrix.exact([["1/2", 0], [0, "1/3"]])
    assert det(m) == Fraction(1, 6)


def test_inverse_round_trip(rng):
    ident = Matrix.identity(3)
    found = 0
    while found < 20:
        m = random_exact_matrix(rng, 3, 3, bound=4)
        if det(m) == 0:
            continue
        found += 1
        assert m @ inverse(m) == ident
    with pytest.raises(NotInvertible):
        inverse(Matrix.exact([[1, 1], [1, 1]]))


def test_det_sign_and_degenerate_shapes():
    assert det(Matrix.exact([[0, 1], [1, 0]])) == -1
    assert det(Matrix.exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert det(Matrix.exact([["1/2", "1/3"], ["1/4", "1/6"]])) == 0
    assert det(Matrix.exact([[0, 1], [0, 2]])) == 0
    assert det(Matrix.identity(0)) == 1


def test_inverse_rows_are_span_coefficients(rng):
    # row j of inverse(m) expresses the unit row e_j over the rows of m, so
    # the span solver on the rows of m must reproduce the inverse
    found = 0
    while found < 20:
        m = random_exact_matrix(rng, 4, 4, bound=3)
        if det(m) == 0:
            continue
        found += 1
        solver = SpanSolver(stack([Matrix.exact([row]) for row in fraction_rows(m)]))
        units = stack([Matrix.exact([row]) for row in fraction_rows(Matrix.identity(4))])
        assert solver.coefficients(units) == list(fraction_rows(inverse(m)))


def test_has_full_row_rank_agrees_with_rank(rng):
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, 7)
        m = random_exact_matrix(rng, rows, cols, bound=6)
        rows_as_matrices = [Matrix.exact([row]) for row in fraction_rows(m)]
        assert has_full_row_rank(stack(rows_as_matrices)) == (rank(m).rank == rows)


def test_rank_drop_mod_p_falls_back_after_one_prime(monkeypatch):
    # a genuinely dependent set drops rank modulo every prime; the first
    # drop must go straight to exact elimination
    calls = []
    modp = linalg._full_row_rank_modp

    def counting(rows, p):
        calls.append(p)
        return modp(rows, p)

    monkeypatch.setattr(linalg, "_full_row_rank_modp", counting)
    e = Matrix.identity(3)
    assert has_full_row_rank(stack([e, linear_combination([e], [3])])) is False
    assert calls == [linalg._PRIMES[0]]
    dependent = stack([e, linear_combination([e], [3])]).nums
    assert modp(dependent, linalg._PRIMES[0]) is False


def test_permutation_matrices_are_not_taken_for_independent():
    # distinct 0/1 matrices with one 1 per row and column, yet the six 3 x 3
    # permutation matrices span only 5 dimensions (Birkhoff): supports that
    # overlap must go to elimination
    perms = [Matrix.exact([[int(p[r] == c) for c in range(3)] for r in range(3)])
             for p in itertools.permutations(range(3))]
    assert has_full_row_rank(stack(perms)) is False
    assert has_full_row_rank(stack(perms[:5])) is True


def test_disjoint_supports_skip_elimination(monkeypatch):
    # supports are disjoint here too, but a zero row is never independent
    zero_row = [Matrix.exact([[0, 0], [0, 0]]), Matrix.exact([[0, 5], [0, 0]])]
    assert has_full_row_rank(stack(zero_row)) is False

    def refuse(rows, p):
        raise AssertionError("eliminated a stack with disjoint supports")

    monkeypatch.setattr(linalg, "_full_row_rank_modp", refuse)
    blades = build_clifford(CliffordSignature(3, 3)).basis
    assert has_full_row_rank(blades.stacked) is True


def test_matrix_stores_only_its_view():
    m = Matrix.exact([[1, "1/3"], [2**70, 0]])
    assert not hasattr(m, "__dict__")
    with pytest.raises(AttributeError):
        m.rows = 3
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and hash(copied) == hash(m)


def _attribute_readers(attr: str, owner: Optional[str]) -> list[str]:
    """Where a package module other than ``owner`` reads an attribute ``attr``."""
    readers = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == owner:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == attr]
    return readers


def test_only_linalg_makes_objects_past_their_constructor():
    # a basis, an operator family and a projector system are built by their
    # constructors from a stack; only Matrix.from_view skips one, and no
    # module seeds a cached attribute through __dict__
    assert _attribute_readers("__dict__", "linalg.py") == []
    makers = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name != "linalg.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            makers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "__new__"
                       and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert makers == []


def test_only_linalg_reads_matrix_entries():
    # a matrix is its integer view: the Fraction copy ``entries`` and the
    # matrix arithmetic nothing ran are gone, and no package module reads an
    # attribute ``entries`` off an object
    assert not {"entries", "scale", "transpose"} & set(dir(Matrix))
    assert not hasattr(linalg.RankResult, "to_json")
    assert _attribute_readers("entries", None) == []


def test_only_algebra_reads_structure_constants_as_fractions():
    # structure constants are their table's integer view: the nested
    # Fractions ``c`` and the Fraction algebra product are gone, and no
    # package module reads an attribute ``c`` off an object
    assert not hasattr(algebra.StructureConstants, "c")
    for name in ("AlgebraElement", "multiply"):
        assert not hasattr(algebra, name) and not hasattr(affinor_rank, name)
    assert _attribute_readers("c", None) == []
