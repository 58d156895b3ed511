"""Structure constants, operator matrices and span closure."""

from fractions import Fraction

import pytest

from affinor_rank import (
    AffinorBasis,
    Matrix,
    StructureConstants,
    chat,
    from_affinors,
    verify_associativity,
    verify_unity,
)
from affinor_rank import algebra, hullrank, linalg
from affinor_rank.errors import InvalidAlgebra, NotClosed
from affinor_rank.linalg import SpanSolver, stack, unstack

from conftest import (
    complex_constants,
    constants_cube,
    cross_product_with_unity_constants,
    dual_number_constants,
    fraction_rows,
    is_zero_matrix,
    linear_combination,
    local3_constants,
    multiply,
    quaternion_constants,
    quaternion_matrices,
    rotation_block,
)


def test_verify_unity_dual_numbers():
    assert verify_unity(dual_number_constants()).ok


def test_verify_unity_broken_row():
    c = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]  # 1*x row zeroed
    sc = StructureConstants.exact(c)
    result = verify_unity(sc)
    assert not result.ok
    assert (0, 1, 1) in result.violations


def test_verify_unity_quaternions():
    assert verify_unity(quaternion_constants()).ok


def test_associativity_quaternions_with_triple_oracle():
    sc = quaternion_constants()
    # oracle: full triple enumeration through multiply, no operator matrices
    units = [[1 if t == v else 0 for t in range(4)] for v in range(4)]
    for a in units:
        for b in units:
            for c in units:
                lhs = multiply(sc, multiply(sc, a, b), c)
                rhs = multiply(sc, a, multiply(sc, b, c))
                assert lhs == rhs
    assert verify_associativity(sc).ok


def test_associativity_rejects_cross_product_algebra():
    sc = cross_product_with_unity_constants()
    # oracle: (i x i) x j = 0 but i x (i x j) = i x k = -j
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    assert multiply(sc, multiply(sc, i, i), j) != multiply(sc, i, multiply(sc, i, j))
    result = verify_associativity(sc)
    assert not result.ok
    assert result.families_agree


def test_associativity_trivial_algebra():
    sc = StructureConstants.exact([[[1]]])
    assert verify_associativity(sc).ok


def test_chat_orientation_pinned_by_complex_numbers():
    # Row index is the left factor.  Over (1, i): row 1 of the second
    # operator matrix holds the coefficients of 1*i = i, row 2 those of
    # i*i = -1, so the matrix is [[0, 1], [-1, 0]].  Its starred partner is
    # the classical multiplication-by-i matrix [[0, -1], [1, 0]].
    mats = chat(complex_constants())
    c_hat, c_hat_star = unstack(mats.c_hat, 2), unstack(mats.c_hat_star, 2)
    assert c_hat[1] == Matrix.exact([[0, 1], [-1, 0]])
    assert c_hat_star[1] == Matrix.exact([[0, -1], [1, 0]])


def test_chat_dual_numbers():
    c_hat = unstack(chat(dual_number_constants()).c_hat, 2)
    assert c_hat[1] == Matrix.exact([[0, 1], [0, 0]])
    assert c_hat[0] == Matrix.identity(2)


def test_chat_trivial():
    c_hat = unstack(chat(StructureConstants.exact([[[1]]])).c_hat, 1)
    assert c_hat[0] == Matrix.identity(1)


def test_chat_satisfies_operator_identities_for_quaternions():
    sc = quaternion_constants()
    n, c = sc.n, constants_cube(sc)
    c_hat = unstack(chat(sc).c_hat, n)
    for j in range(n):
        for k in range(n):
            lhs = c_hat[j] @ c_hat[k]
            rhs = linear_combination(c_hat, c[j][k])
            assert lhs == rhs


def test_chat_round_trip_recovers_constants():
    for sc in (quaternion_constants(), dual_number_constants(), local3_constants()):
        mats, c = chat(sc), constants_cube(sc)
        c_hat = [fraction_rows(m) for m in unstack(mats.c_hat, sc.n)]
        c_hat_star = [fraction_rows(m) for m in unstack(mats.c_hat_star, sc.n)]
        for i in range(sc.n):
            for j in range(sc.n):
                for k in range(sc.n):
                    assert c_hat[i][j][k] == c[j][i][k]
                    assert c_hat_star[i][j][k] == c[i][k][j]


def test_chat_requires_unity():
    c = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(InvalidAlgebra):
        chat(StructureConstants.exact(c))


def test_multiply_unity_and_nilpotent():
    dual = dual_number_constants()
    assert multiply(dual, (1, 0), (3, 7)) == (3, 7)
    assert multiply(dual, (0, 1), (0, 1)) == (0, 0)


def test_multiply_quaternion_table():
    sc = quaternion_constants()
    i, j = (0, 1, 0, 0), (0, 0, 1, 0)
    assert multiply(sc, i, j) == (0, 0, 0, 1)
    assert multiply(sc, j, i) == (0, 0, 0, -1)


# ---------------------------------------------------------------------------
# from_affinors
# ---------------------------------------------------------------------------


def test_from_affinors_complex_structure():
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    sc = from_affinors(basis)
    assert sc == complex_constants()


def test_from_affinors_idempotent():
    p = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    basis = AffinorBasis.of((Matrix.identity(4), p))
    sc = from_affinors(basis)
    # P * P = P, checked entrywise, is the oracle
    assert p @ p == p
    assert constants_cube(sc)[1][1] == (Fraction(0), Fraction(1))


def test_from_affinors_not_closed_for_nilpotent_order3():
    n = Matrix.exact(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    basis = AffinorBasis.of((Matrix.identity(4), n))
    # oracle: N @ N has a nonzero corner entry that neither E nor N has
    assert not is_zero_matrix(n @ n)
    with pytest.raises(NotClosed) as excinfo:
        from_affinors(basis)
    assert excinfo.value.pair == (1, 1)
    assert excinfo.value.residual > 0


def test_from_affinors_quaternions_match_hand_table(quaternions_r4):
    sc = from_affinors(quaternions_r4)
    assert sc == quaternion_constants()


def test_from_affinors_round_trip_property(quaternions_r4, rng):
    sc = from_affinors(quaternions_r4)
    mats = quaternions_r4.mats
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        via_table = multiply(sc, a, b)
        # direct route: multiply the matrices, then solve back into the span
        mat_a = linear_combination(mats, a)
        mat_b = linear_combination(mats, b)
        (coeffs,) = SpanSolver(stack(mats)).coefficients(stack([mat_a @ mat_b]))
        assert coeffs == via_table


def test_from_affinors_stacks_the_basis_once(monkeypatch):
    # the basis stack made for validation is the one the closure solves on
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return stack(mats)

    for module in (linalg, hullrank, algebra):
        monkeypatch.setattr(module, "stack", counted, raising=False)
    from_affinors(AffinorBasis.of(quaternion_matrices()))
    assert calls == [4]


def test_from_affinors_output_is_associative(quaternions_r4, complex_r4):
    for basis in (quaternions_r4, complex_r4):
        sc = from_affinors(basis)
        assert verify_associativity(sc).ok
        assert verify_unity(sc).ok
