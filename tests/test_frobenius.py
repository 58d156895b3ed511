"""Frobenius form search and the module-rank equivalence."""

import json
import random
from fractions import Fraction

import pytest

from affinor_rank import algebra, frobenius
from affinor_rank.algebra import ChatMatrices
from affinor_rank.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, main
from affinor_rank.hullrank import _SYMBOLIC_MAX_ROWS
from affinor_rank.linalg import unstack
from affinor_rank import (
    AffinorBasis,
    Matrix,
    NoWitnessFound,
    RankCertificate,
    StructureConstants,
    chat,
    find_frobenius_form,
    frobenius_iff_generic_rank,
    gram,
    weak_rank_witness,
)
from affinor_rank.errors import DimensionMismatch, InvalidAlgebra

from conftest import (
    cofactor_det,
    dual_number_constants,
    fraction_rows,
    is_zero_matrix,
    local3_constants,
    local_constants,
    matrix_algebra_2x2_constants,
    quaternion_constants,
)


def test_gram_dual_numbers_regular_direction():
    sc = dual_number_constants()
    # oracle by hand: eps picks the x-coefficient, so eps(1*1) = 0,
    # eps(1*x) = eps(x*1) = 1, eps(x*x) = 0
    cand = gram(sc, (0, 1))
    assert cand.gram == Matrix.exact([[0, 1], [1, 0]])
    assert cand.det == Fraction(-1)
    assert cand.regular


def test_gram_dual_numbers_singular_direction():
    cand = gram(dual_number_constants(), (1, 0))
    assert cand.gram == Matrix.exact([[1, 0], [0, 0]])
    assert not cand.regular


def test_gram_zero_functional():
    cand = gram(quaternion_constants(), (0, 0, 0, 0))
    assert is_zero_matrix(cand.gram)
    assert not cand.regular


def test_gram_length_check():
    with pytest.raises(DimensionMismatch):
        gram(dual_number_constants(), (1, 2, 3))


def test_gram_determinant_homogeneity(rng):
    # det of the bilinear form is degree-n homogeneous in the functional
    for sc in (dual_number_constants(), quaternion_constants(), local3_constants()):
        for _ in range(10):
            lam = [rng.randint(-9, 9) for _ in range(sc.n)]
            d1 = gram(sc, lam).det
            d2 = gram(sc, [2 * v for v in lam]).det
            assert d2 == 2 ** sc.n * d1


def test_find_frobenius_form_dual_numbers():
    verdict = find_frobenius_form(dual_number_constants())
    assert verdict.status == "frobenius"
    assert verdict.witness.regular
    # re-verify regularity through the cofactor oracle
    assert cofactor_det([list(r) for r in fraction_rows(verdict.witness.gram)]) != 0


def test_find_frobenius_form_local3_is_negative_with_proof():
    verdict = find_frobenius_form(local3_constants())
    assert verdict.status == "not_frobenius"
    assert verdict.proof["kind"] == "symbolic_zero_determinant"
    # sampling oracle: no random functional ever gives a regular form
    rng = random.Random(2)
    for _ in range(200):
        lam = [rng.randint(-20, 20) for _ in range(3)]
        assert gram(local3_constants(), lam).det == 0


def test_find_frobenius_form_matrix_algebra():
    sc = matrix_algebra_2x2_constants()
    verdict = find_frobenius_form(sc)
    assert verdict.status == "frobenius"
    # the functional dual to the trace is a classical regular direction:
    # tr(aE + b e11 + c e12 + d e21) = 2a + b
    trace_dual = gram(sc, (2, 1, 0, 0))
    assert trace_dual.regular


def test_find_frobenius_form_requires_valid_algebra():
    broken = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    with pytest.raises(InvalidAlgebra):
        find_frobenius_form(StructureConstants.exact(broken))


def test_find_frobenius_form_seed_stable():
    sc = quaternion_constants()
    a = find_frobenius_form(sc, trials=16, seed=9)
    b = find_frobenius_form(sc, trials=16, seed=9)
    assert a == b


def test_undetermined_when_symbolic_is_disabled(tmp_path, capsys):
    # unity plus six square-zero elements: every Gram matrix has rank at
    # most 2, and the dimension is past the symbolic limit, so neither the
    # candidates nor the expansion can decide
    sc = local_constants(7)
    assert sc.n > _SYMBOLIC_MAX_ROWS
    verdict = find_frobenius_form(sc, trials=4)
    assert verdict.status == "undetermined"
    assert verdict.trials == 7 + 1 + 4
    assert frobenius_iff_generic_rank(sc, trials=4).agree is None
    path = tmp_path / "local7.json"
    path.write_text(json.dumps(sc.to_json()))
    assert main(["frobenius", str(path), "--trials", "4"]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["result"]["agree"] is None


# ---------------------------------------------------------------------------
# Equivalence with the operator module
# ---------------------------------------------------------------------------


def test_identification_property_exact(rng):
    # the stacked images of a functional under the operator matrices equal
    # the bilinear form's transpose, entry by entry
    for sc in (dual_number_constants(), quaternion_constants(), local3_constants()):
        mats = chat(sc)
        for _ in range(10):
            lam = tuple(Fraction(rng.randint(-9, 9)) for _ in range(sc.n))
            g = gram(sc, lam).gram
            rows = [m.apply(lam) for m in unstack(mats.c_hat, sc.n)]
            assert tuple(rows) == tuple(zip(*fraction_rows(g)))


def test_equivalence_dual_numbers_both_positive():
    report = frobenius_iff_generic_rank(dual_number_constants())
    assert report.frobenius_positive and report.rank_positive
    assert report.agree is True
    assert report.cross_check_witness_regular is True
    assert report.identification["multiplier_rows_match_gram_transpose"]


def test_equivalence_local3_both_negative():
    report = frobenius_iff_generic_rank(local3_constants())
    assert report.frobenius_positive is False
    assert report.rank_positive is False
    assert report.agree is True
    assert isinstance(report.module_rank, NoWitnessFound)
    assert report.module_rank.definitive


def test_equivalence_trivial_algebra_both_positive():
    report = frobenius_iff_generic_rank(StructureConstants.exact([[[1]]]))
    assert report.agree is True
    assert report.frobenius_positive and report.rank_positive


def test_equivalence_matrix_algebra():
    sc = matrix_algebra_2x2_constants()
    report = frobenius_iff_generic_rank(sc)
    assert report.agree is True
    assert report.frobenius_positive


def test_module_witness_transfers_to_functional():
    # a full-rank hull witness of the operator module is itself a regular
    # functional: the two searches decide one and the same pencil
    for sc in (dual_number_constants(), quaternion_constants()):
        basis = AffinorBasis(chat(sc).c_hat, sc.n)
        cert = weak_rank_witness(basis)
        assert isinstance(cert, RankCertificate)
        assert gram(sc, cert.witness).regular


def test_equivalence_runs_one_search_and_one_validation(monkeypatch):
    calls = {"verify_associativity": 0, "weak_rank_witness": 0}

    def counted(name):
        real = getattr(frobenius, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(frobenius, name, wrapper)

    counted("verify_associativity")
    counted("weak_rank_witness")
    report = frobenius_iff_generic_rank(matrix_algebra_2x2_constants())
    assert calls == {"verify_associativity": 1, "weak_rank_witness": 1}
    assert report.agree is True
    assert report.frobenius.witness.lam == report.module_rank.witness


def test_frobenius_command_builds_one_gram_and_applies_no_matrix(monkeypatch, tmp_path):
    # counts, not times: the identification reads the table's cube, so the
    # witness's is the only Gram matrix, and associativity is checked once
    calls = {"gram": 0, "apply": 0, "verify_associativity": 0}

    def counted(owner, name, *aliases):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for target in (owner, *aliases):
            monkeypatch.setattr(target, name, wrapper)

    counted(frobenius, "gram")
    counted(Matrix, "apply")
    counted(algebra, "verify_associativity", frobenius)
    path = tmp_path / "quaternions.json"
    path.write_text(json.dumps(quaternion_constants().to_json()))
    assert main(["frobenius", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"gram": 1, "apply": 0, "verify_associativity": 1}


def test_failed_identification_is_a_disagreement(monkeypatch, tmp_path, capsys):
    # hand the search the starred operators: on the quaternions their rows
    # are the Gram matrix, not its transpose, so the search still finds a
    # regular functional but the exact identification must fail
    def swapped(sc):
        mats = chat(sc)
        return ChatMatrices(mats.c_hat_star, mats.c_hat)

    monkeypatch.setattr(frobenius, "chat", swapped)
    sc = quaternion_constants()
    report = frobenius_iff_generic_rank(sc)
    assert report.frobenius.status == "frobenius"
    assert report.cross_check_witness_regular is True
    assert report.identification["multiplier_rows_match_gram_transpose"] is False
    assert report.agree is False
    path = tmp_path / "quaternions.json"
    path.write_text(json.dumps(sc.to_json()))
    assert main(["frobenius", str(path)]) == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().out)["result"]["agree"] is False


def test_a_fault_in_the_hull_product_is_a_disagreement(monkeypatch, tmp_path, capsys):
    # the identification reads its hull rows through the search's kernel;
    # one wrong entry in that product must fail it, and the command exits 70
    real = frobenius._images

    def corrupted(s, m, vectors):
        view = real(s, m, vectors)._scaled
        nums = view.nums.copy()
        nums[-1, 0] += view.den
        return Matrix.from_view(view._replace(nums=nums, bound=view.bound + view.den))

    monkeypatch.setattr(frobenius, "_images", corrupted)
    sc = quaternion_constants()
    report = frobenius_iff_generic_rank(sc)
    assert report.frobenius.status == "frobenius"
    assert report.identification["multiplier_rows_match_gram_transpose"] is False
    assert report.agree is False
    path = tmp_path / "quaternions.json"
    path.write_text(json.dumps(sc.to_json()))
    assert main(["frobenius", str(path)]) == EXIT_INTERNAL
    assert json.loads(capsys.readouterr().out)["result"]["agree"] is False
