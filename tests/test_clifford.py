"""Clifford representation construction and rank claims."""

import json
from fractions import Fraction

import numpy as np
import pytest

from affinor_rank import (
    AffinorBasis,
    CliffordBasis,
    CliffordSignature,
    Matrix,
    RankCertificate,
    build_clifford,
    clifford_rank_theorem_check,
    from_affinors,
    verify_associativity,
    verify_clifford_relations,
    verify_unity,
)
from affinor_rank import clifford, linalg
from affinor_rank.cli import EXIT_USAGE, _verify_certificate_dict, main
from affinor_rank.errors import SignatureTooLarge

from conftest import (
    blade_product,
    constants_cube,
    doubled_generic_rank_check,
    doubled_module_basis,
    fraction_rows,
    linear_combination,
    quaternion_constants,
    quaternion_matrices,
    reference_verify_certificate,
)


def test_signature_validation():
    with pytest.raises(ValueError):
        CliffordSignature(0, 0)
    with pytest.raises(ValueError):
        CliffordSignature(-1, 2)
    with pytest.raises(SignatureTooLarge):
        CliffordSignature(9, 8)
    assert CliffordSignature(2, 3).dim == 32


def test_blade_product_signs():
    # e1 e2 = -e2 e1, and shared generators square by signature
    assert blade_product(0b01, 0b10, 0) == (1, 0b11)
    assert blade_product(0b10, 0b01, 0) == (-1, 0b11)
    assert blade_product(0b01, 0b01, 1) == (1, 0)   # positive square
    assert blade_product(0b01, 0b01, 0) == (-1, 0)  # negative square


def test_build_cl01_is_complex_multiplication():
    cb = build_clifford(CliffordSignature(0, 1))
    assert cb.labels == ("1", "e1")
    assert cb.basis.mats[1] == Matrix.exact([[0, -1], [1, 0]])


def test_build_cl10_is_product_structure():
    cb = build_clifford(CliffordSignature(1, 0))
    assert cb.basis.mats[1] == Matrix.exact([[0, 1], [1, 0]])


def test_build_cl02_is_quaternions():
    cb = build_clifford(CliffordSignature(0, 2))
    assert cb.labels == ("1", "e1", "e2", "e1e2")
    expected = quaternion_matrices()
    for built, known in zip(cb.basis.mats, expected):
        assert built == known
    # the abstract multiplication table round-trips through the span
    sc = from_affinors(cb.basis)
    assert sc == quaternion_constants()


def test_blade_order_is_graded_lexicographic():
    cb = build_clifford(CliffordSignature(1, 2))
    assert cb.labels == ("1", "e1", "e2", "e3", "e1e2", "e1e3", "e2e3", "e1e2e3")


@pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                 (3, 0), (2, 1), (1, 2), (0, 3), (2, 2)])
def test_relations_hold_for_small_signatures(s, t):
    cb = build_clifford(CliffordSignature(s, t))
    assert verify_clifford_relations(cb).ok
    # the span is closed and genuinely associative with unity
    sc = from_affinors(cb.basis)
    assert verify_unity(sc).ok
    assert verify_associativity(sc).ok


def test_closure_constants_match_abstract_blade_table():
    # the span's structure constants must reproduce the blade product
    # table: exactly one +-1 per pair, at the blade-product position
    for s, t in [(1, 1), (0, 3)]:
        cb = build_clifford(CliffordSignature(s, t))
        c = constants_cube(from_affinors(cb.basis))
        pos = {mask: idx for idx, mask in enumerate(cb.blades)}
        for i, bi in enumerate(cb.blades):
            for j, bj in enumerate(cb.blades):
                sign, result = blade_product(bi, bj, s)
                for k in range(len(c)):
                    expected = sign if k == pos[result] else 0
                    assert c[i][j][k] == expected


def test_basis_span_has_full_dimension():
    for s, t in [(0, 2), (1, 1), (0, 3)]:
        cb = build_clifford(CliffordSignature(s, t))
        assert cb.basis.n == cb.signature.dim  # independence was validated


def test_basis_stack_is_the_blade_stack():
    # every blade matrix views its row of the one blade array, which is
    # the basis stack itself, not an np.stack copy of it
    cb = build_clifford(CliffordSignature(2, 1))
    stacked = cb.basis.stacked
    assert stacked.nums.shape == (8, 64) and stacked.nums.flags.owndata is False
    for k, mat in enumerate(cb.basis.mats):
        assert np.shares_memory(stacked.nums, mat._scaled.nums)
        assert np.array_equal(stacked.nums[k], mat._scaled.nums.ravel())
    doubled = doubled_module_basis(cb)
    assert all(np.shares_memory(doubled.stacked.nums, mat._scaled.nums) for mat in doubled.mats)


def test_tampered_generator_is_reported():
    cb = build_clifford(CliffordSignature(0, 2))
    bad = [list(row) for row in fraction_rows(cb.basis.mats[1])]
    bad[0] = [-v for v in bad[0]]  # flip one row: square identity breaks
    mats = list(cb.basis.mats)
    mats[1] = Matrix.exact(bad)
    tampered = CliffordBasis(
        cb.signature,
        type(cb.basis).of(tuple(mats)),
        cb.blades,
        cb.labels,
    )
    result = verify_clifford_relations(tampered)
    assert not result.ok
    assert any(v[0] == "square" and v[1] == 1 for v in result.violations)


def test_tampered_dense_matrix_falls_back():
    cb = build_clifford(CliffordSignature(0, 2))
    mats = list(cb.basis.mats)
    dense = [list(row) for row in fraction_rows(mats[1])]
    dense[0][0] = 7  # no longer a signed permutation
    mats[1] = Matrix.exact(dense)
    tampered = CliffordBasis(
        cb.signature,
        type(cb.basis).of(tuple(mats)),
        cb.blades,
        cb.labels,
    )
    assert not verify_clifford_relations(tampered).ok


def test_missing_generators_are_violations():
    # the generator count comes from the signature, not from the basis: a
    # Cl(1,1) basis {E, e1} lacks e2, and {E} lacks both
    cb = build_clifford(CliffordSignature(1, 1))
    s, m = cb.basis.stacked, cb.basis.m
    for rows, missing in ((2, (("missing", 2),)), (1, (("missing", 1), ("missing", 2)))):
        short = CliffordBasis(cb.signature, AffinorBasis(s._replace(nums=s.nums[:rows]), m),
                              cb.blades[:rows], cb.labels[:rows])
        result = verify_clifford_relations(short)
        assert not result.ok
        assert result.violations == missing
        assert result.to_json()["violations"] == [list(v) for v in missing]


def test_missing_generators_are_violations_on_the_dense_fallback():
    # in a frame with a half entry the stack is over den 2, so the relations
    # go to the integer product: e1 still squares to E, e1 / 2 does not
    cb = build_clifford(CliffordSignature(1, 1))
    e, e1 = cb.basis.mats[:2]
    q = Matrix.exact([[1, "1/2", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    framed = q @ e1 @ linalg.inverse(q)
    for gen, violations in ((framed, (("missing", 2),)),
                            (linear_combination([framed], [Fraction(1, 2)]),
                             (("missing", 2), ("square", 1, 1)))):
        short = CliffordBasis(cb.signature, AffinorBasis.of((e, gen)),
                              cb.blades[:2], cb.labels[:2])
        assert short.basis.stacked.den > 1
        assert verify_clifford_relations(short).violations == violations


def test_rank_theorem_check_small():
    for s, t, expected in [(0, 1, 2), (0, 2, 4), (1, 1, 4), (1, 2, 8)]:
        cert = clifford_rank_theorem_check(build_clifford(CliffordSignature(s, t)))
        assert isinstance(cert, RankCertificate)
        assert cert.claimed_rank == expected
        # the canonical witness is the unit coefficient vector
        assert cert.witness[0] == 1 and all(v == 0 for v in cert.witness[1:])


def test_rank_theorem_check_gate(capsys, monkeypatch):
    # one generator past the cap is refused by the signature itself, before
    # the blade stack (1 GiB for Cl(5,4)) is allocated, and the CLI exits 64
    def never(*args):
        raise AssertionError("the blade stack was allocated")

    monkeypatch.setattr(clifford, "_blade_stack", never)
    assert CliffordSignature(4, 4).generators == 8
    with pytest.raises(SignatureTooLarge, match="exceeds the 8-generator cap"):
        CliffordSignature(5, 4)
    assert main(["clifford", "--s", "5", "--t", "4", "--check-rank"]) == EXIT_USAGE
    assert "exceeds the 8-generator cap" in capsys.readouterr().err


@pytest.mark.parametrize("s, t", [(s, n - s) for n in range(1, 6) for s in range(n + 1)])
def test_blade_stack_matches_blade_product(s, t):
    sig = CliffordSignature(s, t)
    blades = clifford._blade_order(sig.generators)
    position = {mask: i for i, mask in enumerate(blades)}
    want = np.zeros((sig.dim,) * 3, dtype=np.int64)
    for i, a in enumerate(blades):
        for j, b in enumerate(blades):
            sign, d = blade_product(a, b, s)
            want[i, position[d], j] = sign
    assert np.array_equal(clifford._blade_stack(sig, blades), want)


_UP_TO_SIX_GENERATORS = [(s, k - s) for k in range(1, 7) for s in range(k + 1)]


@pytest.mark.parametrize("s, t", _UP_TO_SIX_GENERATORS)
def test_each_word_multiplies_out_to_its_blade(s, t):
    # words list generators in ascending order, each tail earlier, and the
    # ordered product of a word's generators is that row of the blade stack
    cb = build_clifford(CliffordSignature(s, t))
    k, m, nums = s + t, cb.basis.m, cb.basis.stacked.nums.reshape(-1, cb.basis.m, cb.basis.m)
    words = cb.basis.words
    assert words == tuple(tuple(i - 1 for i in clifford._blade_indices(b)) for b in cb.blades)
    assert words[:k + 1] == ((),) + tuple((g,) for g in range(k))
    for i, word in enumerate(words):
        assert list(word) == sorted(set(word)) and (not word or word[1:] in words[:i])
        product = np.eye(m, dtype=np.int64)
        for g in word:
            product = product @ nums[1 + g]
        assert np.array_equal(product, nums[i]), cb.labels[i]


@pytest.mark.parametrize("s, t", _UP_TO_SIX_GENERATORS)
def test_generator_form_certificate_verifies(s, t):
    cb = build_clifford(CliffordSignature(s, t))
    cert = json.loads(json.dumps(clifford_rank_theorem_check(cb).to_json()))
    basis = cert["basis"]
    assert "mats" not in basis and len(basis["generators"]) == s + t
    assert basis["words"] == [list(w) for w in cb.basis.words]
    assert _verify_certificate_dict(cert) == (True, "ok")
    if s + t <= 4:  # the oracle multiplies dense Fraction matrices
        assert reference_verify_certificate(cert) == (True, "ok")


def test_emitted_clifford_basis_lists_every_blade(tmp_path):
    # --emit writes the input format, which rank reads; only certificates
    # carry the generator form
    emitted = tmp_path / "cl21.json"
    assert main(["clifford", "--s", "2", "--t", "1", "--emit", str(emitted)]) == 0
    basis = json.loads(emitted.read_text())
    cb = build_clifford(CliffordSignature(2, 1))
    assert "generators" not in basis and "words" not in basis
    assert basis["mats"] == [mat.to_json() for mat in cb.basis.mats]


def test_cl33_certificate_and_json_leave_entries_unbuilt(monkeypatch):
    # the blades are integer views; nothing on the build, rank-check or JSON
    # path turns a matrix's numerators into Fractions
    def refuse(nums, den):
        raise AssertionError("a matrix built its Fraction entries")

    monkeypatch.setattr(linalg, "_fractions", refuse)
    cb = build_clifford(CliffordSignature(3, 3))
    cert = clifford_rank_theorem_check(cb)
    json.dumps(cert.to_json())
    json.dumps(cb.to_json())
    doubled = doubled_module_basis(build_clifford(CliffordSignature(2, 1)))
    json.dumps([mat.to_json() for mat in doubled.mats])


def test_doubled_module_generic_rank():
    for s, t in [(0, 1), (1, 1), (0, 3)]:
        sig = CliffordSignature(s, t)
        result = doubled_generic_rank_check(sig)
        assert isinstance(result, RankCertificate)
        assert result.kind == "generic"
        assert result.claimed_rank == sig.dim
        assert result.pair[2] == 2 * sig.dim


def test_doubled_module_basis_shape():
    cb = build_clifford(CliffordSignature(0, 2))
    doubled = doubled_module_basis(cb)
    assert doubled.m == 8 and doubled.n == 4
