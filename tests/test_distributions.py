"""Projector systems and their rank certificates."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from affinor_rank import (
    Inapplicable,
    Matrix,
    NoWitnessFound,
    ProjectorSystem,
    RankCertificate,
    Splitting,
    distribution_rank_check,
    from_affinors,
    hull,
    projectors_from_splitting,
    verify_complete_system,
)
from affinor_rank import hullrank, linalg
from affinor_rank.cli import main
from affinor_rank.errors import DimensionMismatch, SingularChangeOfBasis
from affinor_rank.linalg import SpanSolver, det, stack, unstack

from conftest import constants_cube, is_zero_matrix, random_exact_matrix


def _random_invertible(rng, m, bound=2):
    while True:
        q = random_exact_matrix(rng, m, m, bound)
        if det(q) != 0:
            return q


def _random_splitting(rng, m):
    dims = []
    left = m
    while left:
        r = rng.randint(1, left)
        dims.append(r)
        left -= r
    return dims


def test_coordinate_splitting_m2():
    ps = projectors_from_splitting(Splitting(2, (1, 1)))
    assert unstack(ps.stacked, ps.m)[0] == Matrix.exact([[1, 0], [0, 0]])
    assert unstack(ps.stacked, ps.m)[1] == Matrix.exact([[0, 0], [0, 1]])


def test_coordinate_splitting_m4():
    ps = projectors_from_splitting(Splitting(4, (2, 2)))
    assert unstack(ps.stacked, ps.m)[0] == Matrix.exact(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )


def test_conjugated_splitting_keeps_identities(rng):
    q = _random_invertible(rng, 4)
    ps = projectors_from_splitting(Splitting(4, (2, 2), q))
    assert verify_complete_system(ps).ok
    # oracle: direct products for one pair
    p1, p2 = unstack(ps.stacked, ps.m)
    assert is_zero_matrix(p1 @ p2)
    assert p1 @ p1 == p1


def test_splitting_validation():
    with pytest.raises(DimensionMismatch):
        Splitting(4, (2, 3))
    with pytest.raises(DimensionMismatch):
        Splitting(4, (2, 0, 2))
    with pytest.raises(SingularChangeOfBasis):
        Splitting(2, (1, 1), Matrix.exact([[1, 1], [1, 1]]))


def test_verify_rejects_overlapping_projectors():
    p1 = Matrix.exact([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    p2 = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    p3 = Matrix.exact([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # oracle: p1 @ p2 = p1 != 0
    assert p1 @ p2 == p1
    result = verify_complete_system(ProjectorSystem(stack([p1, p2, p3]), 4))
    assert not result.ok
    assert ("annihilate", 0, 1) in result.violations


def test_single_block_system():
    ps = projectors_from_splitting(Splitting(3, (3,)))
    assert verify_complete_system(ps).ok
    assert unstack(ps.stacked, ps.m)[0] == Matrix.identity(3)
    report = distribution_rank_check(ps)
    assert report.weak.claimed_rank == 1


def test_property_random_splittings_verify(rng):
    for _ in range(25):
        m = rng.randint(2, 8)
        dims = _random_splitting(rng, m)
        q = _random_invertible(rng, m) if rng.random() < 0.5 else None
        ps = projectors_from_splitting(Splitting(m, tuple(dims), q))
        assert verify_complete_system(ps).ok


def test_rank_check_two_blocks_generic():
    ps = projectors_from_splitting(Splitting(4, (2, 2)))
    report = distribution_rank_check(ps)
    assert report.weak.claimed_rank == 2
    assert isinstance(report.generic, RankCertificate)
    assert report.generic.claimed_rank == 2


def test_rank_check_evaluates_the_witness_hull_once(monkeypatch, tmp_path):
    # the weak certificate's hull, then one pair batch: the generic
    # pipeline reuses the weak certificate instead of searching again
    calls = []
    images = hullrank._images

    def counted(s, m, vectors):
        calls.append(len(vectors))
        return images(s, m, vectors)

    monkeypatch.setattr(hullrank, "_images", counted)
    assert main(["distributions", "--dims", "2,2", "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [1, 2]


def test_emit_writes_the_basis_the_rank_check_validated(monkeypatch, tmp_path):
    # --emit writes the weak certificate's basis, not a second copy
    validated = []
    post_init = hullrank.AffinorBasis.__post_init__

    def counted(basis):
        validated.append(basis)
        return post_init(basis)

    monkeypatch.setattr(hullrank.AffinorBasis, "__post_init__", counted)
    emit = tmp_path / "basis.json"
    conjugate = Path(__file__).parent.parent / "docs" / "fixtures" / "conjugation_q4.json"
    assert main(["distributions", "--dims", "2,2", "--conjugate", str(conjugate),
                 "--emit", str(emit), "--out", str(tmp_path / "r.json")]) == 0
    assert len(validated) == 1
    assert json.loads(emit.read_text()) == validated[0].to_json()


def _count_kernels(monkeypatch):
    """Lists that record each Bareiss elimination (its row count) and
    each Matrix product from now on."""
    eliminations, products = [], []
    bareiss, matmul = linalg._bareiss_rank, Matrix.__matmul__
    monkeypatch.setattr(linalg, "_bareiss_rank",
                        lambda a: eliminations.append(len(a)) or bareiss(a))
    monkeypatch.setattr(Matrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    return eliminations, products


def test_conjugated_build_eliminates_the_frame_once_and_multiplies_no_matrices(rng, monkeypatch):
    q = _random_invertible(rng, 6)
    eliminations, products = _count_kernels(monkeypatch)
    ps = projectors_from_splitting(Splitting(6, (2, 1, 3), q))
    assert eliminations == [6] and products == []
    assert ps.splitting.change_of_basis_inverse == linalg.inverse(q)


def test_unconjugated_build_is_the_indicator_diagonals(monkeypatch):
    eliminations, products = _count_kernels(monkeypatch)
    ps = projectors_from_splitting(Splitting(5, (2, 1, 2)))
    assert eliminations == [] and products == []
    for p, ones in zip(unstack(ps.stacked, ps.m), ([1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1])):
        view = p._scaled
        assert (view.den, view.bound, view.nums.dtype) == (1, 1, np.int64)
        assert np.array_equal(view.nums, np.diag(ones))


def test_rank_check_searches_without_a_splitting(rng):
    # a hand-built system has no blocks to read a witness from
    q = _random_invertible(rng, 4)
    ps = ProjectorSystem(projectors_from_splitting(Splitting(4, (2, 2), q)).stacked, 4)
    report = distribution_rank_check(ps)
    assert report.witness_note == "witness found by search"
    assert report.weak.claimed_rank == 2
    assert report.weak.trials >= 1
    assert hull(ps.affinor_basis(), report.weak.witness).dim == 2
    assert isinstance(report.generic, RankCertificate)
    assert report.generic.claimed_rank == 2


def test_rank_check_four_singleton_blocks():
    ps = projectors_from_splitting(Splitting(4, (1, 1, 1, 1)))
    report = distribution_rank_check(ps)
    assert report.weak.claimed_rank == 4
    assert isinstance(report.generic, Inapplicable)
    assert report.generic.reason == "DimensionTooSmall"
    # oracle: the all-ones vector's hull is the diagonal row family
    basis = ps.affinor_basis()
    assert hull(basis, (Fraction(1),) * 4).dim == 4


def test_rank_check_two_singleton_blocks_inapplicable():
    ps = projectors_from_splitting(Splitting(2, (1, 1)))
    report = distribution_rank_check(ps)
    assert report.weak.claimed_rank == 2
    assert isinstance(report.generic, Inapplicable)


def test_thin_block_never_gets_generic_certificate():
    # blocks (1, 3): closure, weak rank and 2n <= m all hold, yet hull
    # pairs top out at dimension 3 because both hulls meet the same line
    # in the singleton block; the mandatory pair witness correctly blocks
    # the certificate
    ps = projectors_from_splitting(Splitting(4, (1, 3)))
    report = distribution_rank_check(ps, trials=48)
    assert report.weak.claimed_rank == 2
    assert isinstance(report.generic, NoWitnessFound)
    assert report.generic.stage == "pair"
    assert report.generic.max_dim_seen == 3


def test_rewritten_basis_spans_the_projectors(rng):
    for dims in [(2, 2), (1, 1, 2), (3, 2)]:
        m = sum(dims)
        q = _random_invertible(rng, m)
        ps = projectors_from_splitting(Splitting(m, dims, q))
        basis = ps.affinor_basis()
        # every projector lies in the span of the rewritten basis and
        # every rewritten element lies in the projector span
        assert None not in SpanSolver(basis.stacked).coefficients(ps.stacked)
        assert None not in SpanSolver(ps.stacked).coefficients(stack(basis.mats))


def test_witness_optimality(rng):
    # all block components nonzero: full span rank; a zeroed block strictly less
    dims = (2, 1, 3)
    ps = projectors_from_splitting(Splitting(6, dims))
    basis = ps.affinor_basis()
    for _ in range(20):
        full = []
        for size in dims:
            comp = [rng.randint(1, 9) for _ in range(size)]
            full.extend(comp)
        assert hull(basis, tuple(Fraction(v) for v in full)).dim == 3
        crippled = list(full)
        crippled[2] = 0  # the singleton block collapses
        assert hull(basis, tuple(Fraction(v) for v in crippled)).dim == 2


def test_conjugation_invariance_of_claimed_rank(rng):
    for _ in range(5):
        q = _random_invertible(rng, 6)
        plain = distribution_rank_check(
            projectors_from_splitting(Splitting(6, (3, 3)))
        )
        conj = distribution_rank_check(
            projectors_from_splitting(Splitting(6, (3, 3), q))
        )
        assert plain.weak.claimed_rank == conj.weak.claimed_rank == 2
        assert isinstance(plain.generic, RankCertificate)
        assert isinstance(conj.generic, RankCertificate)
        assert plain.generic.claimed_rank == conj.generic.claimed_rank


def test_closure_recovers_idempotent_constants():
    ps = projectors_from_splitting(Splitting(4, (2, 2)))
    sc = from_affinors(ps.affinor_basis())
    # with basis {E, P}: P * P = P exactly
    assert constants_cube(sc)[1][1] == (Fraction(0), Fraction(1))
