"""Hull computation, witness search and the generic-rank pipeline."""

import inspect
from fractions import Fraction

import pytest

from affinor_rank import (
    AffinorBasis,
    AllSampledInvertible,
    CounterexampleFound,
    Inapplicable,
    Matrix,
    NoWitnessFound,
    RankCertificate,
    certify_generic_rank,
    chat,
    hull,
    inversion_probe,
    pair_span_dim,
    weak_rank_witness,
)
from affinor_rank import clifford, hullrank, linalg
from affinor_rank.errors import DimensionMismatch, InvalidBasis
from affinor_rank.linalg import rank
from affinor_rank.verify import _verify_certificate_dict

from conftest import (
    fraction_rows,
    linear_combination,
    local3_constants,
    random_exact_matrix,
    reference_verify_certificate,
    rotation_block,
    scalar_multiple_of_identity,
)


def _unit(m, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))


# ---------------------------------------------------------------------------
# Basis validation
# ---------------------------------------------------------------------------


def test_basis_requires_identity_first():
    f = rotation_block(4)
    with pytest.raises(InvalidBasis):
        AffinorBasis.of((f, Matrix.identity(4)))


def test_basis_rejects_dependent_elements():
    e = Matrix.identity(4)
    with pytest.raises(InvalidBasis):
        AffinorBasis.of((e, linear_combination([e], [3])))


def test_basis_accepts_equal_dimension():
    # n == m: the span fills its own module dimension, as operator modules do
    basis = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    assert (basis.n, basis.m) == (2, 2)


def test_basis_rejects_rank_above_dimension():
    e = Matrix.identity(2)
    with pytest.raises(InvalidBasis):
        AffinorBasis.of((e, rotation_block(2), Matrix.exact([[1, 0], [0, 0]])))


def test_basis_validation_scales_each_matrix_once(monkeypatch):
    # a matrix is scaled once, when it is built from Fractions; validation
    # stacks the views that hull and to_json reuse, instead of scaling one
    # n x m^2 stack of every entry
    built = clifford.build_clifford(clifford.CliffordSignature(2, 2)).basis.mats
    shapes = []
    scale = linalg._scale

    def recording(values, shape):
        shapes.append(shape)
        return scale(values, shape)

    monkeypatch.setattr(linalg, "_scale", recording)
    fresh = [Matrix(m.rows, m.cols, fraction_rows(m)) for m in built]
    assert shapes == [(16, 16)] * 16
    AffinorBasis.of(tuple(fresh))
    assert shapes == [(16, 16)] * 16


def test_certificate_writes_its_basis_without_unstacking(monkeypatch):
    # the embedded basis is written off the rows of its stack, not as one
    # view per blade of Cl(3,3); without its words it lists all 64 blades
    cb = clifford.build_clifford(clifford.CliffordSignature(3, 3))
    cert = weak_rank_witness(AffinorBasis(cb.basis.stacked, cb.basis.m))
    calls = []
    unstack = linalg.unstack

    def recording(s, m):
        calls.append(m)
        return unstack(s, m)

    monkeypatch.setattr(linalg, "unstack", recording)
    monkeypatch.setattr(hullrank, "unstack", recording)
    mats = cert.to_json()["basis"]["mats"]
    assert calls == []
    assert mats == [mat.to_json() for mat in unstack(cb.basis.stacked, cb.basis.m)]


def test_basis_zero_mod_p_row_is_accepted_by_exact_fallback(monkeypatch):
    p = linalg._PRIMES[0]
    results = []
    modp = linalg._full_row_rank_modp

    def recording(rows, prime):
        results.append(modp(rows, prime))
        return results[-1]

    monkeypatch.setattr(linalg, "_full_row_rank_modp", recording)
    # its support meets the identity's at (0, 0), so the disjoint-support
    # shortcut does not apply and the mod-p test runs
    a = Matrix.exact([[p, p, 0], [0, 0, 0], [0, 0, 0]])
    assert AffinorBasis.of((Matrix.identity(3), a)).n == 2
    assert results == [False]  # the second row is 0 mod p


def test_basis_rejects_dependent_fractional_elements():
    e12 = Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidBasis):
        AffinorBasis.of((Matrix.identity(3), linear_combination([e12], [Fraction(1, 2)]),
                         linear_combination([e12], [Fraction(2, 3)])))


# ---------------------------------------------------------------------------
# Hulls
# ---------------------------------------------------------------------------


def test_hull_of_identity_span_is_a_line():
    basis = AffinorBasis.of((Matrix.identity(2),))
    h = hull(basis, (Fraction(1), Fraction(0)))
    assert h.dim == 1
    assert fraction_rows(h.matrix)[0] == (Fraction(1), Fraction(0))


def test_hull_quaternion_unit_vector(quaternions_r4):
    h = hull(quaternions_r4, _unit(4, 0))
    assert h.dim == 4
    # the hull matrix is a signed permutation: one +-1 per row and column
    for row in fraction_rows(h.matrix):
        assert sorted(abs(v) for v in row) == [0, 0, 0, 1]


def test_hull_of_zero_vector(quaternions_r4):
    assert hull(quaternions_r4, (Fraction(0),) * 4).dim == 0


def test_hull_dimension_mismatch(quaternions_r4):
    short = (Fraction(1),) * 3
    with pytest.raises(DimensionMismatch):
        hull(quaternions_r4, short)
    with pytest.raises(DimensionMismatch):
        pair_span_dim(quaternions_r4, _unit(4, 0), short)


def test_witness_searches_take_no_extra_candidates():
    # the candidate order is fixed: unit vectors, the all-ones vector, then
    # seeded random vectors; no caller can put its own candidates first
    for fn in (weak_rank_witness, certify_generic_rank):
        assert "extra_candidates" not in inspect.signature(fn).parameters


def test_hull_contains_base_vector(complex_r4, rng):
    # the first row is X itself, so stacking X again never raises the rank
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(4))
        h = hull(complex_r4, x)
        stacked = list(fraction_rows(h.matrix)) + [x]
        assert rank(Matrix.exact(stacked)).rank == h.dim


def test_hull_scaling_invariance(complex_r4, rng):
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9)) for _ in range(4))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = tuple(c * v for v in x)
        assert hull(complex_r4, x).dim == hull(complex_r4, scaled).dim


def test_hull_monotone_under_closure(quaternions_r8, rng):
    # for a span closed under composition, any Z inside the hull of X has
    # its whole hull inside the hull of X
    basis = quaternions_r8
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(8))
        hx = hull(basis, x)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(basis.n)]
        z = tuple(
            sum(c * row[k] for c, row in zip(coeffs, fraction_rows(hx.matrix)))
            for k in range(8)
        )
        hz = hull(basis, z)
        stacked = list(fraction_rows(hx.matrix)) + list(fraction_rows(hz.matrix))
        assert rank(Matrix.exact(stacked)).rank == hx.dim


# ---------------------------------------------------------------------------
# Weak rank witnesses
# ---------------------------------------------------------------------------


def test_weak_rank_two_element_rotation_basis():
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    cert = weak_rank_witness(basis)
    assert isinstance(cert, RankCertificate)
    assert cert.claimed_rank == 2
    assert hull(basis, cert.witness).dim == 2


def test_weak_rank_projector_style_basis():
    e = Matrix.identity(4)
    p1 = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    p2 = Matrix.exact([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    basis = AffinorBasis.of((e, p1, p2))
    # oracle: the all-ones vector gives rows (1,1,1,1), (1,1,0,0), (0,0,1,0)
    ones = (Fraction(1),) * 4
    explicit = [m.apply(ones) for m in basis.mats]
    assert rank(Matrix.exact(explicit)).rank == 3
    cert = weak_rank_witness(basis)
    assert isinstance(cert, RankCertificate)
    assert cert.claimed_rank == 3


def test_weak_rank_nilpotent_chain():
    n = Matrix.exact([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    basis = AffinorBasis.of((Matrix.identity(4), n, n @ n))
    # oracle: applying the chain to e4 walks down the Jordan chain
    e4 = _unit(4, 3)
    assert basis.mats[1].apply(e4) == _unit(4, 2)
    assert basis.mats[2].apply(e4) == _unit(4, 1)
    cert = weak_rank_witness(basis)
    assert isinstance(cert, RankCertificate)
    assert cert.claimed_rank == 3


def test_two_element_bases_witnessed_in_deterministic_phase(rng):
    # if every standard vector and the all-ones vector were eigenvectors,
    # the affinor would be a multiple of the identity; so the deterministic
    # phase must always succeed for two-element spans
    e = Matrix.identity(4)
    deterministic = [_unit(4, i) for i in range(4)] + [(Fraction(1),) * 4]
    for _ in range(50):
        f = random_exact_matrix(rng, 4, 4)
        if scalar_multiple_of_identity(f) is not None:
            continue
        cert = weak_rank_witness(AffinorBasis.of((e, f)), trials=1)
        assert isinstance(cert, RankCertificate)
        assert cert.witness in deterministic


def test_weak_rank_seed_stability(complex_r4):
    a = weak_rank_witness(complex_r4, trials=16, seed=5)
    b = weak_rank_witness(complex_r4, trials=16, seed=5)
    assert a == b


def test_no_witness_is_definitive_for_small_degenerate_module():
    # operator span of the three-dimensional local algebra: two of the
    # three hull rows are always proportional, so no witness exists and
    # the symbolic scan proves it
    mats = chat(local3_constants())
    basis = AffinorBasis(mats.c_hat, 3)
    result = weak_rank_witness(basis, trials=16)
    assert isinstance(result, NoWitnessFound)
    assert result.definitive
    assert result.max_dim_seen == 2


def test_deterministic_candidates_are_made_when_reached():
    # an iterator, not a list of all m + 1 vectors built up front
    candidates = hullrank._deterministic_candidates(3)
    assert next(candidates) == (1, 0, 0)
    assert list(candidates) == [(0, 1, 0), (0, 0, 1), (1, 1, 1)]


# ---------------------------------------------------------------------------
# Pair spans and the generic pipeline
# ---------------------------------------------------------------------------


def test_pair_span_examples(complex_r4):
    e1, e2, e3 = _unit(4, 0), _unit(4, 1), _unit(4, 2)
    assert pair_span_dim(complex_r4, e1, e3) == 4
    # the second hull coincides with the first: e2 is the rotated e1
    assert complex_r4.mats[1].apply(e1) == e2
    assert pair_span_dim(complex_r4, e1, e2) == 2


def test_pair_span_symmetry_and_diagonal(complex_r4, rng):
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        assert pair_span_dim(complex_r4, x, y) == pair_span_dim(complex_r4, y, x)
        assert pair_span_dim(complex_r4, x, x) == hull(complex_r4, x).dim


def test_generic_rank_complex_structure(complex_r4):
    cert = certify_generic_rank(complex_r4)
    assert isinstance(cert, RankCertificate)
    assert cert.kind == "generic"
    assert cert.claimed_rank == 2
    assert cert.pair is not None and cert.pair[2] == 4
    assert cert.closure is not None
    assert cert.inequality == (4, 4)


def test_generic_rank_quaternions_r8(quaternions_r8):
    cert = certify_generic_rank(quaternions_r8)
    assert isinstance(cert, RankCertificate)
    assert cert.claimed_rank == 4
    assert cert.pair[2] == 8


def test_generic_rank_quaternions_r4_too_small(quaternions_r4):
    result = certify_generic_rank(quaternions_r4)
    assert isinstance(result, Inapplicable)
    assert result.reason == "DimensionTooSmall"


def test_generic_rank_not_an_algebra():
    n = Matrix.exact([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    basis = AffinorBasis.of((Matrix.identity(4), n))
    result = certify_generic_rank(basis)
    assert isinstance(result, Inapplicable)
    assert result.reason == "NotAnAlgebra"


def test_generic_certificates_pass_independent_verification(complex_r4, quaternions_r8):
    for basis in (complex_r4, quaternions_r8):
        cert = certify_generic_rank(basis)
        ok, message = _verify_certificate_dict(cert.to_json())
        assert ok, message


def test_weak_certificates_pass_independent_verification(quaternions_r4):
    cert = weak_rank_witness(quaternions_r4)
    ok, message = _verify_certificate_dict(cert.to_json())
    assert ok, message


def test_tampered_certificate_fails_verification(complex_r4):
    cert = certify_generic_rank(complex_r4).to_json()
    bumped = dict(cert)
    bumped["claimed_rank"] = cert["claimed_rank"] + 1
    ok, _ = _verify_certificate_dict(bumped)
    assert not ok
    degenerate = dict(cert)
    degenerate["witness"] = [0] * 4
    ok, _ = _verify_certificate_dict(degenerate)
    assert not ok


def test_closure_failure_names_the_first_pair_in_row_major_order(quaternions_r8):
    cert = certify_generic_rank(quaternions_r8).to_json()
    c = cert["closure"]["C"]
    # (2, 1) comes first column by column, (1, 3) row by row
    c[2][1][0] = c[1][3][0] = 5
    expected = (False, "closure equation fails at pair (1, 3)")
    assert reference_verify_certificate(cert) == expected
    assert _verify_certificate_dict(cert) == expected


# ---------------------------------------------------------------------------
# Scalar multiples and inversion probing
# ---------------------------------------------------------------------------


def test_scalar_multiple_of_identity_oracle():
    # a scalar multiple of the identity never survives basis validation
    # (it is dependent with E), so the oracle runs on raw matrices
    e = Matrix.identity(4)
    assert scalar_multiple_of_identity(linear_combination([e], [3])) == Fraction(3)
    assert scalar_multiple_of_identity(Matrix.exact([[2, 0], [0, 2]])) == Fraction(2)
    assert scalar_multiple_of_identity(rotation_block(2)) is None
    with pytest.raises(InvalidBasis):
        AffinorBasis.of((Matrix.identity(2), Matrix.exact([[2, 0], [0, 2]])))
    # entries of 2**63 and more leave the view as Python ints in an object array
    big = 2**63
    assert scalar_multiple_of_identity(Matrix.exact([[big, 0], [0, big]])) == Fraction(big)
    assert scalar_multiple_of_identity(Matrix.exact([[big, 0], [0, big + 1]])) is None
    assert scalar_multiple_of_identity(Matrix.exact([[big, 1], [0, big]])) is None


def test_inversion_probe_quaternions(quaternions_r4):
    result = inversion_probe(quaternions_r4, trials=32)
    assert isinstance(result, AllSampledInvertible)
    assert result.implied_weak_rank == 4


def test_inversion_probe_projector_counterexample():
    p = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    basis = AffinorBasis.of((Matrix.identity(4), p))
    result = inversion_probe(basis)
    assert isinstance(result, CounterexampleFound)
    # the projector itself is the counterexample found by the
    # deterministic phase
    assert result.coeffs == (Fraction(0), Fraction(1))
    assert result.det == 0


def test_inversion_probe_samples_a_span_that_is_not_closed():
    # the trace-zero A has tr(A^2) = -10 < 0, but A^2 leaves span{E, A}, so
    # the theorem does not apply, and sampling finds a multiple of A +- 2E
    a = Matrix.exact([[0, -3, 0, 0], [3, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]])
    basis = AffinorBasis.of((Matrix.identity(4), a))
    assert not hullrank._is_division_algebra(basis)
    result = inversion_probe(basis)
    assert isinstance(result, CounterexampleFound)
    assert abs(result.coeffs[0]) == 2 * abs(result.coeffs[1])


def test_inversion_probe_identity_span():
    basis = AffinorBasis.of((Matrix.identity(3),))
    assert isinstance(inversion_probe(basis), AllSampledInvertible)


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------


def _counting(monkeypatch, module, name, counts, *aliases):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    for mod in (module, *aliases):
        monkeypatch.setattr(mod, name, counted)


def test_searches_make_one_product_per_batch(monkeypatch, quaternions_r8):
    # batches double from 1, so 85 pair candidates take 7 products and 67
    # probe samples 7; a one-at-a-time search makes 85 and 67
    from affinor_rank import hullrank

    counts, drawn = {}, []
    real_draws = hullrank._random_candidates

    def counted_draws(*args):
        for vec in real_draws(*args):
            drawn.append(vec)
            yield vec

    monkeypatch.setattr(hullrank, "_random_candidates", counted_draws)
    _counting(monkeypatch, hullrank, "_images", counts)
    _counting(monkeypatch, linalg, "combine", counts, hullrank)
    _counting(monkeypatch, linalg, "rank", counts, hullrank)
    p = Matrix.exact([[int(i == j == 0) for j in range(6)] for i in range(6)])
    basis = AffinorBasis.of((Matrix.identity(6), p))
    assert isinstance(weak_rank_witness(basis), RankCertificate)
    weak_products = counts.pop("_images")
    outcome = certify_generic_rank(basis)
    assert isinstance(outcome, NoWitnessFound) and outcome.stage == "pair"
    assert outcome.trials == 15 + 6 + 64
    assert counts.pop("_images") - weak_products <= 8
    # {E, M} with M^2 = 2E has no rational singular element, and is no
    # division algebra, so every random candidate is drawn
    two = AffinorBasis.of((Matrix.identity(2), Matrix.exact([[0, 2], [1, 0]])))
    drawn.clear()
    assert inversion_probe(two) == AllSampledInvertible(samples=67, implied_weak_rank=2)
    assert len(drawn) == 64 and counts.pop("combine") <= 8
    # the quaternions are a division algebra: its 5 fixed candidates take
    # batches of 1, 2 and 2, and no random one is drawn
    drawn.clear()
    assert inversion_probe(quaternions_r8) == AllSampledInvertible(samples=69, implied_weak_rank=4)
    assert counts.pop("combine") == 3 and not drawn
    assert "rank" not in counts
