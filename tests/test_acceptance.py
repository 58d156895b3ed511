"""Acceptance criteria, each at its stated tolerance and budget.

Every criterion runs through a seeded, side-effect-free runner returning a
canonical summary dict; the determinism criterion replays the runners and
compares summaries byte for byte.  One PASS line is printed per criterion.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from affinor_rank import (
    AffinorBasis,
    ClosedFormCurve,
    CliffordSignature,
    ConnectionSpec,
    Inapplicable,
    Matrix,
    RankCertificate,
    build_clifford,
    certify_generic_rank,
    clifford_rank_theorem_check,
    distribution_rank_check,
    find_frobenius_form,
    frobenius_iff_generic_rank,
    geodesic_integrate,
    planarity_check,
    projectors_from_splitting,
    Splitting,
    verify_clifford_relations,
    verify_complete_system,
    weak_rank_witness,
)
from affinor_rank.cli import verify_certificate_detailed
from affinor_rank.linalg import det

from conftest import (
    block_double,
    covariant_accel,
    doubled_generic_rank_check,
    dual_number_constants,
    flat_connection,
    local3_constants,
    matrix_algebra_2x2_constants,
    quaternion_matrices,
    rotation_block,
    scalar_multiple_of_identity,
)

SEED = 0


def _canon(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_criterion_1(seed: int) -> dict:
    """200 random two-element spans on R^4 all have weak rank 2."""
    rng = random.Random(seed + 101)
    e = Matrix.identity(4)
    certificates = []
    while len(certificates) < 200:
        f = Matrix.exact(
            [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        )
        if scalar_multiple_of_identity(f) is not None:
            continue
        cert = weak_rank_witness(AffinorBasis.of((e, f)), trials=8, seed=seed)
        assert isinstance(cert, RankCertificate) and cert.claimed_rank == 2
        certificates.append(cert.to_json())
    return {"cases": len(certificates), "all_rank_2": True, "certificates": certificates}


def run_criterion_2(seed: int) -> dict:
    """Generic-rank pipeline on the canonical complex/quaternion spans."""
    out: dict = {"certificates": []}
    for m in (4, 6):
        basis = AffinorBasis.of((Matrix.identity(m), rotation_block(m)))
        cert = certify_generic_rank(basis, seed=seed)
        assert isinstance(cert, RankCertificate) and cert.kind == "generic"
        out[f"complex_r{m}_rank"] = cert.claimed_rank
        out["certificates"].append(cert.to_json())
    quats = quaternion_matrices()
    r8 = AffinorBasis.of(tuple(block_double(mat) for mat in quats))
    cert8 = certify_generic_rank(r8, seed=seed)
    assert isinstance(cert8, RankCertificate)
    out["quaternion_r8_rank"] = cert8.claimed_rank
    out["certificates"].append(cert8.to_json())
    r4 = AffinorBasis.of(quats)
    blocked = certify_generic_rank(r4, seed=seed)
    assert isinstance(blocked, Inapplicable)
    out["quaternion_r4"] = blocked.to_json()
    return out


def run_criterion_3(seed: int) -> dict:
    """Frobenius suite with the module-rank agreement for all three algebras."""
    out: dict = {"certificates": []}
    cases = {
        "dual_numbers": dual_number_constants(),
        "local3": local3_constants(),
        "matrix_algebra_2x2": matrix_algebra_2x2_constants(),
    }
    for name, sc in cases.items():
        verdict = find_frobenius_form(sc, seed=seed)
        equivalence = frobenius_iff_generic_rank(sc, seed=seed)
        entry = {
            "status": verdict.status,
            "agree": equivalence.agree,
            "rank_positive": equivalence.rank_positive,
        }
        if verdict.status == "frobenius":
            entry["lambda"] = [str(v) for v in verdict.witness.lam]
        if verdict.status == "not_frobenius":
            entry["proof_kind"] = verdict.proof["kind"]
        if isinstance(equivalence.module_rank, RankCertificate):
            out["certificates"].append(equivalence.module_rank.to_json())
        out[name] = entry
    return out


def run_criterion_4(seed: int) -> dict:
    """Clifford builds, relation checks and rank claims up to six generators."""
    out: dict = {"signatures": {}, "certificates": []}
    for total in range(1, 7):
        for s in range(total + 1):
            t = total - s
            sig = CliffordSignature(s, t)
            cb = build_clifford(sig)
            relations = verify_clifford_relations(cb)
            cert = clifford_rank_theorem_check(cb, seed=seed)
            entry = {
                "dim": sig.dim,
                "relations_ok": relations.ok,
                "rank": cert.claimed_rank,
            }
            out["certificates"].append(cert.to_json())
            if total <= 3:
                doubled = doubled_generic_rank_check(sig, seed=seed)
                assert isinstance(doubled, RankCertificate)
                entry["doubled_generic_rank"] = doubled.claimed_rank
                out["certificates"].append(doubled.to_json())
            out["signatures"][f"Cl({s},{t})"] = entry
    return out


def _thick_composition(rng: random.Random, m: int) -> list[int]:
    parts = []
    left = m
    while left:
        if left <= 3:
            parts.append(left)
            break
        p = rng.randint(2, min(4, left - 2))
        parts.append(p)
        left -= p
    return parts


def _any_composition(rng: random.Random, m: int) -> list[int]:
    parts = []
    left = m
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return parts


def _random_invertible(rng: random.Random, m: int) -> Matrix:
    while True:
        q = Matrix.exact([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
        if det(q) != 0:
            return q


def run_criterion_5(seed: int) -> dict:
    """100 random conjugated splittings: identities plus rank certificates.

    Hull pairs cannot reach the doubled dimension when a block is a line
    (both hulls meet it in the same one-dimensional trace), so fixtures
    aimed at the generic branch use blocks of size at least two.
    """
    rng = random.Random(seed + 505)
    out: dict = {"cases": 0, "generic_cases": 0, "certificates": []}
    while out["cases"] < 100:
        m = rng.randint(2, 12)
        if rng.random() < 0.5:
            dims = _thick_composition(rng, m)
        else:
            dims = _any_composition(rng, m)
            if 2 * len(dims) <= m and min(dims) == 1:
                continue
        q = _random_invertible(rng, m)
        system = projectors_from_splitting(Splitting(m, tuple(dims), q))
        assert verify_complete_system(system).ok
        report = distribution_rank_check(system, trials=16, seed=seed)
        n = len(dims)
        assert report.weak.claimed_rank == n
        out["certificates"].append(report.weak.to_json())
        if 2 * n <= m:
            assert isinstance(report.generic, RankCertificate), (m, dims)
            assert report.generic.claimed_rank == n
            out["certificates"].append(report.generic.to_json())
            out["generic_cases"] += 1
        else:
            assert isinstance(report.generic, Inapplicable)
        out["cases"] += 1
    return out


def _random_basis(rng: random.Random, m: int) -> AffinorBasis:
    e = Matrix.identity(m)
    while True:
        mats = [e]
        for _ in range(rng.choice((1, 1, 2))):
            mats.append(
                Matrix.exact([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            )
        try:
            return AffinorBasis.of(tuple(mats))
        except Exception:
            continue


def run_criterion_6(seed: int) -> dict:
    out: dict = {}
    rng = random.Random(seed + 606)

    # (a) integrated geodesics pass for every basis
    bases = [_random_basis(rng, 4) for _ in range(20)]
    worst = 0.0
    for _ in range(50):
        gamma = [
            [[0.25 * rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
            for _ in range(4)
        ]
        conn = ConnectionSpec.constant(gamma)
        x0 = [rng.uniform(-0.5, 0.5) for _ in range(4)]
        v0 = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        if sum(v * v for v in v0) < 0.25:
            v0[0] += 1.0
        curve = geodesic_integrate(conn, x0, v0, 1.0, 2000)
        for basis in bases:
            report = planarity_check(basis, conn, curve, samples=12, tol=1e-6)
            assert report.verdict == "planar", report.max_residual
            worst = max(worst, report.max_residual)
    assert worst <= 1e-5
    out["geodesic_max_residual"] = worst

    # (b) dimension two: every smooth closed-form curve passes
    basis2 = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    curves = [
        ClosedFormCurve(2, (0.0, 6.0), ((("cos", 1.0, 1.0),), (("sin", 1.0, 1.0),))),
        ClosedFormCurve(2, (0.1, 3.0), ((("power", 1.0, 2.0),),
                                        (("power", 1.0, 1.0), ("power", -0.5, 3.0)))),
        ClosedFormCurve(2, (0.0, 4.0), ((("cos", 2.0, 0.7), ("power", 0.3, 1.0)),
                                        (("sin", 1.5, 1.1),))),
        ClosedFormCurve(2, (-1.0, 1.0), ((("power", 1.0, 1.0),),
                                         (("power", 1.0, 2.0), ("power", 0.5, 0.0)))),
        ClosedFormCurve(2, (0.0, 5.0), ((("sin", 1.0, 0.5), ("power", 0.2, 2.0)),
                                        (("cos", 1.0, 0.9),))),
    ]
    gamma2 = [[[0.2 * rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
              for _ in range(2)]
    verdicts = []
    for curve in curves:
        for conn in (flat_connection(2), ConnectionSpec.constant(gamma2)):
            report = planarity_check(basis2, conn, curve, samples=30, tol=1e-6)
            verdicts.append(report.verdict)
    assert all(v == "planar" for v in verdicts)
    out["dimension_two_curves"] = len(verdicts)

    # (c) the helix fails against the complex structure on R^4
    basis4 = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    helix = ClosedFormCurve(
        4, (0.0, 2 * math.pi),
        ((("cos", 1.0, 1.0),), (("sin", 1.0, 1.0),),
         (("power", 1.0, 1.0),), ()),
    )
    helix_report = planarity_check(basis4, flat_connection(4), helix, samples=25)
    assert helix_report.verdict == "not_planar"
    assert helix_report.counterexample is not None
    out["helix_counterexample_t"] = helix_report.counterexample[0]
    out["helix_residual"] = helix_report.counterexample[1]

    # (d) order-2 convergence of sampled-mode acceleration under halving
    from affinor_rank import SampledCurve

    smooth = ClosedFormCurve(
        2, (0.0, 2.0),
        ((("cos", 1.0, 1.3),), (("power", 0.25, 3.0), ("sin", 0.5, 2.0))),
    )
    conn_flat = flat_connection(2)
    exact = covariant_accel(conn_flat, smooth, 1.0)
    errors = []
    for steps in (64, 128):
        ts = np.linspace(0.0, 2.0, steps + 1)
        sampled = SampledCurve.of(ts, [smooth.jet(t)[0] for t in ts])
        approx = covariant_accel(conn_flat, sampled, sampled.ts[sampled.index_of(1.0)])
        errors.append(float(np.linalg.norm(approx - exact)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5
    out["convergence_ratio"] = ratio
    return out


# ---------------------------------------------------------------------------
# Cached first runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c1():
    start = time.monotonic()
    summary = run_criterion_1(SEED)
    return summary, time.monotonic() - start


@pytest.fixture(scope="module")
def c2():
    return run_criterion_2(SEED), 0.0


@pytest.fixture(scope="module")
def c3():
    start = time.monotonic()
    summary = run_criterion_3(SEED)
    return summary, time.monotonic() - start


@pytest.fixture(scope="module")
def c4():
    start = time.monotonic()
    summary = run_criterion_4(SEED)
    return summary, time.monotonic() - start


@pytest.fixture(scope="module")
def c5():
    start = time.monotonic()
    summary = run_criterion_5(SEED)
    return summary, time.monotonic() - start


@pytest.fixture(scope="module")
def c6():
    return run_criterion_6(SEED), 0.0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_weak_rank_two_for_random_pairs(c1):
    summary, elapsed = c1
    assert summary["cases"] == 200
    assert summary["all_rank_2"]
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS: 200/200 two-element spans at weak rank 2 "
          f"in {elapsed:.2f}s")


def test_criterion_2_generic_rank_pipeline(c2):
    summary, _ = c2
    assert summary["complex_r4_rank"] == 2
    assert summary["complex_r6_rank"] == 2
    assert summary["quaternion_r8_rank"] == 4
    assert summary["quaternion_r4"]["reason"] == "DimensionTooSmall"
    print("\n[criterion 2] PASS: generic rank 2 on R^4/R^6, 4 on R^8, "
          "inapplicable on R^4 quaternions")


def test_criterion_3_frobenius_suite(c3):
    summary, elapsed = c3
    assert summary["dual_numbers"]["status"] == "frobenius"
    assert "lambda" in summary["dual_numbers"]
    assert summary["local3"]["status"] == "not_frobenius"
    assert summary["local3"]["proof_kind"] == "symbolic_zero_determinant"
    assert summary["matrix_algebra_2x2"]["status"] == "frobenius"
    for case in ("dual_numbers", "local3", "matrix_algebra_2x2"):
        assert summary[case]["agree"] is True
    assert elapsed < 10.0
    print(f"\n[criterion 3] PASS: Frobenius suite with module-rank agreement "
          f"in {elapsed:.2f}s")


def test_criterion_4_clifford_ranks(c4):
    summary, elapsed = c4
    count = 0
    for total in range(1, 7):
        for s in range(total + 1):
            entry = summary["signatures"][f"Cl({s},{total - s})"]
            assert entry["relations_ok"]
            assert entry["rank"] == 2 ** total
            if total <= 3:
                assert entry["doubled_generic_rank"] == 2 ** total
            count += 1
    assert count == 27
    assert elapsed < 60.0
    print(f"\n[criterion 4] PASS: 27 signatures verified, ranks 2^(s+t), "
          f"doubled generic rank up to three generators, in {elapsed:.2f}s")


def test_criterion_5_distributions(c5):
    summary, elapsed = c5
    assert summary["cases"] == 100
    assert summary["generic_cases"] > 20
    assert elapsed < 30.0
    print(f"\n[criterion 5] PASS: 100 conjugated splittings verified "
          f"({summary['generic_cases']} with generic certificates) in {elapsed:.2f}s")


def test_criterion_6_planarity(c6):
    summary, _ = c6
    assert summary["geodesic_max_residual"] <= 1e-5
    assert summary["dimension_two_curves"] == 10
    assert summary["helix_counterexample_t"] == 0.0
    assert 3.5 <= summary["convergence_ratio"] <= 4.5
    print(f"\n[criterion 6] PASS: geodesics planar (max residual "
          f"{summary['geodesic_max_residual']:.2e}), dimension-two curves planar, "
          f"helix refuted at t=0, convergence ratio {summary['convergence_ratio']:.2f}")


def test_criterion_7_certificate_audit(c1, c2, c3, c4, c5, tmp_path):
    total = 0
    for name, (summary, _) in {
        "c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5
    }.items():
        certs = summary.get("certificates", [])
        assert certs, f"{name} produced no certificates"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"result": {"certificates": certs}}))
        assert verify_certificate_detailed(path)[0], f"{name} certificate audit failed"
        total += len(certs)
    print(f"\n[criterion 7] PASS: {total} certificates re-verified through "
          "the independent path")


def test_criterion_8_determinism(c1, c2, c3, c4, c5, c6):
    reruns = {
        "c1": run_criterion_1(SEED),
        "c2": run_criterion_2(SEED),
        "c3": run_criterion_3(SEED),
        "c4": run_criterion_4(SEED),
        "c5": run_criterion_5(SEED),
        "c6": run_criterion_6(SEED),
    }
    firsts = {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5, "c6": c6}
    for name, rerun in reruns.items():
        assert _canon(rerun) == _canon(firsts[name][0]), f"{name} is not deterministic"
    print("\n[criterion 8] PASS: criteria 1-6 reproduce identical reports under "
          "the same seed")
