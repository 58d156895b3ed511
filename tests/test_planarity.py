"""Covariant acceleration, planarity residuals and geodesic integration."""

import math
import random

import numpy as np
import pytest

from affinor_rank import (
    AffinorBasis,
    ClosedFormCurve,
    ConnectionSpec,
    Matrix,
    SampledCurve,
    geodesic_integrate,
    inverse,
    planarity_check,
)
from affinor_rank.errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteState,
    OutOfDomain,
)
from affinor_rank.planarity import _integrate_second_order

from conftest import covariant_accel, flat_connection, random_exact_matrix, rotation_block


def _line(m, point, velocity, domain=(0.0, 1.0)):
    coords = []
    for p, v in zip(point, velocity):
        terms = []
        if p:
            terms.append(("power", float(p), 0.0))
        if v:
            terms.append(("power", float(v), 1.0))
        coords.append(tuple(terms))
    return ClosedFormCurve(m, domain, tuple(coords))


def _circle4(domain=(0.0, 2 * math.pi)):
    return ClosedFormCurve(
        4,
        domain,
        (
            (("cos", 1.0, 1.0),),
            (("sin", 1.0, 1.0),),
            (),
            (),
        ),
    )


def _helix4(domain=(0.0, 2 * math.pi)):
    return ClosedFormCurve(
        4,
        domain,
        (
            (("cos", 1.0, 1.0),),
            (("sin", 1.0, 1.0),),
            (("power", 1.0, 1.0),),
            (),
        ),
    )


def _random_constant_connection(rng, m, scale=0.3):
    g = [[[scale * rng.uniform(-1, 1) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    return ConnectionSpec.constant(g)


# ---------------------------------------------------------------------------
# covariant acceleration
# ---------------------------------------------------------------------------


def test_flat_straight_line_has_zero_acceleration():
    conn = flat_connection(3)
    line = _line(3, (1.0, 2.0, 0.0), (0.5, -1.0, 2.0))
    for t in np.linspace(0.0, 1.0, 7):
        acc = covariant_accel(conn, line, float(t))
        assert np.allclose(acc, 0.0, atol=1e-14)


def test_circle_acceleration_matches_symbolic_second_derivative():
    conn = flat_connection(4)
    circle = _circle4()
    for t in (0.0, 0.7, 2.0):
        acc = covariant_accel(conn, circle, t)
        expected = np.array([-math.cos(t), -math.sin(t), 0.0, 0.0])
        assert np.allclose(acc, expected, atol=1e-12)


def test_single_christoffel_entry():
    # straight line along e1 with unit speed picks up exactly G[0][0][0]
    g = [[[0.0] * 1 for _ in range(1)] for _ in range(1)]
    g[0][0][0] = 1.0
    conn = ConnectionSpec.constant(g)
    line = _line(1, (0.0,), (1.0,))
    acc = covariant_accel(conn, line, 0.5)
    assert np.allclose(acc, [1.0])


def test_polynomial_connection_evaluation():
    # G[0][0][0](x) = x_0^2: acceleration at position x along e1 is x_0^2
    table = [[[(), ()], [(), ()]], [[(), ()], [(), ()]]]
    table[0][0][0] = ((1.0, (2, 0)),)
    conn = ConnectionSpec.polynomial(2, table)
    line = _line(2, (3.0, 0.0), (1.0, 0.0))
    acc = covariant_accel(conn, line, 0.0)
    assert np.allclose(acc, [9.0, 0.0])


def test_out_of_domain_and_grid_snapping():
    conn = flat_connection(2)
    circle = ClosedFormCurve(2, (0.0, 1.0), ((("cos", 1.0, 1.0),), (("sin", 1.0, 1.0),)))
    with pytest.raises(OutOfDomain):
        covariant_accel(conn, circle, 2.0)
    ts = np.linspace(0.0, 1.0, 11)
    sampled = SampledCurve.of(ts, [[math.cos(t), math.sin(t)] for t in ts])
    with pytest.raises(OutOfDomain):
        covariant_accel(conn, sampled, 0.137)  # between grid points
    with pytest.raises(InsufficientSamples):
        covariant_accel(conn, sampled, 0.0)  # no interior neighbors


def test_sampled_curve_validation():
    with pytest.raises(InsufficientSamples):
        SampledCurve.of([0.0, 0.1, 0.2], [[0.0]] * 3)
    with pytest.raises(ValueError):
        SampledCurve.of([0.0, 0.1, 0.15, 0.3, 0.4], [[0.0]] * 5)
    ts = [0.1 * k for k in range(5)]
    for bad in (math.nan, math.inf, None):  # None would read as nan
        with pytest.raises(ValueError):
            SampledCurve.of(ts, [[0.0], [0.1], [bad], [0.3], [0.4]])
    with pytest.raises(DimensionMismatch):
        SampledCurve.of(ts, [[0.0]] * 5, [[0.0, 1.0]] * 5)


def test_jets_agree_between_closed_form_and_sampled_curves():
    # a quadratic's centered differences are exact up to rounding
    curve = ClosedFormCurve(2, (0.0, 1.0), ((("power", 1.0, 2.0),), (("power", 3.0, 1.0),)))
    ts = np.linspace(0.0, 1.0, 11)
    sampled = SampledCurve.of(ts, [curve.jet(t)[0] for t in ts])
    for got, want in zip(sampled.jet(ts[4]), curve.jet(ts[4])):
        assert np.allclose(got, want, atol=1e-12)
    assert sampled.sample_times(50) == [float(t) for t in ts[1:-1]]
    assert curve.sample_times(3) == [0.0, 0.5, 1.0]


def test_arrays_are_read_only():
    conn = _random_constant_connection(random.Random(2), 2)
    ts = np.linspace(0.0, 1.0, 6)
    curve = SampledCurve.of(ts, [[t, t * t] for t in ts], [[1.0, 2 * t] for t in ts])
    for arr in (conn.gamma_at(np.zeros(2)), curve.ts, curve.points, curve.velocities):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the factories copy what they read: the caller's arrays stay writable
    g = np.zeros((2, 2, 2))
    ConnectionSpec.constant(g)
    g[0, 0, 0] = 1.0


def test_non_finite_jets_raise():
    # a NaN coefficient in a polynomial connection, and a tangent whose
    # squared length overflows, never reach a residual
    table = [[[(), ()], [(), ()]], [[(), ()], [(), ()]]]
    table[0][0][0] = ((math.nan, (0, 0)),)
    line = _line(2, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(NonFiniteState):
        covariant_accel(ConnectionSpec.polynomial(2, table), line, 0.5)
    fast = _line(2, (0.0, 0.0), (1e300, 0.0))
    basis = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    with pytest.raises(NonFiniteState):
        planarity_check(basis, flat_connection(2), fast)
    with pytest.raises(ValueError):
        ConnectionSpec.constant([[[math.nan]]])


def test_sampled_acceleration_second_order_convergence():
    # halving the grid step shrinks the finite-difference error about 4x
    conn = flat_connection(2)
    curve = ClosedFormCurve(
        2, (0.0, 2.0),
        ((("cos", 1.0, 1.3),), (("power", 0.25, 3.0), ("sin", 0.5, 2.0))),
    )
    t_star = 1.0
    exact = covariant_accel(conn, curve, t_star)
    errors = []
    for steps in (64, 128):
        ts = np.linspace(0.0, 2.0, steps + 1)
        sampled = SampledCurve.of(ts, [curve.jet(t)[0] for t in ts])
        idx = sampled.index_of(t_star)
        approx = covariant_accel(conn, sampled, sampled.ts[idx])
        errors.append(float(np.linalg.norm(approx - exact)))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# planarity verdicts
# ---------------------------------------------------------------------------


def test_straight_lines_are_planar_for_every_basis(rng):
    conn = flat_connection(4)
    line = _line(4, (0.0, 1.0, 2.0, 3.0), (1.0, -1.0, 0.5, 2.0))
    for _ in range(5):
        f = random_exact_matrix(rng, 4, 4, bound=3)
        try:
            basis = AffinorBasis.of((Matrix.identity(4), f))
        except Exception:
            continue
        report = planarity_check(basis, conn, line, samples=10)
        assert report.verdict == "planar"
        assert report.max_residual == 0.0


def test_dimension_two_everything_is_planar(rng):
    basis = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    curves = [
        ClosedFormCurve(2, (0.0, 6.0), ((("cos", 1.0, 1.0),), (("sin", 1.0, 1.0),))),
        ClosedFormCurve(2, (0.1, 3.0), ((("power", 1.0, 2.0),), (("power", 1.0, 1.0), ("power", -0.5, 3.0)))),
        ClosedFormCurve(2, (0.0, 4.0), ((("cos", 2.0, 0.7), ("power", 0.3, 1.0)), (("sin", 1.5, 1.1),))),
    ]
    conns = [flat_connection(2), _random_constant_connection(rng, 2)]
    for curve in curves:
        for conn in conns:
            report = planarity_check(basis, conn, curve, samples=25)
            assert report.verdict == "planar", (curve, report.max_residual)


def test_helix_fails_with_counterexample():
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    report = planarity_check(basis, flat_connection(4), _helix4(), samples=25)
    assert report.verdict == "not_planar"
    assert report.counterexample is not None
    t, residual = report.counterexample
    assert t == 0.0
    # hand computation: distance from (-1,0,0,0) to span{tangent, rotated
    # tangent} at t = 0 is 1/sqrt(2) of the acceleration's length
    assert abs(residual - 1 / math.sqrt(2)) < 1e-9


def test_circle_is_planar_for_complex_structure_on_r4():
    # acceleration is -position, which is the rotated tangent
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    report = planarity_check(basis, flat_connection(4), _circle4(), samples=30)
    assert report.verdict == "planar"


def test_residuals_stay_in_unit_interval(rng):
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    conn = _random_constant_connection(rng, 4, scale=1.0)
    report = planarity_check(basis, conn, _helix4(), samples=20)
    for r in report.residuals:
        if r is not None:
            assert 0.0 <= r <= 1.0


def test_degenerate_tangent_flagged_indeterminate():
    # the cusp curve (t^2, t^3) has a vanishing tangent at t = 0; keep the
    # domain tight enough that most samples sit below the tolerance
    curve = ClosedFormCurve(
        2, (-0.0004, 0.0004),
        ((("power", 1.0, 2.0),), (("power", 1.0, 3.0),)),
    )
    basis = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    report = planarity_check(basis, flat_connection(2), curve, samples=5, tol=1e-3)
    assert report.degenerate_samples == 5
    assert report.verdict == "indeterminate"


def test_planarity_dimension_checks():
    basis = AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
    with pytest.raises(DimensionMismatch):
        planarity_check(basis, flat_connection(2), _circle4())
    with pytest.raises(InsufficientSamples):
        planarity_check(basis, flat_connection(4), _circle4(), samples=2)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_flat_geodesics_are_straight_lines():
    conn = flat_connection(3)
    curve = geodesic_integrate(conn, [1.0, 0.0, -2.0], [0.5, 1.0, 0.25], 2.0, 50)
    for i, t in enumerate(curve.ts):
        expected = np.array([1.0, 0.0, -2.0]) + t * np.array([0.5, 1.0, 0.25])
        assert np.allclose(curve.points[i], expected, atol=1e-12)
        assert np.allclose(curve.velocities[i], [0.5, 1.0, 0.25], atol=1e-12)


def test_geodesic_step_count_guard():
    with pytest.raises(ValueError):
        geodesic_integrate(flat_connection(2), [0.0, 0.0], [1.0, 0.0], 1.0, 5)


def test_geodesic_blowup_detected():
    g = [[[0.0]]]
    g[0][0][0] = -80.0  # x'' = 80 x'^2 explodes in finite time
    conn = ConnectionSpec.constant(g)
    with pytest.raises(NonFiniteState):
        geodesic_integrate(conn, [0.0], [1.0], 5.0, 200)


def test_geodesic_fourth_order_self_convergence():
    rng = random.Random(3)
    conn = _random_constant_connection(rng, 3, scale=0.4)
    end = []
    for steps in (100, 200):
        curve = geodesic_integrate(conn, [0.1, -0.2, 0.3], [1.0, 0.5, -0.7], 1.0, steps)
        end.append(np.array(curve.points[-1]))
    fine = geodesic_integrate(conn, [0.1, -0.2, 0.3], [1.0, 0.5, -0.7], 1.0, 1600)
    ref = np.array(fine.points[-1])
    e1 = float(np.linalg.norm(end[0] - ref))
    e2 = float(np.linalg.norm(end[1] - ref))
    assert e1 / e2 > 12  # fourth order would give ~16


def test_geodesics_pass_planarity_for_random_bases(rng):
    conn = _random_constant_connection(rng, 4, scale=0.25)
    curve = geodesic_integrate(conn, [0.1, 0.2, -0.1, 0.3], [1.0, -0.5, 0.7, 0.2], 1.0, 2000)
    for _ in range(5):
        f = random_exact_matrix(rng, 4, 4, bound=3)
        try:
            basis = AffinorBasis.of((Matrix.identity(4), f))
        except Exception:
            continue
        report = planarity_check(basis, conn, curve, samples=15, tol=1e-6)
        assert report.verdict == "planar"
        assert report.max_residual <= 1e-5


def test_affine_reparameterization_preserves_geodesic_planarity():
    rng = random.Random(8)
    conn = _random_constant_connection(rng, 3, scale=0.3)
    basis = AffinorBasis.of((Matrix.identity(3), random_exact_matrix(rng, 3, 3, bound=2)))
    base = geodesic_integrate(conn, [0.0, 0.1, 0.2], [1.0, 0.4, -0.3], 1.0, 1500)
    # t -> a t + b with a = 2: same trace, doubled velocity
    repar = geodesic_integrate(conn, [0.0, 0.1, 0.2], [2.0, 0.8, -0.6], 0.5, 1500)
    for curve in (base, repar):
        report = planarity_check(basis, conn, curve, samples=12)
        assert report.verdict == "planar"


def test_fplanar_curves_stay_planar_in_enclosing_span():
    # integrate x'' = -G(x', x') + a x' + b F x': planar for {E, F} by
    # construction, hence for any span containing both
    rng = random.Random(21)
    conn = _random_constant_connection(rng, 4, scale=0.2)
    f_mat = rotation_block(4)
    f_np = f_mat.to_ndarray()
    alpha, beta = 0.3, -0.8

    def accel(x, v):
        g = conn.gamma_at(x)
        return -np.einsum("kij,i,j->k", g, v, v) + alpha * v + beta * (f_np @ v)

    curve = _integrate_second_order(accel, [0.2, 0.0, 0.1, -0.1], [1.0, 0.3, -0.4, 0.6], 1.0, 2000)
    small = AffinorBasis.of((Matrix.identity(4), f_mat))
    report_small = planarity_check(small, conn, curve, samples=15)
    assert report_small.verdict == "planar"
    # enclosing span: {E, F, F^2 = -E ...} needs an independent extension;
    # use a projector commutant-free third element containing span{E, F}
    third = Matrix.exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    big = AffinorBasis.of((Matrix.identity(4), f_mat, third))
    report_big = planarity_check(big, conn, curve, samples=15)
    assert report_big.verdict == "planar"


def test_polynomial_disguised_flat_connection():
    # pull the flat connection back through the cubic shear
    # (x1, x2) = (y1, y2 + y1^3): the only nonzero coefficient becomes
    # G[1][0][0](y) = 6 y1, and geodesics are preimages of straight lines
    table = [[[(), ()], [(), ()]], [[(), ()], [(), ()]]]
    table[1][0][0] = ((6.0, (1, 0)),)
    conn = ConnectionSpec.polynomial(2, table)

    a, b, c, d = 0.3, 1.1, -0.2, 0.7
    x0 = [a, c - a ** 3]
    v0 = [b, d - 3 * a * a * b]
    curve = geodesic_integrate(conn, x0, v0, 1.0, 400)
    for i, t in enumerate(curve.ts):
        y1 = a + b * t
        y2 = (c + d * t) - y1 ** 3
        assert np.allclose(curve.points[i], [y1, y2], atol=1e-9), t
    basis = AffinorBasis.of((Matrix.identity(2), rotation_block(2)))
    report = planarity_check(basis, conn, curve, samples=15)
    assert report.verdict == "planar"


def test_covariance_under_linear_change_of_frame():
    # transform connection, curve, and affinors by the same linear map;
    # residual profile is preserved for the constant-coefficient case
    rng = random.Random(13)
    conn = _random_constant_connection(rng, 3, scale=0.3)
    a_exact = Matrix.exact([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    a_inv_exact = inverse(a_exact)
    a, a_inv = a_exact.to_ndarray(), a_inv_exact.to_ndarray()
    g = np.array(conn.constant_gamma)
    g_new = np.einsum("ka,abc,bi,cj->kij", a, g, a_inv, a_inv)
    conn_new = ConnectionSpec.constant(g_new.tolist())

    curve = geodesic_integrate(conn, [0.1, 0.2, 0.0], [1.0, -0.3, 0.5], 1.0, 1000)
    pts_new = [tuple(a @ np.array(p)) for p in curve.points]
    vels_new = [tuple(a @ np.array(v)) for v in curve.velocities]
    curve_new = SampledCurve.of(curve.ts, pts_new, vels_new)

    f = Matrix.exact([[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]])
    basis = AffinorBasis.of((Matrix.identity(3), f))
    basis_new = AffinorBasis.of((Matrix.identity(3), a_exact @ f @ a_inv_exact))

    rep = planarity_check(basis, conn, curve, samples=10)
    rep_new = planarity_check(basis_new, conn_new, curve_new, samples=10)
    assert rep.verdict == rep_new.verdict == "planar"
    for r1, r2 in zip(rep.residuals, rep_new.residuals):
        assert (r1 is None) == (r2 is None)
