"""Planarity of parameterized curves under a linear connection.

A curve is planar for an affinor span when its covariant acceleration
stays inside the hull of its tangent vector.  The membership test is a
relative least-squares residual, not a float rank of an augmented matrix:
rank is discontinuous under perturbation, while the residual degrades
gracefully and can be asserted against a tolerance.

Conventions:

* covariant acceleration components: ``a^k = x''^k + G[k][i][j] x'^i x'^j``
  with ``G`` the connection coefficients at the current position;
* closed-form curves (polynomial and trigonometric terms) are
  differentiated symbolically, so their residuals carry no discretization
  error; sampled curves use order-2 centered differences;
* a sample where the acceleration is negligible against ``|tangent|^2``
  passes outright (the zero vector lies in every subspace), so geodesic
  points never fail by division noise;
* samples with a vanishing tangent are skipped and counted; a curve
  degenerate on more than 20% of its samples is reported indeterminate
  rather than planar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteState,
    OutOfDomain,
)
from .hullrank import AffinorBasis

DEFAULT_PLANARITY_TOL = 1e-6
DEFAULT_SAMPLES = 50

_MIN_SAMPLES = 5
_DEGENERATE_FRACTION = 0.2
_GRID_SNAP = 0.01  # fraction of the step within which t must hit a grid point


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------

PolyTerm = tuple[float, tuple[int, ...]]  # (coefficient, exponent per coordinate)


@dataclass(frozen=True)
class ConnectionSpec:
    """Connection coefficients, constant or polynomial in position."""

    m: int
    constant_gamma: Optional[tuple] = None
    poly_gamma: Optional[tuple] = None  # [k][i][j] -> tuple of PolyTerm

    def __post_init__(self):
        if (self.constant_gamma is None) == (self.poly_gamma is None):
            raise ValueError("exactly one of constant or polynomial coefficients")
        for table in (self.constant_gamma, self.poly_gamma):
            if table is None:
                continue
            if len(table) != self.m or any(
                len(plane) != self.m or any(len(row) != self.m for row in plane)
                for plane in table
            ):
                raise DimensionMismatch("coefficient table is not m x m x m")

    @staticmethod
    def constant(gamma) -> "ConnectionSpec":
        arr = tuple(tuple(tuple(float(v) for v in row) for row in plane) for plane in gamma)
        return ConnectionSpec(len(arr), constant_gamma=arr)

    @staticmethod
    def flat(m: int) -> "ConnectionSpec":
        zero = tuple(tuple(tuple(0.0 for _ in range(m)) for _ in range(m)) for _ in range(m))
        return ConnectionSpec(m, constant_gamma=zero)

    @staticmethod
    def polynomial(m: int, table) -> "ConnectionSpec":
        normal = tuple(
            tuple(
                tuple(
                    tuple((float(c), tuple(int(p) for p in powers)) for c, powers in cell)
                    for cell in row
                )
                for row in plane
            )
            for plane in table
        )
        return ConnectionSpec(m, poly_gamma=normal)

    def gamma_at(self, x: np.ndarray) -> np.ndarray:
        if self.constant_gamma is not None:
            return np.array(self.constant_gamma, dtype=float)
        out = np.zeros((self.m, self.m, self.m))
        for k, plane in enumerate(self.poly_gamma):
            for i, row in enumerate(plane):
                for j, terms in enumerate(row):
                    total = 0.0
                    for coeff, powers in terms:
                        v = coeff
                        for xc, p in zip(x, powers):
                            if p:
                                v *= xc ** p
                        total += v
                    out[k, i, j] = total
        return out


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

# closed-form term: ("power", coeff, exponent) | ("cos"|"sin", coeff, omega)
Term = tuple[str, float, float]


def _eval_term(term: Term, t: float, deriv: int) -> float:
    kind, coeff, param = term
    if kind == "power":
        e = int(param)
        for _ in range(deriv):
            if e == 0:
                return 0.0
            coeff *= e
            e -= 1
        return coeff * t ** e if e else coeff
    w = param
    scaled = coeff * w ** deriv
    phase = deriv % 4
    if kind == "sin":
        phase = (phase + 3) % 4  # sin = cos shifted back a quarter period
    # d/dt cos(wt) cycle: cos, -sin, -cos, sin
    wt = w * t
    value = (math.cos(wt), -math.sin(wt), -math.cos(wt), math.sin(wt))[phase]
    return scaled * value


@dataclass(frozen=True)
class ClosedFormCurve:
    """Curve with exact polynomial/trigonometric coordinate functions."""

    m: int
    domain: tuple[float, float]
    coords: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        if len(self.coords) != self.m:
            raise DimensionMismatch("one term list per coordinate is required")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("domain must be a nondegenerate interval")

    def _check_domain(self, t: float):
        t0, t1 = self.domain
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise OutOfDomain(f"t = {t} outside [{t0}, {t1}]")

    def _derivative(self, t: float, deriv: int) -> np.ndarray:
        return np.array(
            [sum(_eval_term(term, t, deriv) for term in comp) for comp in self.coords]
        )

    def pos(self, t: float) -> np.ndarray:
        self._check_domain(t)
        return self._derivative(t, 0)

    def vel(self, t: float) -> np.ndarray:
        self._check_domain(t)
        return self._derivative(t, 1)

    def acc(self, t: float) -> np.ndarray:
        self._check_domain(t)
        return self._derivative(t, 2)


@dataclass(frozen=True)
class SampledCurve:
    """Curve known at uniform grid points, optionally with velocities."""

    m: int
    ts: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    velocities: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if len(self.ts) < _MIN_SAMPLES:
            raise InsufficientSamples(
                f"need at least {_MIN_SAMPLES} samples, got {len(self.ts)}"
            )
        if len(self.points) != len(self.ts):
            raise DimensionMismatch("one point per sample time is required")
        if any(len(p) != self.m for p in self.points):
            raise DimensionMismatch("sample points must have length m")
        diffs = np.diff(np.array(self.ts))
        if np.any(diffs <= 0):
            raise ValueError("sample grid must be strictly increasing")
        h = diffs[0]
        if np.max(np.abs(diffs - h)) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("sample grid must be uniform")
        if self.velocities is not None and len(self.velocities) != len(self.ts):
            raise DimensionMismatch("one velocity per sample time is required")

    @staticmethod
    def of(ts, points, velocities=None) -> "SampledCurve":
        pts = tuple(tuple(map(float, p)) for p in points)
        vel = None if velocities is None else tuple(tuple(map(float, p)) for p in velocities)
        return SampledCurve(len(pts[0]), tuple(float(t) for t in ts), pts, vel)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.ts[0], self.ts[-1])

    @property
    def step(self) -> float:
        return self.ts[1] - self.ts[0]

    def index_of(self, t: float) -> int:
        t0, t1 = self.domain
        if t < t0 - 1e-12 or t > t1 + 1e-12:
            raise OutOfDomain(f"t = {t} outside [{t0}, {t1}]")
        h = self.step
        i = round((t - t0) / h)
        if abs(t - self.ts[min(i, len(self.ts) - 1)]) > _GRID_SNAP * h:
            raise OutOfDomain(
                "sampled curves are only evaluable at their grid points"
            )
        return min(max(i, 0), len(self.ts) - 1)

    def interior_index(self, t: float) -> int:
        i = self.index_of(t)
        if i == 0 or i == len(self.ts) - 1:
            raise InsufficientSamples(
                "centered differences need an interior grid point"
            )
        return i

    def vel_at(self, i: int) -> np.ndarray:
        if self.velocities is not None:
            return np.array(self.velocities[i])
        h = self.step
        return (np.array(self.points[i + 1]) - np.array(self.points[i - 1])) / (2 * h)

    def acc_at(self, i: int) -> np.ndarray:
        h = self.step
        if self.velocities is not None:
            return (np.array(self.velocities[i + 1]) - np.array(self.velocities[i - 1])) / (2 * h)
        return (
            np.array(self.points[i + 1])
            - 2 * np.array(self.points[i])
            + np.array(self.points[i - 1])
        ) / (h * h)


CurveSpec = Union[ClosedFormCurve, SampledCurve]


# ---------------------------------------------------------------------------
# Covariant acceleration
# ---------------------------------------------------------------------------


def covariant_accel(conn: ConnectionSpec, curve: CurveSpec, t: float) -> np.ndarray:
    """Acceleration corrected by the connection at parameter ``t``."""
    if conn.m != curve.m:
        raise DimensionMismatch("connection and curve dimensions differ")
    if isinstance(curve, ClosedFormCurve):
        x, v, a = curve.pos(t), curve.vel(t), curve.acc(t)
    else:
        i = curve.interior_index(t)
        x = np.array(curve.points[i])
        v = curve.vel_at(i)
        a = curve.acc_at(i)
    gamma = conn.gamma_at(x)
    return a + np.einsum("kij,i,j->k", gamma, v, v)


# ---------------------------------------------------------------------------
# Planarity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarityReport:
    """Per-sample residuals and the aggregated verdict."""

    ts: tuple[float, ...]
    residuals: tuple[Optional[float], ...]  # None marks a skipped sample
    max_residual: float
    verdict: str  # "planar" | "not_planar" | "indeterminate"
    tol: float
    counterexample: Optional[tuple[float, float]]
    degenerate_samples: int

    def to_json(self) -> dict:
        return {
            "ts": list(self.ts),
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "verdict": self.verdict,
            "tol": self.tol,
            "counterexample": (
                None
                if self.counterexample is None
                else {"t": self.counterexample[0], "residual": self.counterexample[1]}
            ),
            "degenerate_samples": self.degenerate_samples,
        }


def _sample_times(curve: CurveSpec, samples: int) -> list[float]:
    if isinstance(curve, ClosedFormCurve):
        t0, t1 = curve.domain
        return [float(t) for t in np.linspace(t0, t1, samples)]
    interior = len(curve.ts) - 2
    if interior < 1:
        raise InsufficientSamples("sampled curve has no interior grid points")
    count = min(samples, interior)
    idx = np.unique(np.round(np.linspace(1, len(curve.ts) - 2, count)).astype(int))
    return [float(curve.ts[i]) for i in idx]


def _tangent(curve: CurveSpec, t: float) -> np.ndarray:
    if isinstance(curve, ClosedFormCurve):
        return curve.vel(t)
    return curve.vel_at(curve.interior_index(t))


def planarity_check(
    basis: AffinorBasis,
    conn: ConnectionSpec,
    curve: CurveSpec,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_PLANARITY_TOL,
) -> PlanarityReport:
    """Test whether the covariant acceleration stays inside the tangent hull.

    At each sample the residual is the least-squares distance from the
    covariant acceleration to the span of the basis images of the tangent,
    normalized by the acceleration's length, so it lies in [0, 1].
    """
    if samples < _MIN_SAMPLES:
        raise InsufficientSamples(f"at least {_MIN_SAMPLES} samples are required")
    if basis.m != curve.m or conn.m != curve.m:
        raise DimensionMismatch("basis, connection and curve dimensions differ")
    mats = np.stack([mat.to_ndarray() for mat in basis.mats])
    ts = _sample_times(curve, samples)
    residuals: list[Optional[float]] = []
    degenerate = 0
    max_res = 0.0
    counterexample = None
    for t in ts:
        v = _tangent(curve, t)
        if float(np.linalg.norm(v)) <= tol:
            residuals.append(None)
            degenerate += 1
            continue
        acc = covariant_accel(conn, curve, t)
        acc_norm = float(np.linalg.norm(acc))
        if acc_norm <= tol * float(v @ v):
            residuals.append(0.0)
            continue
        hull_rows = mats @ v  # (n, m)
        coeffs, *_ = np.linalg.lstsq(hull_rows.T, acc, rcond=None)
        dist = float(np.linalg.norm(hull_rows.T @ coeffs - acc))
        res = min(max(dist / acc_norm, 0.0), 1.0)
        residuals.append(res)
        if res > max_res:
            max_res = res
        if res > tol and counterexample is None:
            counterexample = (t, res)
    evaluated = len(ts) - degenerate
    if degenerate > _DEGENERATE_FRACTION * len(ts) or evaluated == 0:
        verdict = "indeterminate"
    elif max_res <= tol:
        verdict = "planar"
        counterexample = None
    else:
        verdict = "not_planar"
    return PlanarityReport(
        ts=tuple(ts),
        residuals=tuple(residuals),
        max_residual=max_res,
        verdict=verdict,
        tol=tol,
        counterexample=counterexample,
        degenerate_samples=degenerate,
    )


# ---------------------------------------------------------------------------
# Geodesic integration
# ---------------------------------------------------------------------------


def _integrate_second_order(
    accel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: Sequence[float],
    v0: Sequence[float],
    t1: float,
    steps: int,
) -> SampledCurve:
    """Classical fourth-order one-step integration of x'' = accel(x, x')."""
    x = np.array([float(v) for v in x0])
    v = np.array([float(v) for v in v0])
    h = t1 / steps
    ts = [0.0]
    points = [tuple(x)]
    velocities = [tuple(v)]
    for k in range(steps):
        k1x, k1v = v, accel(x, v)
        k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, accel(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))) or (
            float(np.max(np.abs(x))) > 1e12 or float(np.max(np.abs(v))) > 1e12
        ):
            raise NonFiniteState(f"integration blew up at step {k + 1}")
        ts.append((k + 1) * h)
        points.append(tuple(x))
        velocities.append(tuple(v))
    return SampledCurve.of(ts, points, velocities)


def geodesic_integrate(
    conn: ConnectionSpec,
    x0: Sequence[float],
    v0: Sequence[float],
    t1: float,
    steps: int,
) -> SampledCurve:
    """Integrate the geodesic equation x'' = -G(x)(x', x') on [0, t1].

    Velocity samples are kept with the curve so downstream differencing
    starts from integrator-accurate tangents.
    """
    if steps < 10:
        raise ValueError("at least 10 integration steps are required")
    if len(x0) != conn.m or len(v0) != conn.m:
        raise DimensionMismatch("initial state does not match the connection dimension")

    def accel(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return -np.einsum("kij,i,j->k", conn.gamma_at(x), v, v)

    return _integrate_second_order(accel, x0, v0, t1, steps)
