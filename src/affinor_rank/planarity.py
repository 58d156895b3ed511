"""Planarity of parameterized curves under a linear connection.

A curve is planar for an affinor span when its covariant acceleration
stays inside the hull of its tangent vector.  The membership test is a
relative least-squares residual, not a float rank of an augmented matrix:
rank is discontinuous under perturbation, while the residual degrades
gracefully and can be asserted against a tolerance.

Conventions:

* both curve kinds answer ``jet(t) -> (x, v, a)`` (position, velocity,
  acceleration as float arrays) and ``sample_times(samples)``; each sample
  evaluates its jet once;
* covariant acceleration components: ``a^k = x''^k + G[k][i][j] x'^i x'^j``
  with ``G`` the connection coefficients at the current position;
* closed-form curves (polynomial and trigonometric terms) are
  differentiated symbolically, so their residuals carry no discretization
  error; sampled curves use order-2 centered differences at interior grid
  points;
* sampled curves and constant connections hold read-only float arrays,
  built with NaN and infinities rejected; a sample whose ``|tangent|^2``
  or covariant acceleration is not finite raises ``NonFiniteState``;
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

from .errors import DimensionMismatch, InsufficientSamples, NonFiniteState, OutOfDomain
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


def _frozen(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as a read-only float array with ``ndim`` axes, all finite."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{what} must have {ndim} axes, not {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite numbers")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ConnectionSpec:
    """Connection coefficients, constant or polynomial in position.

    A constant table is one read-only m x m x m array, returned as it is
    by ``gamma_at``."""

    m: int
    constant_gamma: Optional[np.ndarray] = None
    poly_gamma: Optional[tuple] = None  # [k][i][j] -> tuple of PolyTerm

    def __post_init__(self):
        if (self.constant_gamma is None) == (self.poly_gamma is None):
            raise ValueError("exactly one of constant or polynomial coefficients")
        table = self.constant_gamma if self.poly_gamma is None else self.poly_gamma
        if len(table) != self.m or any(
            len(plane) != self.m or any(len(row) != self.m for row in plane) for plane in table
        ):
            raise DimensionMismatch("coefficient table is not m x m x m")

    @staticmethod
    def constant(gamma) -> "ConnectionSpec":
        arr = _frozen(gamma, 3, "connection coefficients")
        return ConnectionSpec(len(arr), constant_gamma=arr)

    @staticmethod
    def polynomial(m: int, table) -> "ConnectionSpec":
        normal = tuple(tuple(tuple(
            tuple((float(c), tuple(int(p) for p in powers)) for c, powers in cell)
            for cell in row) for row in plane) for plane in table)
        return ConnectionSpec(m, poly_gamma=normal)

    def gamma_at(self, x: np.ndarray) -> np.ndarray:
        if self.constant_gamma is not None:
            return self.constant_gamma
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


Jet = tuple[np.ndarray, np.ndarray, np.ndarray]  # position, velocity, acceleration


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

    def jet(self, t: float) -> Jet:
        t0, t1 = self.domain
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise OutOfDomain(f"t = {t} outside [{t0}, {t1}]")
        try:
            return tuple(
                np.array([sum(_eval_term(term, t, deriv) for term in comp) for comp in self.coords])
                for deriv in range(3)
            )
        except OverflowError:  # a float power past the float range
            raise NonFiniteState(f"curve derivatives overflow at t = {t}") from None

    def sample_times(self, samples: int) -> list[float]:
        return [float(t) for t in np.linspace(*self.domain, samples)]


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Curve known at uniform grid points, optionally with velocities.

    ``ts`` has shape (k,), ``points`` and ``velocities`` shape (k, m); all
    are read-only float arrays."""

    m: int
    ts: np.ndarray
    points: np.ndarray
    velocities: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.ts) < _MIN_SAMPLES:
            raise InsufficientSamples(
                f"need at least {_MIN_SAMPLES} samples, got {len(self.ts)}"
            )
        if self.points.shape != (len(self.ts), self.m):
            raise DimensionMismatch("one point of length m per sample time is required")
        if self.velocities is not None and self.velocities.shape != self.points.shape:
            raise DimensionMismatch("one velocity of length m per sample time is required")
        diffs = np.diff(self.ts)
        if np.any(diffs <= 0):
            raise ValueError("sample grid must be strictly increasing")
        h = diffs[0]
        if np.max(np.abs(diffs - h)) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("sample grid must be uniform")

    @staticmethod
    def of(ts, points, velocities=None) -> "SampledCurve":
        pts = _frozen(points, 2, "sample points")
        vel = None if velocities is None else _frozen(velocities, 2, "velocities")
        return SampledCurve(pts.shape[1], _frozen(ts, 1, "sample times"), pts, vel)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.ts[0]), float(self.ts[-1]))

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def index_of(self, t: float) -> int:
        t0, t1 = self.domain
        if t < t0 - 1e-12 or t > t1 + 1e-12:
            raise OutOfDomain(f"t = {t} outside [{t0}, {t1}]")
        h = self.step
        i = round((t - t0) / h)
        if abs(t - self.ts[min(i, len(self.ts) - 1)]) > _GRID_SNAP * h:
            raise OutOfDomain("sampled curves are only evaluable at their grid points")
        return min(max(i, 0), len(self.ts) - 1)

    def jet(self, t: float) -> Jet:
        """The grid point at ``t`` with centered-difference derivatives; a
        stored velocity is read as it is."""
        i = self.index_of(t)
        if i == 0 or i == len(self.ts) - 1:
            raise InsufficientSamples("centered differences need an interior grid point")
        h, p, w = self.step, self.points, self.velocities
        if w is None:
            return p[i], (p[i + 1] - p[i - 1]) / (2 * h), (p[i + 1] - 2 * p[i] + p[i - 1]) / (h * h)
        return p[i], w[i], (w[i + 1] - w[i - 1]) / (2 * h)

    def sample_times(self, samples: int) -> list[float]:
        """Up to ``samples`` interior grid times, evenly spread."""
        last = len(self.ts) - 2
        idx = np.unique(np.round(np.linspace(1, last, min(samples, last))).astype(int))
        return [float(t) for t in self.ts[idx]]


CurveSpec = Union[ClosedFormCurve, SampledCurve]


# ---------------------------------------------------------------------------
# Covariant acceleration
# ---------------------------------------------------------------------------


def _covariant_jet(conn: ConnectionSpec, curve: CurveSpec, t: float):
    """Tangent, its squared length and the covariant acceleration at ``t``,
    from one jet; a value that is not finite raises ``NonFiniteState``."""
    x, v, a = curve.jet(t)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        acc = a + np.einsum("kij,i,j->k", conn.gamma_at(x), v, v)
        vv = float(v @ v)
    if not (math.isfinite(vv) and np.isfinite(acc).all()):
        raise NonFiniteState(f"tangent or covariant acceleration is not finite at t = {t}")
    return v, vv, acc


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
    ts = curve.sample_times(samples)
    residuals: list[Optional[float]] = []
    degenerate = 0
    max_res = 0.0
    counterexample = None
    for t in ts:
        v, vv, acc = _covariant_jet(conn, curve, t)
        if float(np.linalg.norm(v)) <= tol:
            residuals.append(None)
            degenerate += 1
            continue
        acc_norm = float(np.linalg.norm(acc))
        if acc_norm <= tol * vv:
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


# Only geodesic_integrate calls this; it stays with it (ROADMAP item 4).
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
    ts, points, velocities = [0.0], [x], [v]
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
        points.append(x)
        velocities.append(v)
    return SampledCurve.of(ts, points, velocities)


# No command calls this; bench/families.py builds its geodesic with it (ROADMAP item 4).
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
