"""Parsers for the JSON input formats accepted by the command line.

Every parse failure raises InputFormatError carrying the file path and a
dotted field locator, so error messages point at the exact offending
value.  Serialization lives on the model types themselves (``to_json``
methods); this module only reads.

Formats:

* matrix: ``{"rows": r, "cols": c}`` with dense ``"entries"``, integers or
  "p/q" strings, or sparse ``"nonzeros"``, read by ``wire.matrix_content``;
  ``Matrix.to_json`` writes the sparse form when the matrix is not empty
  and at most one entry in eight is nonzero.  A matrix holds at most
  ``MAX_ENTRIES`` entries, sparse or dense;
* affinor basis: ``{"m": m, "n": n, "mats": [matrix, ..]}``; n * m * m is
  at most ``MAX_ENTRIES``; a basis with n == m (an operator span acting on
  its own coefficient space) is accepted on load;
* structure constants: ``{"n": n, "C": [[[..]]]}``, exact scalars, with
  1 <= n and n**4 at most ``linalg.MAX_PRODUCT_ENTRIES`` (n <= 32);
* connection: ``{"m": m, "gamma": {"constant": [[[..]]]}}`` or ``{"m": m,
  "gamma": {"poly": [[[ [[coeff, [p_1, .., p_m]], ..] ]]]}}``, p_i >= 0 ints;
* curve: ``{"kind": "closed", "m": m, "domain": [t0, t1], "coords":
  [[term, ..], ..]}`` with term ``{"type": "power", "coeff": c, "exp": a}``
  or ``{"type": "cos"|"sin", "coeff": c, "omega": w}``, or
  ``{"kind": "sampled", "m": m, "t": [..], "values": [[..], ..],
  "velocities": optional}``.  Every number of a connection or a curve must
  be finite: NaN, infinities and integers past the float range are
  rejected.

A matrix, a basis and structure constants may carry ``"mode"``, which
older writers put on each of them: it is optional, ``"exact"`` is its only
accepted value, and no writer emits it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import StructureConstants
from .errors import AffinorRankError, InputFormatError
from .hullrank import AffinorBasis
from .linalg import Matrix, _sparse_view, products_refused
from .planarity import ClosedFormCurve, ConnectionSpec, CurveSpec, SampledCurve
# cli reads files through jsonio.load_json, where bench/tracing.py wraps it
from .wire import MAX_ENTRIES, exact_pair_from_json, load_json, matrix_content  # noqa: F401


def _need(obj: dict, key: str, path, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise InputFormatError(path, f"{where}{key}", "missing required field")
    return obj[key]


def _int(value, path, field) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(path, field, f"expected an integer, got {value!r}")
    return value


def exact_scalar_from_json(value, path, field) -> Fraction:
    num, den = exact_pair_from_json(value, path, field)
    return Fraction(num, den) if den != 1 else Fraction(num)  # the one-argument form is faster


def float_scalar_from_json(value, path, field) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(path, field, f"not a number: {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise InputFormatError(path, field, f"not a finite number: {value!r}")
    return out


def _check_mode(obj, path, field: str, refusal: str):
    """Refuse a ``"mode"`` other than ``"exact"``; a missing one is exact."""
    mode = obj.get("mode", "exact")
    if mode != "exact":
        raise InputFormatError(path, field, refusal.format(mode=mode))


def matrix_from_json(obj, path, where: str = "") -> Matrix:
    rows = _int(_need(obj, "rows", path, where), path, f"{where}rows")
    cols = _int(_need(obj, "cols", path, where), path, f"{where}cols")
    _check_mode(obj, path, f"{where}mode", "unsupported mode {mode!r}; matrices are exact")
    if rows < 0 or cols < 0 or rows * cols > MAX_ENTRIES:
        raise InputFormatError(
            path, f"{where}rows", f"{rows}x{cols} is not a shape of at most {MAX_ENTRIES} entries")
    content, den = matrix_content(obj, rows, cols, path, where)
    return Matrix.from_view(_sparse_view(content, (rows, cols), den))


def basis_from_json(obj, path) -> AffinorBasis:
    m = _int(_need(obj, "m", path, ""), path, "m")
    n = _int(_need(obj, "n", path, ""), path, "n")
    mats_json = _need(obj, "mats", path, "")
    if not isinstance(mats_json, list) or len(mats_json) != n:
        raise InputFormatError(path, "mats", f"expected {n} matrices")
    if n * m * m > MAX_ENTRIES:
        raise InputFormatError(
            path, "mats", f"{n} matrices of {m}x{m} exceed {MAX_ENTRIES} entries")
    mats = []
    for i, mj in enumerate(mats_json):
        mat = matrix_from_json(mj, path, f"mats[{i}].")
        if mat.rows != m or mat.cols != m:  # before the next matrix is allocated
            raise InputFormatError(path, f"mats[{i}]", f"expected an {m}x{m} matrix")
        mats.append(mat)
    # after the matrices, so a matrix's own mode error is the one reported
    _check_mode(obj, path, "mode", "unsupported mode {mode!r}; bases are exact")
    return AffinorBasis.of(mats)


def constants_from_json(obj, path) -> StructureConstants:
    n = _int(_need(obj, "n", path, ""), path, "n")
    # the associativity check multiplies n operators of n x n pairwise
    refused = f"an algebra with unity has n >= 1, got {n}" if n < 1 else products_refused(n, n)
    if refused:
        raise InputFormatError(path, "n", refused)
    _check_mode(obj, path, "mode", "structure constants must be exact")
    return StructureConstants.exact(_cube(_need(obj, "C", path, ""), n, path, "C",
                                          lambda v, at: exact_scalar_from_json(v, path, at)))


def _cube(value, n, path, field, leaf, depth=0) -> tuple:
    """An n x n x n nested list, each innermost item read by ``leaf(item, field)``."""
    if not isinstance(value, list) or len(value) != n:
        raise InputFormatError(path, field, f"expected {n} {('planes', 'rows', 'entries')[depth]}")
    if depth == 2:
        return tuple(leaf(v, f"{field}[{k}]") for k, v in enumerate(value))
    return tuple(_cube(v, n, path, f"{field}[{i}]", leaf, depth + 1) for i, v in enumerate(value))


def connection_from_json(obj, path) -> ConnectionSpec:
    m = _int(_need(obj, "m", path, ""), path, "m")
    gamma = _need(obj, "gamma", path, "")
    if not isinstance(gamma, dict) or len(gamma) != 1:
        raise InputFormatError(
            path, "gamma", 'expected exactly one of {"constant": ..} or {"poly": ..}'
        )
    if "constant" in gamma:
        table = gamma["constant"]
        try:
            spec = ConnectionSpec.constant(table)
        except (AffinorRankError, OverflowError, TypeError, ValueError) as exc:
            raise InputFormatError(path, "gamma.constant", str(exc))
        if spec.m != m:
            raise InputFormatError(path, "gamma.constant", f"table is not {m}x{m}x{m}")
        return spec
    if "poly" in gamma:
        cells = _cube(gamma["poly"], m, path, "gamma.poly",
                      lambda cell, at: _poly_cell_from_json(cell, m, path, at))
        return ConnectionSpec.polynomial(m, cells)
    raise InputFormatError(path, "gamma", 'expected "constant" or "poly"')


def _poly_cell_from_json(cell, m, path, field) -> list:
    """A list of [coeff, [exponent per coordinate]] terms, read by the
    number rules of curve terms."""
    if not isinstance(cell, list):
        raise InputFormatError(path, field, "expected a list of terms")
    for s, term in enumerate(cell):
        if not (isinstance(term, list) and len(term) == 2
                and isinstance(term[1], list) and len(term[1]) == m):
            raise InputFormatError(path, f"{field}[{s}]", f"expected [coeff, [{m} exponents]]")
    return [(float_scalar_from_json(c, path, f"{field}[{s}][0]"),
             [_exponent(p, path, f"{field}[{s}][1][{i}]") for i, p in enumerate(powers)])
            for s, (c, powers) in enumerate(cell)]


def _exponent(value, path, field) -> int:
    """A nonnegative integer that is finite as a float."""
    exp = _int(value, path, field)
    if exp < 0:
        raise InputFormatError(path, field, "exponent must be nonnegative")
    float_scalar_from_json(exp, path, field)
    return exp


def _term_from_json(obj, path, field):
    if not isinstance(obj, dict):
        raise InputFormatError(path, field, "curve terms must be objects")
    kind = _need(obj, "type", path, f"{field}.")
    coeff = float_scalar_from_json(_need(obj, "coeff", path, f"{field}."), path, f"{field}.coeff")
    if kind == "power":
        return ("power", coeff, float(_exponent(_need(obj, "exp", path, f"{field}."),
                                                path, f"{field}.exp")))
    if kind in ("cos", "sin"):
        omega = float_scalar_from_json(
            _need(obj, "omega", path, f"{field}."), path, f"{field}.omega"
        )
        return (kind, coeff, omega)
    raise InputFormatError(path, f"{field}.type", f"unknown term type {kind!r}")


def curve_from_json(obj, path) -> CurveSpec:
    kind = _need(obj, "kind", path, "")
    m = _int(_need(obj, "m", path, ""), path, "m")
    if kind == "closed":
        domain = _need(obj, "domain", path, "")
        if not isinstance(domain, list) or len(domain) != 2:
            raise InputFormatError(path, "domain", "expected [t0, t1]")
        domain = tuple(
            float_scalar_from_json(v, path, f"domain[{i}]") for i, v in enumerate(domain))
        coords_json = _need(obj, "coords", path, "")
        if not isinstance(coords_json, list) or len(coords_json) != m:
            raise InputFormatError(path, "coords", f"expected {m} coordinate term lists")
        coords = []
        for i, comp in enumerate(coords_json):
            if not isinstance(comp, list):
                raise InputFormatError(path, f"coords[{i}]", "expected a list of terms")
            coords.append(
                tuple(
                    _term_from_json(t, path, f"coords[{i}][{j}]")
                    for j, t in enumerate(comp)
                )
            )
        try:
            return ClosedFormCurve(m, domain, tuple(coords))
        except (AffinorRankError, ValueError) as exc:
            raise InputFormatError(path, "coords", str(exc))
    if kind == "sampled":
        ts = _need(obj, "t", path, "")
        values = _need(obj, "values", path, "")
        velocities = obj.get("velocities")
        try:
            curve = SampledCurve.of(ts, values, velocities)
        except (AffinorRankError, OverflowError, TypeError, ValueError) as exc:
            raise InputFormatError(path, "values", str(exc))
        if curve.m != m:
            raise InputFormatError(path, "values", f"points have length {curve.m}, expected {m}")
        return curve
    raise InputFormatError(path, "kind", f'unknown curve kind {kind!r}; use "closed" or "sampled"')
