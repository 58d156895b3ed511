"""Shared fixtures: small algebras with hand-verified multiplication tables."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from affinor_rank import (AffinorBasis, CliffordBasis, CliffordSignature, ConnectionSpec, Matrix,
                          StructureConstants, build_clifford, certify_generic_rank, wire)
from affinor_rank.errors import DimensionMismatch, InputFormatError
from affinor_rank.hullrank import DEFAULT_SEED, DEFAULT_TRIALS
from affinor_rank.multipoly import Poly
from affinor_rank.planarity import _covariant_jet
from affinor_rank.verify import _indices_below, _is_cube


def cofactor_det(rows):
    """Recursive cofactor determinant; the slow independent oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            total += sign * rows[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def brute_force_rank(rows):
    """Largest k with some k x k minor nonzero, by full enumeration."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                if cofactor_det(minor) != 0:
                    return k
    return 0


def random_exact_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> Matrix:
    return Matrix.exact(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def fraction_rows(mat: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of a matrix as Fraction rows, read from its integer view."""
    view = mat._scaled
    return tuple(tuple(Fraction(v, view.den) for v in row) for row in view.nums.tolist())


def constants_cube(sc: StructureConstants) -> tuple:
    """The structure constants as nested Fractions: [i][j][k] is the
    coefficient of e_k in e_i e_j."""
    rows, n = fraction_rows(sc.table), sc.n
    return tuple(rows[i * n:(i + 1) * n] for i in range(n))


def multiply(sc: StructureConstants, a, b) -> tuple[Fraction, ...]:
    """The product of two coefficient vectors through the structure
    constants, term by term in Fractions; the plain oracle."""
    c, out = constants_cube(sc), [Fraction(0)] * sc.n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k, cijk in enumerate(c[i][j]):
                out[k] += Fraction(ai) * bj * cijk
    return tuple(out)


def linear_combination(mats, coeffs) -> Matrix:
    """sum_k coeffs[k] * mats[k], entry by entry in Fractions; the plain oracle."""
    entries = [fraction_rows(m) for m in mats]
    return Matrix.exact([
        [sum((Fraction(c) * e[i][j] for c, e in zip(coeffs, entries)), Fraction(0))
         for j in range(mats[0].cols)]
        for i in range(mats[0].rows)
    ])


def densify(obj):
    """A copy of report or matrix JSON with every sparse ``"nonzeros"``
    matrix written out as dense ``"entries"``; everything else is kept."""
    if isinstance(obj, list):
        return [densify(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: densify(v) for k, v in obj.items() if k != "nonzeros"}
    if "nonzeros" in obj:
        entries = [[0] * obj["cols"] for _ in range(obj["rows"])]
        for i, j, v in obj["nonzeros"]:
            entries[i][j] = v
        out["entries"] = entries
    return out


def is_zero_matrix(m: Matrix) -> bool:
    return all(v == 0 for row in fraction_rows(m) for v in row)


def reference_exact_scalar(value, path, field) -> Fraction:
    """The exact scalar reader as it was written over ``Fraction(str)``, the
    reference for ``wire.exact_pair_from_json``: same values, same errors."""
    if isinstance(value, bool):
        raise InputFormatError(path, field, "booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = value.lower().partition("e")[2] if "e" in value or "E" in value else ""
        try:
            out = None if exponent and abs(int(exponent)) > 2 * wire.MAX_DIGITS else Fraction(
                value)
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(path, field, f"not a valid rational: {value!r}")
        if out is None or (exponent or len(value) > wire.MAX_DIGITS) and max(
                abs(out.numerator), out.denominator) >= 10 ** wire.MAX_DIGITS:
            raise InputFormatError(path, field, f"more than {wire.MAX_DIGITS} digits")
        return out
    if isinstance(value, float):
        raise InputFormatError(
            path, field, "floats are not accepted as exact scalars; write p/q or an integer"
        )
    raise InputFormatError(path, field, f"not a scalar: {value!r}")


# The certificate verifier as it was written over Fractions, the reference
# for the integer verifier in ``verify``: same checks, same order, same messages.


def _fraction_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f != 0:
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _fraction_apply(mat, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in mat]


def _word_products(gens, words, m: int) -> list:
    """Each word's generators multiplied in order, in Fractions; the empty
    word is the identity."""
    out = []
    for word in words:
        mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for g in word:
            mat = [[sum(a * b for a, b in zip(row, col) if a and b) for col in zip(*gens[g])]
                   for row in mat]
        out.append(mat)
    return out


def reference_verify_certificate(cert: dict, where: str = "<report>") -> tuple[bool, str]:
    """(ok, message) of the Fraction verifier on one certificate, whose basis
    in generator form it multiplies out word by word first."""
    def scalars(values, field):
        if not isinstance(values, list):
            raise InputFormatError(where, field, "expected a list of scalars")
        return [reference_exact_scalar(v, where, field) for v in values]

    cert = densify(cert)

    try:
        kind = cert["kind"]
        claimed = cert["claimed_rank"]
        basis_json = cert["basis"]
        key = "mats" if "mats" in basis_json else "generators"
        mats = [[scalars(row, "entries") for row in mj["entries"]] for mj in basis_json[key]]
        if key == "generators":
            mats = _word_products(mats, basis_json["words"], basis_json["m"])
        witness = scalars(cert["witness"], "witness")
        m = basis_json["m"]
        n = basis_json["n"]
    except (KeyError, TypeError) as exc:
        return False, f"malformed certificate: {exc!r}"
    if (
        len(mats) != n
        or len(witness) != m
        or any(len(mat) != m or any(len(row) != m for row in mat) for mat in mats)
    ):
        return False, "certificate dimensions are inconsistent"
    if kind not in ("weak", "generic"):
        return False, f"unknown certificate kind {kind!r}"
    if claimed != n:
        return False, f"claimed rank {claimed} differs from span rank {n}"
    if key == "generators" and kind == "generic":
        return False, "a generic certificate must list its basis matrices"
    hull_rows = [_fraction_apply(mat, witness) for mat in mats]
    recomputed = _fraction_rank(hull_rows)
    if recomputed != claimed:
        return False, f"hull rank of the witness is {recomputed}, claim was {claimed}"
    pivot_rows = cert.get("pivot_rows", [])
    pivot_cols = cert.get("pivot_cols", [])
    if not _indices_below(pivot_rows, n) or not _indices_below(pivot_cols, m):
        return False, "pivot indices are not integers within the hull matrix"
    if len(pivot_rows) != claimed or len(pivot_cols) != claimed:
        return False, "pivot sets do not match the claimed rank"
    minor = [[hull_rows[i][j] for j in pivot_cols] for i in pivot_rows]
    if claimed and _fraction_rank(minor) != claimed:
        return False, "certified pivot minor is singular"
    if kind == "generic":
        try:
            c = cert["closure"]["C"]
            pair = cert["pair"]
            x = scalars(pair["x"], "pair.x")
            y = scalars(pair["y"], "pair.y")
            pair_dim = pair["dim"]
            two_ell, ineq_m = cert["inequality"]["two_ell"], cert["inequality"]["m"]
        except (KeyError, TypeError) as exc:
            return False, f"generic certificate lacks closure, pair or inequality: {exc!r}"
        if two_ell != 2 * n or two_ell > ineq_m:
            return False, "dimension inequality record is wrong"
        if ineq_m != m:
            return False, "dimension inequality module size is wrong"
        if not _is_cube(c, n):
            return False, f"closure.C is not {n} x {n} x {n}"
        for i in range(n):
            for j in range(n):
                prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mats[j])]
                        for row in mats[i]]
                coeffs = scalars(c[i][j], "closure")
                combo = [[sum(coeff * mat[r][s] for coeff, mat in zip(coeffs, mats))
                          for s in range(m)] for r in range(m)]
                if prod != combo:
                    return False, f"closure equation fails at pair ({i}, {j})"
        if len(x) != m or len(y) != m:
            return False, "pair vectors do not match the module dimension"
        stacked = [_fraction_apply(mat, x) for mat in mats] + [_fraction_apply(mat, y) for mat in mats]
        pair_rank = _fraction_rank(stacked)
        if pair_rank != 2 * n or pair_dim != 2 * n:
            return False, f"pair span rank is {pair_rank}, expected {2 * n}"
    if mats[0] != [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]:
        return False, "first basis element is not the identity"
    return True, "ok"


def rotation_block(m: int) -> Matrix:
    """Block-diagonal quarter-turn rotations: squares to -E. Requires even m."""
    assert m % 2 == 0
    entries = [[0] * m for _ in range(m)]
    for b in range(m // 2):
        entries[2 * b][2 * b + 1] = -1
        entries[2 * b + 1][2 * b] = 1
    return Matrix.exact(entries)


def quaternion_matrices() -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Left multiplication by 1, i, j, k on the coefficient space of (1,i,j,k)."""
    e = Matrix.identity(4)
    i = Matrix.exact([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = Matrix.exact([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    k = Matrix.exact([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return e, i, j, k


def block_double(mat: Matrix) -> Matrix:
    """diag(mat, mat) on the doubled space."""
    m, entries = mat.rows, fraction_rows(mat)
    z = (Fraction(0),) * m
    rows = [row + z for row in entries] + [z + row for row in entries]
    return Matrix(2 * m, 2 * m, tuple(rows))


def scalar_multiple_of_identity(m: Matrix):
    """The q with m == q*identity, or None."""
    if not m.is_square or not m.rows:
        return None
    view = m._scaled
    q = view.nums[0, 0]
    if not np.array_equal(view.nums, np.eye(m.rows, dtype=view.nums.dtype) * q):
        return None
    return Fraction(int(q), view.den)


# Clifford blades one pair at a time, and the doubled module


def _bits(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def blade_product(a: int, b: int, s: int) -> tuple[int, int]:
    """Product of two basis blades given as generator bitmasks.

    Returns (sign, result mask).  The sign counts the transpositions needed
    to interleave the generator words plus one flip per shared
    negative-square generator.
    """
    swaps = 0
    for g in _bits(b):
        swaps += (a >> (g + 1)).bit_count()
    sign = -1 if swaps & 1 else 1
    for g in _bits(a & b):
        if g >= s:
            sign = -sign
    return sign, a ^ b


def doubled_module_basis(cb: CliffordBasis) -> AffinorBasis:
    """The same blades acting diagonally on two copies of the module."""
    s, m = cb.basis.stacked, cb.basis.m
    blades = s.nums.reshape(-1, m, m)
    nums = np.zeros((len(blades), 2 * m, 2 * m), dtype=s.nums.dtype)
    nums[:, :m, :m] = nums[:, m:, m:] = blades
    return AffinorBasis(s._replace(nums=nums.reshape(len(blades), -1)), 2 * m)


def doubled_generic_rank_check(
    sig: CliffordSignature,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
):
    """Generic-rank pipeline for the blades on a doubled module.

    The doubled module restores the strict dimension inequality, and the
    canonical witnesses are the unit on the first copy, which the weak
    search tries first, and the pair (unit on the first copy, unit on the
    second).
    """
    cb = build_clifford(sig)
    dim = sig.dim
    unit_first = tuple(Fraction(int(i == 0)) for i in range(2 * dim))
    unit_second = tuple(Fraction(int(i == dim)) for i in range(2 * dim))
    return certify_generic_rank(
        doubled_module_basis(cb),
        trials=trials,
        seed=seed,
        extra_pairs=((unit_first, unit_second),),
    )


# Curves under a connection


def flat_connection(m: int) -> ConnectionSpec:
    return ConnectionSpec.constant(np.zeros((m, m, m)))


def covariant_accel(conn: ConnectionSpec, curve, t: float) -> np.ndarray:
    """Acceleration corrected by the connection at parameter ``t``."""
    if conn.m != curve.m:
        raise DimensionMismatch("connection and curve dimensions differ")
    return _covariant_jet(conn, curve, t)[2]


# Polynomials


def poly_variable(nvars: int, index: int) -> Poly:
    """The polynomial x_index."""
    return Poly(nvars, {tuple(int(i == index) for i in range(nvars)): Fraction(1)})


def poly_eval(p: Poly, point) -> Fraction:
    """The value of ``p`` at an exact point, term by term."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        v = coeff
        for x, e in zip(point, mono):
            if e:
                v *= x ** e
        total += v
    return total


# Hand multiplication tables, the oracles for everything built on them.

QUATERNION_TABLE = {
    # (a, b) -> (sign, c) meaning F_a F_b = sign * F_c over basis (1, i, j, k)
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_constants() -> StructureConstants:
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), (sign, target) in QUATERNION_TABLE.items():
        c[a][b][target] = sign
    return StructureConstants.exact(c)


def dual_number_constants() -> StructureConstants:
    """Basis (1, x) with x*x = 0."""
    c = [[[0, 0], [0, 0]] for _ in range(2)]
    c[0][0] = [1, 0]
    c[0][1] = [0, 1]
    c[1][0] = [0, 1]
    c[1][1] = [0, 0]
    return StructureConstants.exact(c)


def complex_constants() -> StructureConstants:
    """Basis (1, i) with i*i = -1."""
    c = [[[0, 0], [0, 0]] for _ in range(2)]
    c[0][0] = [1, 0]
    c[0][1] = [0, 1]
    c[1][0] = [0, 1]
    c[1][1] = [-1, 0]
    return StructureConstants.exact(c)


def local3_constants() -> StructureConstants:
    """Basis (1, x, y) with every product of x and y vanishing."""
    return local_constants(3)


def local_constants(n: int) -> StructureConstants:
    """Unity plus n - 1 elements all of whose products vanish."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = 1
        c[i][0][i] = 1
    return StructureConstants.exact(c)


def cross_product_with_unity_constants() -> StructureConstants:
    """Basis (1, i, j, k) with the anticommuting cross product: not associative."""
    n = 4
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = 1
        c[i][0][i] = 1
    cross = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
             (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
    for (a, b), (sign, target) in cross.items():
        c[a][b][target] = sign
    return StructureConstants.exact(c)


def matrix_algebra_2x2_constants() -> StructureConstants:
    """Full 2x2 matrix algebra over the basis {E, e11, e12, e21}; e22 = E - e11.

    Four independent endomorphisms of a 2-space cannot form an affinor
    basis (the span rank exceeds the module dimension), so the constants
    are solved from the raw products directly.
    """
    from affinor_rank.linalg import SpanSolver, stack

    e = Matrix.identity(2)
    e11 = Matrix.exact([[1, 0], [0, 0]])
    e12 = Matrix.exact([[0, 1], [0, 0]])
    e21 = Matrix.exact([[0, 0], [1, 0]])
    mats = [e, e11, e12, e21]
    coords = SpanSolver(stack(mats)).coefficients(stack([a @ b for a in mats for b in mats]))
    assert None not in coords  # matrix products stay in the span
    return StructureConstants.exact([coords[4 * i:4 * i + 4] for i in range(4)])


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def quaternions_r4() -> AffinorBasis:
    return AffinorBasis.of(quaternion_matrices())


@pytest.fixture
def quaternions_r8() -> AffinorBasis:
    return AffinorBasis.of(tuple(block_double(m) for m in quaternion_matrices()))


@pytest.fixture
def complex_r4() -> AffinorBasis:
    return AffinorBasis.of((Matrix.identity(4), rotation_block(4)))
