"""Seeded benchmark inputs whose verdicts are known from how they are built.

Each family writes input files in the JSON formats the CLI reads and
returns ``Op`` records: the CLI arguments plus the verdict the command must
reach.  Expected verdicts follow from the construction and from invariance
arguments, never from running the code under test:

* conjugation ``Q A Q^-1`` by an invertible frame keeps every hull rank,
  closure under products and invertibility of span elements;
* a change of algebra basis that keeps the unity first keeps the unity and
  associativity identities and whether a Frobenius form exists;
* conjugating a splitting keeps the complete-system identities, and a line
  block caps every hull pair at ``2n - 1``;
* a geodesic has zero covariant acceleration, so it is planar for every
  span containing the identity.

Random frames vary entry height (see ``random_frame``) and families come
in several module sizes, because Bareiss and ``Fraction`` costs grow with
both.  Heights, sizes and frame determinants follow a fixed pattern, so
every seed runs the same mix at about the same cost and only the entries
differ.
All exact arithmetic here is this file's own, so an answer never comes
from the package.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Op:
    """One CLI operation and the verdict it must reach.

    ``checks`` pairs a dotted path into the JSON report with the value
    found there; ``family`` names the input family for per-family counts.
    """

    family: str
    argv: tuple[str, ...]
    exit_code: int
    checks: tuple[tuple[str, object], ...] = ()


# ---------------------------------------------------------------------------
# Exact helpers
# ---------------------------------------------------------------------------


def report_field(report, path):
    """The value at a dotted ``path`` of a JSON report; KeyError if absent."""
    node = report
    for key in path.split("."):
        if not isinstance(node, dict):
            raise KeyError(path)
        node = node[key]
    return node


def identity(m):
    return [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def inverse(a):
    """Gauss-Jordan inverse over Fractions of an invertible matrix."""
    n = len(a)
    left = [[Fraction(v) for v in row] for row in a]
    right = identity(n)
    for c in range(n):
        p = next(i for i in range(c, n) if left[i][c] != 0)
        left[c], left[p] = left[p], left[c]
        right[c], right[p] = right[p], right[c]
        inv = _ONE / left[c][c]
        left[c] = [v * inv for v in left[c]]
        right[c] = [v * inv for v in right[c]]
        for i in range(n):
            f = left[i][c]
            if i != c and f != 0:
                left[i] = [u - f * v for u, v in zip(left[i], left[c])]
                right[i] = [u - f * v for u, v in zip(right[i], right[c])]
    return right


def random_frame(rng, m, height):
    """Frame L U S: unit-triangular L, U with entries in [-height, height]
    and S = diag(1, .., 1, height + 1).

    The determinant is height + 1 whatever the seed, so conjugates carry
    the same denominators and every seed costs about the same, while entry
    height grows with ``height`` and ``m``.
    """
    lower = identity(m)
    upper = identity(m)
    for i in range(m):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-height, height))
            upper[j][i] = Fraction(rng.randint(-height, height))
    q = matmul(lower, upper)
    for row in q:
        row[-1] *= height + 1
    return q, inverse(q)


def signed_permutation(rng, m):
    """Frame Q with Q[i][perm[i]] = signs[i]: conjugates stay sparse."""
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(m)]
    return perm, signs


def permutation_matrix(frame):
    perm, signs = frame
    q = [[_ZERO] * len(perm) for _ in perm]
    for i, (j, s) in enumerate(zip(perm, signs)):
        q[i][j] = Fraction(s)
    return q


def conjugate_signed(mats, frame):
    """Q A Q^-1 for a signed permutation Q, entry by entry."""
    perm, signs = frame
    m = len(perm)
    return [[[signs[i] * signs[j] * a[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
            for a in mats]


def conjugate(mats, frame):
    q, q_inv = frame
    return [matmul(matmul(q, a), q_inv) for a in mats]


def scalar_json(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def matrix_json(a):
    return {
        "rows": len(a),
        "cols": len(a[0]),
        "mode": "exact",
        "entries": [[scalar_json(v) for v in row] for row in a],
    }


def basis_json(mats):
    return {"m": len(mats[0]), "n": len(mats), "mode": "exact",
            "mats": [matrix_json(a) for a in mats]}


def block_double(a):
    m = len(a)
    return [list(row) + [_ZERO] * m for row in a] + [[_ZERO] * m + list(row) for row in a]


class InputDir:
    """Numbered input files under one directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def write(self, stem, payload):
        self.count += 1
        path = os.path.join(self.root, f"{self.count:03d}_{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path


# ---------------------------------------------------------------------------
# Affinor spans for `rank`
# ---------------------------------------------------------------------------


def complex_structure(m):
    j = [[_ZERO] * m for _ in range(m)]
    for b in range(m // 2):
        j[2 * b][2 * b + 1] = -_ONE
        j[2 * b + 1][2 * b] = _ONE
    return [identity(m), j]


def quaternions():
    def mat(rows):
        return [[Fraction(v) for v in row] for row in rows]

    return [
        identity(4),
        mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
        mat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
        mat([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    ]


def truncated_polynomials(k):
    """{E, N, .., N^(k-1)} for N nilpotent with two Jordan blocks of size k."""
    m = 2 * k
    nil = [[_ZERO] * m for _ in range(m)]
    for start in (0, k):
        for i in range(start, start + k - 1):
            nil[i][i + 1] = _ONE
    mats = [identity(m)]
    for _ in range(k - 1):
        mats.append(matmul(mats[-1], nil))
    return mats


def rank_one_projector(m):
    p = [[_ZERO] * m for _ in range(m)]
    p[0][0] = _ONE
    return [identity(m), p]


def random_pair(rng, m):
    while True:
        f = [[Fraction(rng.randint(-9, 9)) for _ in range(m)] for _ in range(m)]
        scalar = all(f[i][j] == (f[0][0] if i == j else 0) for i in range(m) for j in range(m))
        if not scalar:
            return [identity(m), f]


def _weak(family, path, n):
    return Op(family, ("rank", path), 0,
              (("result.kind", "weak"), ("result.claimed_rank", n)))


def _generic(family, path, n):
    return Op(family, ("rank", path, "--generic"), 0,
              (("result.kind", "generic"), ("result.claimed_rank", n)))


def _probe(family, path, n, outcome):
    return Op(family, ("rank", path, "--probe-inversion"), 0,
              (("result.claimed_rank", n), ("result.inversion_probe.outcome", outcome)))


def rank_ops(rng, inputs):
    """Small `rank` commands on R^4..R^8.

    Complex structures and doubled quaternions are division-algebra spans:
    closed, every nonzero element invertible, generic rank n.  Truncated
    polynomials on two Jordan blocks are closed with generic rank k but
    contain the singular N.  Random two-element spans always have weak rank
    2 and are usually not closed, so they take the weak path only.  The
    rank-1 projector span {E, P} is closed with a weak witness, yet every
    hull pair stays below dimension 4, so the generic search ends
    inconclusive (exit 2) after exhausting its candidates.
    """
    ops = []
    for m in (4, 6, 8):
        for height in (1, 2):
            path = inputs.write(f"complex_r{m}", basis_json(
                conjugate(complex_structure(m), random_frame(rng, m, height))))
            ops += [_weak("complex", path, 2), _generic("complex", path, 2),
                    _probe("complex", path, 2, "all_sampled_invertible")]
    for height in (1, 2):
        quat = [block_double(a) for a in quaternions()]
        path = inputs.write("quaternion_r8", basis_json(
            conjugate(quat, random_frame(rng, 8, height))))
        ops += [_weak("quaternion", path, 4), _generic("quaternion", path, 4),
                _probe("quaternion", path, 4, "all_sampled_invertible")]
    for k in (2, 3, 4):
        for height in (1, 2):
            path = inputs.write(f"jordan_k{k}", basis_json(
                conjugate(truncated_polynomials(k), random_frame(rng, 2 * k, height))))
            ops += [_weak("jordan", path, k), _generic("jordan", path, k),
                    _probe("jordan", path, k, "counterexample_found")]
    for m in (4, 5, 6, 7, 8):
        path = inputs.write(f"pair_r{m}", basis_json(random_pair(rng, m)))
        ops.append(_weak("random_pair", path, 2))
    for m, height in ((4, 2), (5, 1), (6, 2)):
        path = inputs.write(f"projector_r{m}", basis_json(
            conjugate(rank_one_projector(m), random_frame(rng, m, height))))
        ops.append(Op("projector", ("rank", path, "--generic"), 2,
                      (("result.outcome", "no_witness_found"), ("result.stage", "pair"))))
    return ops


# ---------------------------------------------------------------------------
# Structure constants for `frobenius` and `algebra verify`
# ---------------------------------------------------------------------------


def _constants(n, table):
    """Dense C[i][j][k] from a {(i, j): {k: coeff}} product table."""
    c = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), prod in table.items():
        for k, v in prod.items():
            c[i][j][k] = Fraction(v)
    return c


def _with_unity(n, table):
    for i in range(n):
        table[(0, i)] = {i: 1}
        table[(i, 0)] = {i: 1}
    return table


def dual_numbers():
    return _constants(2, _with_unity(2, {}))


def local3():
    return _constants(3, _with_unity(3, {}))


def quaternion_constants():
    signs = {(1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
             (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
             (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}
    table = {key: {k: s} for key, (s, k) in signs.items()}
    return _constants(4, _with_unity(4, table))


def matrix_algebra_2x2():
    """M_2 over the basis (E, e11, e12, e21), with e22 = E - e11."""
    units = [[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]

    def coords(a):
        return {0: a[1][1], 1: a[0][0] - a[1][1], 2: a[0][1], 3: a[1][0]}

    table = {(i, j): coords(matmul(units[i], units[j])) for i in range(4) for j in range(4)}
    return _constants(4, table)


def change_basis_fixing_unity(c, rng, height):
    """Constants of f_0 = e_0, f_i = a_i e_0 + sum_j T_ij e_j (i, j >= 1)."""
    n = len(c)
    frame, _ = random_frame(rng, n - 1, height)
    p = [[_ONE] + [_ZERO] * (n - 1)]
    p += [[Fraction(rng.randint(-height, height))] + row for row in frame]
    p_inv = inverse(p)
    out = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # f_i f_j in e-coordinates, then in f-coordinates through P^-1
            w = [sum(p[i][a] * p[j][b] * c[a][b][r] for a in range(n) for b in range(n))
                 for r in range(n)]
            out[i][j] = [sum(w[r] * p_inv[r][k] for r in range(n)) for k in range(n)]
    return out


def algebra_ops(rng, inputs):
    """Frobenius search and algebra identity checks on disguised algebras.

    Dual numbers, M_2 and the quaternions are Frobenius (exit 0).  local3
    has no regular functional at all, which the symbolic expansion of the
    pencil determinant proves (exit 1).  Every table passes `algebra
    verify`, since a unity-fixing change of basis keeps both identities.
    """
    ops = []
    cases = (("dual", dual_numbers(), True), ("local3", local3(), False),
             ("m2", matrix_algebra_2x2(), True), ("quaternion", quaternion_constants(), True))
    for (name, c, frobenius), height in itertools.product(cases, (1, 2)):
        changed = change_basis_fixing_unity(c, rng, height)
        path = inputs.write(f"algebra_{name}", {
            "n": len(changed),
            "C": [[[scalar_json(v) for v in row] for row in plane] for plane in changed],
        })
        if frobenius:
            ops.append(Op(f"frobenius_{name}", ("frobenius", path), 0,
                          (("result.frobenius.status", "frobenius"), ("result.agree", True))))
        else:
            ops.append(Op(f"frobenius_{name}", ("frobenius", path), 1,
                          (("result.frobenius.status", "not_frobenius"),
                           ("result.frobenius.proof.kind", "symbolic_zero_determinant"),
                           ("result.agree", True))))
        ops.append(Op("algebra_verify", ("algebra", "verify", path), 0,
                      (("result.valid", True),)))
    return ops


# ---------------------------------------------------------------------------
# Splittings for `distributions`
# ---------------------------------------------------------------------------


def _distribution_op(family, dims, q_path):
    n, m = len(dims), sum(dims)
    argv = ("distributions", "--dims", ",".join(str(d) for d in dims))
    if q_path is not None:
        argv += ("--conjugate", q_path)
    checks = [("result.verification.ok", True), ("result.rank.weak.claimed_rank", n)]
    if 2 * n > m:
        exit_code = 0
        checks.append(("result.rank.generic.reason", "DimensionTooSmall"))
    elif min(dims) == 1:
        exit_code = 2
        checks.append(("result.rank.generic.outcome", "no_witness_found"))
    else:
        exit_code = 0
        checks.append(("result.rank.generic.claimed_rank", n))
    return Op(family, argv, exit_code, tuple(checks))


def distribution_ops(rng, inputs):
    """Small conjugated splittings of R^3..R^6.

    Blocks of size at least two reach a generic certificate; a line block
    with 2n <= m caps every pair span at 2n - 1 (exit 2); 2n > m makes the
    generic pipeline inapplicable while the weak certificate stands.
    """
    ops = []
    # (1, 2, 3) exhausts the pair search and is the slowest small command;
    # three frames of it keep the latency tail from resting on one input
    splittings = (((2, 2), 1), ((2, 3), 2), ((3, 3), 1), ((2, 2, 2), 2), ((1, 3), 1),
                  ((1, 2, 3), 2), ((1, 2, 3), 2), ((1, 2, 3), 2), ((1, 1, 1), 1), ((1, 2), 2))
    for dims, height in splittings:
        m = sum(dims)
        q, _ = random_frame(rng, m, height)
        path = inputs.write(f"frame_r{m}", matrix_json(q))
        ops.append(_distribution_op("distributions", dims, path))
    return ops


# ---------------------------------------------------------------------------
# Curves for `planar`
# ---------------------------------------------------------------------------


def _flat(m):
    return {"m": m, "gamma": {"constant": [[[0.0] * m for _ in range(m)] for _ in range(m)]}}


def planar_ops(rng, inputs, planarity):
    """Helix, circle and an integrated geodesic.

    The helix (r cos wt, r sin wt, c t, 0) with c != 0 leaves the hull of
    its tangent under the complex structure of R^4 (exit 1); every curve in
    R^2 is planar for {E, J} (exit 0); a geodesic of a constant connection
    has zero covariant acceleration (exit 0).  ``planarity`` is the
    package's module, used only to integrate the geodesic.
    """
    two_pi = 2 * math.pi
    r, w, c = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    helix = inputs.write("helix", {
        "kind": "closed", "m": 4, "domain": [0.0, two_pi], "coords": [
            [{"type": "cos", "coeff": r, "omega": w}],
            [{"type": "sin", "coeff": r, "omega": w}],
            [{"type": "power", "coeff": c, "exp": 1}], []]})
    circle = inputs.write("circle", {
        "kind": "closed", "m": 2, "domain": [0.0, two_pi], "coords": [
            [{"type": "cos", "coeff": r, "omega": w}],
            [{"type": "sin", "coeff": r, "omega": w}]]})
    j4 = inputs.write("complex_r4", basis_json(complex_structure(4)))
    j2 = inputs.write("complex_r2", basis_json(complex_structure(2)))
    flat4 = inputs.write("flat4", _flat(4))
    flat2 = inputs.write("flat2", _flat(2))

    gamma = [[[0.25 * rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
             for _ in range(4)]
    x0 = [rng.uniform(-0.5, 0.5) for _ in range(4)]
    # speed in [1, 2]: the finite-difference error of the sampled curve must
    # stay below the default tolerance times |v|^2
    v0 = [rng.gauss(0.0, 1.0) for _ in range(4)]
    scale = rng.uniform(1.0, 2.0) / math.sqrt(sum(v * v for v in v0))
    v0 = [v * scale for v in v0]
    curve = planarity.geodesic_integrate(
        planarity.ConnectionSpec.constant(gamma), x0, v0, 1.0, 2000)
    geodesic = inputs.write("geodesic", {
        "kind": "sampled", "m": 4, "t": list(curve.ts),
        "values": [list(p) for p in curve.points],
        "velocities": [list(v) for v in curve.velocities]})
    conn = inputs.write("connection", {"m": 4, "gamma": {"constant": gamma}})
    span = inputs.write("pair_r4", basis_json(random_pair(rng, 4)))

    def planar(basis, connection, path, code, verdict):
        return Op(f"planar_{verdict}", ("planar", "--basis", basis, "--connection", connection,
                                        "--curve", path), code, (("result.verdict", verdict),))

    return [planar(j4, flat4, helix, 1, "not_planar"),
            planar(j2, flat2, circle, 0, "planar"),
            planar(span, conn, geodesic, 0, "planar")]


# ---------------------------------------------------------------------------
# Dense modules
# ---------------------------------------------------------------------------


def _blade_sign(a, b, s):
    """Sign of the product of generator bitmasks a and b in Cl(s, t)."""
    swaps = sum(bin(a >> (g + 1)).count("1") for g in range(b.bit_length()) if b >> g & 1)
    negative = sum(1 for g in range(s, (a & b).bit_length()) if (a & b) >> g & 1)
    return -1 if (swaps + negative) % 2 else 1


def clifford_regular(s, t):
    """Left regular representation of Cl(s, t) on its 2^(s+t) coefficients."""
    dim = 1 << (s + t)
    blades = sorted(range(dim), key=lambda b: (bin(b).count("1"), b))
    position = {b: i for i, b in enumerate(blades)}
    mats = []
    for a in blades:
        mat = [[_ZERO] * dim for _ in range(dim)]
        for j, b in enumerate(blades):
            mat[position[a ^ b]][j] = Fraction(_blade_sign(a, b, s))
        mats.append(mat)
    return mats


def dense_ops(rng, inputs):
    """Large exact modules.

    Clifford regular representations have full-span hulls, so
    `--check-rank` claims 2^(s+t).  Blades acting on two copies of the
    module are a closed span of rank 2^(s+t) with 2n = m, certified
    generic.  Projector systems at m = 12: twelve lines give weak rank 12
    and an inapplicable generic pipeline; six planes (in three frames) and
    four 3-spaces reach generic rank 6 and 4.
    Signed-permutation frames vary the inputs while keeping entries in
    {-1, 0, 1}, so the cost per seed stays comparable.
    """
    ops = []
    for s, t in ((2, 2), (3, 2), (3, 3)):
        ops.append(Op(f"clifford_{s}{t}", ("clifford", "--s", str(s), "--t", str(t),
                                          "--check-rank"), 0,
                      (("result.claimed_rank", 1 << (s + t)), ("result.relations.ok", True))))
    for s, t in ((2, 1), (1, 2)):
        doubled = [block_double(a) for a in clifford_regular(s, t)]
        path = inputs.write(f"doubled_cl{s}{t}", basis_json(
            conjugate_signed(doubled, signed_permutation(rng, 16))))
        ops.append(_generic(f"doubled_cl{s}{t}", path, 8))
    # Three frames of six planes: with them the median and the tail each sit
    # inside one band of similar operations at every cycle count from 3 to
    # 5 that a run reaches (the tail among the doubled Clifford spans)
    for dims in ((1,) * 12, (2,) * 6, (2,) * 6, (2,) * 6, (3,) * 4):
        frame = permutation_matrix(signed_permutation(rng, 12))
        path = inputs.write("frame_r12", matrix_json(frame))
        ops.append(_distribution_op(f"distributions_{dims[0]}x{len(dims)}", dims, path))
    return ops


def warmup_ops(rng, inputs):
    """One cheap command of each kind the dense workload runs."""
    path = inputs.write("complex_r4", basis_json(
        conjugate(complex_structure(4), random_frame(rng, 4, 1))))
    q, _ = random_frame(rng, 4, 1)
    return [
        Op("clifford_11", ("clifford", "--s", "1", "--t", "1", "--check-rank"), 0,
           (("result.claimed_rank", 4),)),
        _generic("complex", path, 2),
        _distribution_op("distributions", (2, 2), inputs.write("frame_r4", matrix_json(q))),
    ]
