"""Command-line interface: JSON in, certificates and verdicts out.

Exit codes form a triage, because the underlying checks are genuinely
one-sided: 0 for a definitive positive (certificate emitted, identities
verified, curve planar), 1 for a definitive negative (refutation in hand),
2 for inconclusive outcomes (search exhausted, hypotheses inapplicable),
64 for usage errors, 65 for malformed or invalid input files, 70 for
internal inconsistencies that should never happen, including any
unexpected exception (reported in one line on stderr, never as a
traceback).

Reports embed full witnesses and bases, so ``verify-report`` can audit a
certificate with no access to the original inputs, through a re-derivation
that shares no code with the search that produced it: it imports neither
``linalg`` nor ``multipoly`` and uses no numpy.  It reads each scalar as
an integer (numerator, denominator) pair (``jsonio.exact_pair_from_json``)
and each matrix, from its dense ``"entries"`` or, with a parser of its
own, its sparse ``"nonzeros"``, as sparse rows of integer numerators over
its own denominator, multiplies sparse rows in plain Python ints, and
ranks by plain integer Gaussian elimination with gcd reduction instead of
the producers' fraction-free (Bareiss) elimination.  A basis embedded as
generators and one word per element (``clifford --check-rank``) is never
multiplied out.  A certificate whose data does not parse is rejected, not
an input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import compress
from math import gcd, isfinite, lcm
from typing import Optional, Sequence

from . import __version__
from . import algebra as _algebra
from . import clifford as _clifford
from . import distributions as _distributions
from . import frobenius as _frobenius
from . import hullrank as _hullrank
from . import jsonio
from . import planarity as _planarity
from .errors import AffinorRankError, InputFormatError, MissingCertificate, SignatureTooLarge

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

TOOL_NAME = "affinor-rank"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # "inconclusive" outcome; route usage problems to 64 instead.
    def error(self, message):
        raise _UsageError(message)


def _env_seed() -> int:
    raw = os.environ.get("AFFINOR_RANK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"AFFINOR_RANK_SEED must be an integer, got {raw!r}")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once and shared by every call in the process.

    ``parse_args`` returns a fresh namespace each time and nothing here
    changes the parser after it is built, so reusing it is safe; callers
    must not change it either.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="search seed (default: AFFINOR_RANK_SEED or 0)")
    common.add_argument("--trials", type=int, default=_hullrank.DEFAULT_TRIALS,
                        help="random search trials")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        dest="fmt", help="report format")
    common.add_argument("--out", type=str, default=None,
                        help="write the report to this path instead of stdout")

    parser = _Parser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="structure constant checks",
                               parents=[common])
    algebra_sub = p_algebra.add_subparsers(dest="subcommand", required=True)
    p_verify = algebra_sub.add_parser("verify", parents=[common],
                                      help="verify unity and associativity")
    p_verify.add_argument("constants", type=str)

    p_rank = sub.add_parser("rank", help="weak/generic rank certification",
                            parents=[common])
    p_rank.add_argument("basis", type=str)
    p_rank.add_argument("--generic", action="store_true",
                        help="run the full generic-rank pipeline")
    p_rank.add_argument("--probe-inversion", action="store_true",
                        help="also test span elements for invertibility")

    p_frob = sub.add_parser("frobenius", help="Frobenius form detection",
                            parents=[common])
    p_frob.add_argument("constants", type=str)

    p_cliff = sub.add_parser("clifford", help="Clifford representation builder",
                             parents=[common])
    p_cliff.add_argument("--s", type=int, required=True,
                         help="generators squaring to +E")
    p_cliff.add_argument("--t", type=int, required=True,
                         help="generators squaring to -E")
    p_cliff.add_argument("--emit", type=str, default=None,
                         help="write the basis JSON here")
    p_cliff.add_argument("--check-rank", action="store_true",
                         help="certify the full-span hull witness")

    p_dist = sub.add_parser("distributions", help="projector systems from splittings",
                            parents=[common])
    p_dist.add_argument("--dims", type=str, required=True,
                        help="comma-separated block dimensions, e.g. 2,2")
    p_dist.add_argument("--conjugate", type=str, default=None,
                        help="matrix JSON file with an exact change of basis")
    p_dist.add_argument("--emit", type=str, default=None,
                        help="write the hull basis JSON here")

    p_planar = sub.add_parser("planar", help="curve planarity under a connection",
                              parents=[common])
    p_planar.add_argument("--basis", type=str, required=True)
    p_planar.add_argument("--connection", type=str, required=True)
    p_planar.add_argument("--curve", type=str, required=True)
    p_planar.add_argument("--samples", type=int, default=_planarity.DEFAULT_SAMPLES)
    p_planar.add_argument("--tol", type=float, default=_planarity.DEFAULT_PLANARITY_TOL)

    p_verify_report = sub.add_parser("verify-report", parents=[common],
                                     help="re-verify certificates inside a report")
    p_verify_report.add_argument("report", type=str)

    return parser


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, result_payload)
# ---------------------------------------------------------------------------


def _encode(obj) -> str:
    """Compact JSON with sorted keys, the form of every report and --emit file."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(path: str, flag: str, text: str):
    """Write ``text`` and a newline; a path that cannot be opened is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {flag} {path}: {exc.strerror or exc}")


def _cmd_algebra_verify(args) -> tuple[int, dict]:
    sc = jsonio.constants_from_json(jsonio.load_json(args.constants), args.constants)
    unity = _algebra.verify_unity(sc)
    assoc = _algebra.verify_associativity(sc)
    ok = unity.ok and assoc.ok
    result = {
        "n": sc.n,
        "unity": unity.to_json(),
        "associativity": assoc.to_json(),
        "valid": ok,
    }
    return (EXIT_POSITIVE if ok else EXIT_NEGATIVE), result


def _cmd_rank(args) -> tuple[int, dict]:
    basis = jsonio.basis_from_json(jsonio.load_json(args.basis), args.basis)
    seed = args.seed if args.seed is not None else _env_seed()
    result: dict = {
        "m": basis.m,
        "n": basis.n,
        "evidence": {"trials": args.trials, "seed": seed},
    }
    if args.probe_inversion:
        probe = _hullrank.inversion_probe(basis, args.trials, seed)
        result["inversion_probe"] = probe.to_json()
    if args.generic:
        outcome = _hullrank.certify_generic_rank(basis, args.trials, seed)
        theorems = [
            "algebra_closure",
            "dimension_inequality",
            "witness_existence_implies_weak_generic_rank",
            "pair_span_witness",
        ]
    else:
        outcome = _hullrank.weak_rank_witness(basis, args.trials, seed)
        theorems = ["witness_existence_implies_weak_generic_rank"]
    if isinstance(outcome, _hullrank.RankCertificate):
        result["outcome"] = "certified"
        result["kind"] = outcome.kind
        result["claimed_rank"] = outcome.claimed_rank
        result["certificate"] = outcome.to_json()
        result["applicable_theorems"] = theorems
        return EXIT_POSITIVE, result
    result.update(outcome.to_json())
    if isinstance(outcome, _hullrank.NoWitnessFound) and outcome.definitive:
        return EXIT_NEGATIVE, result
    return EXIT_INCONCLUSIVE, result


def _cmd_frobenius(args) -> tuple[int, dict]:
    sc = jsonio.constants_from_json(jsonio.load_json(args.constants), args.constants)
    seed = args.seed if args.seed is not None else _env_seed()
    report = _frobenius.frobenius_iff_generic_rank(sc, trials=args.trials, seed=seed)
    result = report.to_json()
    if report.agree is False:
        return EXIT_INTERNAL, result
    status = report.frobenius.status
    if status == "frobenius":
        return EXIT_POSITIVE, result
    if status == "not_frobenius":
        return EXIT_NEGATIVE, result
    return EXIT_INCONCLUSIVE, result


def _cmd_clifford(args) -> tuple[int, dict]:
    try:
        sig = _clifford.CliffordSignature(args.s, args.t)
    except (ValueError, SignatureTooLarge) as exc:
        raise _UsageError(f"--s {args.s} --t {args.t}: {exc}")
    cb = _clifford.build_clifford(sig)
    relations = cb.relations
    seed = args.seed if args.seed is not None else _env_seed()
    result: dict = {
        "signature": {"s": sig.s, "t": sig.t},
        "dimension": sig.dim,
        "labels": list(cb.labels),
        "relations": relations.to_json(),
    }
    if args.emit:
        _write(args.emit, "--emit", _encode(cb.to_json()))
        result["emitted"] = args.emit
    if args.check_rank:
        cert = _clifford.clifford_rank_theorem_check(cb, args.trials, seed)
        result["rank_certificate"] = cert.to_json()
        result["claimed_rank"] = cert.claimed_rank
    return (EXIT_POSITIVE if relations.ok else EXIT_NEGATIVE), result


def _cmd_distributions(args) -> tuple[int, dict]:
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError:
        raise _UsageError(f"--dims must be comma-separated integers, got {args.dims!r}")
    if min(dims) < 1:
        raise _UsageError(f"--dims {args.dims}: block dimensions must be positive")
    refused = jsonio.products_refused(len(dims), sum(dims))  # the projector identities' products
    if refused:
        raise _UsageError(f"--dims {args.dims}: {refused}")
    conjugate = None
    if args.conjugate:
        conjugate = jsonio.matrix_from_json(
            jsonio.load_json(args.conjugate), args.conjugate
        )
    sp = _distributions.Splitting(sum(dims), dims, conjugate)
    system = _distributions.projectors_from_splitting(sp)
    verification = system.verification
    seed = args.seed if args.seed is not None else _env_seed()
    rank_report = _distributions.distribution_rank_check(system, args.trials, seed)
    result = {
        "m": sp.m,
        "block_dims": list(dims),
        "n": sp.n,
        "verification": verification.to_json(),
        "rank": rank_report.to_json(),
    }
    if args.emit:
        _write(args.emit, "--emit", _encode(rank_report.weak.basis.to_json()))
        result["emitted"] = args.emit
    if not verification.ok:
        return EXIT_NEGATIVE, result
    generic = rank_report.generic
    if isinstance(generic, _hullrank.NoWitnessFound) and not generic.definitive:
        return EXIT_INCONCLUSIVE, result
    return EXIT_POSITIVE, result


def _cmd_planar(args) -> tuple[int, dict]:
    basis = jsonio.basis_from_json(jsonio.load_json(args.basis), args.basis)
    conn = jsonio.connection_from_json(jsonio.load_json(args.connection), args.connection)
    curve = jsonio.curve_from_json(jsonio.load_json(args.curve), args.curve)
    report = _planarity.planarity_check(basis, conn, curve, args.samples, args.tol)
    result = report.to_json()
    if report.verdict == "planar":
        return EXIT_POSITIVE, result
    if report.verdict == "not_planar":
        return EXIT_NEGATIVE, result
    return EXIT_INCONCLUSIVE, result


def _cmd_verify_report(args) -> tuple[int, dict]:
    ok, details = verify_certificate_detailed(args.report)
    return (EXIT_POSITIVE if ok else EXIT_NEGATIVE), {
        "verified": ok,
        "certificates_checked": len(details),
        "details": details,
    }


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------


def _fresh_rank(rows: list[list[int]]) -> int:
    """Rank of integer rows by plain Gaussian elimination, separate from the search path.

    Each elimination step cross-multiplies a row with the pivot row and
    divides the result by the gcd of its entries.  This is deliberately not
    the producers' fraction-free (Bareiss) kernel.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, nrows):
            f = rows[i][c]
            if f:
                row = [p * u - f * v for u, v in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [u // g for u in row] if g > 1 else row
        rank += 1
        if rank == nrows:
            break
    return rank


def _integer_rows(rows, where: str, field: str) -> tuple[list[list[int]], int]:
    """Rows of JSON scalars as integer numerators over the lcm of their denominators.

    Rows of JSON ints alone are taken as they are; otherwise every scalar is
    read as an integer pair by ``jsonio.exact_pair_from_json``, so a
    malformed scalar fails there.
    """
    if all(set(map(type, row)) <= {int} for row in rows):
        return rows, 1
    pairs = [[jsonio.exact_pair_from_json(v, where, field) for v in row] for row in rows]
    den = lcm(*{d for row in pairs for _, d in row})
    return [[p * (den // d) for p, d in row] for row in pairs], den


def _nonzero_rows(items, m: int, where: str, field: str) -> tuple[list[list], int]:
    """An m x m ``"nonzeros"`` list as sparse integer rows over the lcm of its denominators.

    Indices must be ints (not bools) in ``0..m-1``, in strictly increasing
    row-major order, and no value may be zero; anything else raises
    ``InputFormatError``.
    """
    if not isinstance(items, list):
        raise InputFormatError(where, field, "expected a list of [i, j, value] triples")
    rows: list[list] = [[] for _ in range(m)]
    last, dens = -1, []
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            raise InputFormatError(where, f"{field}[{k}]", "expected [i, j, value]")
        i, j, v = item
        if type(i) is not int or type(j) is not int or not (0 <= i < m and 0 <= j < m):
            raise InputFormatError(
                where, f"{field}[{k}]", f"index ({i!r}, {j!r}) is not a pair of integers below {m}")
        if i * m + j <= last:
            raise InputFormatError(where, f"{field}[{k}]", "indices are not in increasing order")
        last = i * m + j
        if type(v) is not int:  # an int, or else a (numerator, denominator) pair
            v = jsonio.exact_pair_from_json(v, where, f"{field}[{k}][2]")
            dens.append(v[1])
        if not (v if type(v) is int else v[0]):
            raise InputFormatError(where, f"{field}[{k}][2]", "a listed entry is zero")
        rows[i].append((j, v))
    if not dens:
        return rows, 1
    den = lcm(*dens)
    return [[(j, v * den if type(v) is int else v[0] * (den // v[1])) for j, v in row]
            for row in rows], den


def _mats_from_basis_json(basis_json: dict, where: str, m: int) -> list[tuple[list, int]]:
    """Each embedded m x m matrix, of ``"mats"`` or else of ``"generators"``,
    as (sparse integer rows of (column, numerator) pairs, lcm of its
    denominators), from its ``"entries"`` or its ``"nonzeros"``; a matrix
    that has both, neither, or a malformed one raises ``InputFormatError``."""
    out, key = [], "mats" if "mats" in basis_json else "generators"
    for k, mj in enumerate(basis_json[key]):
        if ("entries" in mj) == ("nonzeros" in mj):
            raise InputFormatError(where, f"{key}[{k}]", 'expected one of "entries" and "nonzeros"')
        if "nonzeros" in mj:
            out.append(_nonzero_rows(mj["nonzeros"], m, where, f"{key}[{k}].nonzeros"))
            continue
        rows = mj["entries"]
        if not isinstance(rows, list) or len(rows) != m or any(
                not isinstance(row, list) or len(row) != m for row in rows):
            raise InputFormatError(where, f"{key}[{k}].entries", f"expected {m} rows of {m}")
        rows, den = _integer_rows(rows, where, f"{key}[{k}].entries")
        out.append(([[(s, v) for s, v in compress(enumerate(row), row)] for row in rows], den))
    return out


def _apply(mat, vec: list[int]) -> list[int]:
    return [sum([v * vec[s] for s, v in row]) for row in mat]


def _word_rows(words: list, gens, witness: list[int]) -> tuple[Optional[list], str]:
    """The hull rows of a basis in generator form, up to positive scale:
    row(w) = G[w[0]] row(w[1:]) and row([]) = the witness, with G the
    generator numerators.  None and the reason when ``words[0]`` is not
    empty, a word is not a list of generator indices, repeats an earlier
    word, or has a tail that is not an earlier word."""
    if words[0] != []:
        return None, "first basis element is not the identity"
    rows: dict = {}
    for i, word in enumerate(words):
        if not _indices_below(word, len(gens)):
            return None, f"words[{i}] is not a list of generator indices"
        key = tuple(word)
        if key in rows:
            return None, f"words[{i}] repeats an earlier word"
        if key and key[1:] not in rows:
            return None, f"the tail of words[{i}] is not an earlier word"
        rows[key] = _apply(gens[key[0]], rows[key[1:]]) if key else witness
    return list(rows.values()), ""


def _matmul(a, b) -> list[list[int]]:
    """a @ b for m x m matrices given as sparse rows; dense integer rows out."""
    m = len(b)
    out = []
    for row in a:
        acc = [0] * m
        for t, u in row:
            for s, v in b[t]:
                acc[s] += u * v
        out.append(acc)
    return out


def _combine(coeffs: list[int], mats) -> list[list[int]]:
    """sum_k coeffs[k] * mats[k] for sparse-row m x m matrices, skipping zero coefficients."""
    m = len(mats[0])
    out = [[0] * m for _ in range(m)]
    for p, mat in zip(coeffs, mats):
        if p:
            for acc, row in zip(out, mat):
                for s, v in row:
                    acc[s] += p * v
    return out


def _indices_below(idx, size: int) -> bool:
    """Whether ``idx`` is a list of ints in ``0..size-1``."""
    return isinstance(idx, list) and all(type(i) is int and 0 <= i < size for i in idx)


def _is_cube(c, n: int) -> bool:
    """Whether ``c`` is an n x n x n nested list."""
    return (
        isinstance(c, list)
        and len(c) == n
        and all(
            isinstance(plane, list)
            and len(plane) == n
            and all(isinstance(row, list) and len(row) == n for row in plane)
            for plane in c
        )
    )


def _mistyped(fields: dict) -> Optional[str]:
    """Why the first of ``fields`` that is not an int (bools excluded) is rejected."""
    for name, value in fields.items():
        if type(value) is not int:
            return f"{name} must be an integer, got {value!r}"
    return None


def _verify_certificate_dict(cert: dict, where: str = "<report>") -> tuple[bool, str]:
    """Audit one embedded certificate from scratch.

    Recomputes the hull of the stored witness with fresh matrix-vector
    loops and ranks its pivot minor by plain integer Gaussian elimination,
    which proves the hull rank; for generic certificates it also rechecks
    the closure equations, the dimension inequality and the pair witness;
    last, it checks that basis element 0 is the identity.  Everything runs
    on integer numerators: the basis over one common denominator D, and the
    witness and pair vectors scaled by their own, which changes no rank and
    no minor's singularity.  A weak certificate may embed its basis as
    generators and one word per element (``_word_rows``); its matrices are
    never built, and each hull row is one product with an earlier row.
    """
    try:
        kind = cert["kind"]
        claimed = cert["claimed_rank"]
        basis_json = cert["basis"]
        words = None if "mats" in basis_json else basis_json["words"]
        key = "mats" if words is None else "generators"
        mats_json = basis_json[key]
        [witness], _ = _integer_rows([cert["witness"]], where, "witness")
        m = basis_json["m"]
        n = basis_json["n"]
    except (KeyError, TypeError) as exc:
        return False, f"malformed certificate: {exc!r}"
    mistyped = _mistyped({"basis.m": m, "basis.n": n, "claimed_rank": claimed})
    if mistyped:
        return False, mistyped
    if n < 1:
        return False, f"affinor basis has n = {n}, expected at least 1"
    elements = mats_json if words is None else words
    if not isinstance(mats_json, list) or not isinstance(elements, list) or len(
            elements) != n or len(witness) != m:
        return False, "certificate dimensions are inconsistent"
    # the labels a reader of the basis checks must agree with the entries;
    # "mode" is optional, as on input
    if basis_json.get("mode", "exact") != "exact":
        return False, f"basis.mode is {basis_json['mode']!r}, expected 'exact'"
    for k, mj in enumerate(mats_json):
        if not isinstance(mj, dict):
            return False, f"{key}[{k}] is not a matrix object"
        if mj.get("mode", "exact") != "exact":
            return False, f"{key}[{k}].mode is {mj['mode']!r}, expected 'exact'"
        for field in ("rows", "cols"):
            if type(mj.get(field)) is not int or mj[field] != m:
                return False, f"{key}[{k}].{field} is {mj.get(field)!r}, expected {m}"
    if kind not in ("weak", "generic"):
        return False, f"unknown certificate kind {kind!r}"
    if claimed != n:
        return False, f"claimed rank {claimed} differs from span rank {n}"
    # the closure recheck multiplies basis matrices, which the generator form lists not
    if words is not None and kind == "generic":
        return False, "a generic certificate must list its basis matrices"
    # a sparse basis lists no zeros, so its text does not bound n * m * m
    count = max(n, len(mats_json))
    if count * m * m > jsonio.MAX_ENTRIES:
        return False, f"{count} matrices of {m}x{m} exceed {jsonio.MAX_ENTRIES} entries"
    mats = _mats_from_basis_json(basis_json, where, m)
    if words is not None:
        hull_rows, problem = _word_rows(words, [mat for mat, _ in mats], witness)
        if problem:
            return False, problem
    else:  # basis matrix k is mats[k] / den
        den = lcm(*(d for _, d in mats))
        mats = [mat if d == den else [[(s, v * (den // d)) for s, v in row] for row in mat]
                for mat, d in mats]
        hull_rows = [_apply(mat, witness) for mat in mats]
    pivot_rows = cert.get("pivot_rows", [])
    pivot_cols = cert.get("pivot_cols", [])
    problem = None
    if not _indices_below(pivot_rows, n) or not _indices_below(pivot_cols, m):
        problem = "pivot indices are not integers within the hull matrix"
    elif len(pivot_rows) != claimed or len(pivot_cols) != claimed:
        problem = "pivot sets do not match the claimed rank"
    elif _fresh_rank([[hull_rows[i][j] for j in pivot_cols] for i in pivot_rows]) < claimed:
        problem = "certified pivot minor is singular"
    # a nonsingular claimed x claimed minor of the n = claimed hull rows
    # proves the hull rank; the whole hull is ranked only to name the first
    # check that fails
    if problem:
        recomputed = _fresh_rank(hull_rows)
        if recomputed != claimed:
            return False, f"hull rank of the witness is {recomputed}, claim was {claimed}"
        return False, problem
    if kind == "generic":
        try:
            closure = cert["closure"]
            c = closure["C"]
            pair = cert["pair"]
            [x], _ = _integer_rows([pair["x"]], where, "pair.x")
            [y], _ = _integer_rows([pair["y"]], where, "pair.y")
            pair_dim = pair["dim"]
            two_ell, ineq_m = cert["inequality"]["two_ell"], cert["inequality"]["m"]
        except (KeyError, TypeError) as exc:
            return False, f"generic certificate lacks closure, pair or inequality: {exc!r}"
        mistyped = _mistyped(
            {"inequality.two_ell": two_ell, "inequality.m": ineq_m, "pair.dim": pair_dim})
        if mistyped:
            return False, mistyped
        if two_ell != 2 * n or two_ell > ineq_m:
            return False, "dimension inequality record is wrong"
        if ineq_m != m:
            return False, "dimension inequality module size is wrong"
        if type(closure.get("n")) is not int or closure["n"] != n:
            return False, f"closure.n is {closure.get('n')!r}, expected {n}"
        if closure.get("mode", "exact") != "exact":
            return False, f"closure.mode is {closure['mode']!r}, expected 'exact'"
        if not _is_cube(c, n):
            return False, f"closure.C is not {n} x {n} x {n}"
        # A_i A_j == sum_k c_ijk A_k with A_k = M_k / den and c_ij = p / q
        # reads q * (M_i M_j) == den * sum_k p_k M_k
        for i in range(n):
            for j in range(n):
                prod = _matmul(mats[i], mats[j])
                [p], q = _integer_rows([c[i][j]], where, "closure")
                if q != 1:
                    prod = [[q * v for v in row] for row in prod]
                if prod != _combine([den * pk for pk in p], mats):
                    return False, f"closure equation fails at pair ({i}, {j})"
        if len(x) != m or len(y) != m:
            return False, "pair vectors do not match the module dimension"
        stacked = [_apply(mat, x) for mat in mats] + [_apply(mat, y) for mat in mats]
        pair_rank = _fresh_rank(stacked)
        if pair_rank != 2 * n or pair_dim != 2 * n:
            return False, f"pair span rank is {pair_rank}, expected {2 * n}"
    # checked last, so every earlier message stands: an affinor basis starts with E
    if words is None and mats[0] != [[(i, den)] for i in range(m)]:
        return False, "first basis element is not the identity"
    return True, "ok"


def _collect_certificates(node) -> list[dict]:
    found = []
    if isinstance(node, dict):
        keys = {"kind", "claimed_rank", "witness", "basis"}
        if keys.issubset(node.keys()):
            found.append(node)
        else:
            for v in node.values():
                found.extend(_collect_certificates(v))
    elif isinstance(node, list):
        for v in node:
            found.extend(_collect_certificates(v))
    return found


def verify_certificate_detailed(report_path) -> tuple[bool, list[dict]]:
    report = jsonio.load_json(report_path)
    certs = _collect_certificates(report)
    if not certs:
        raise MissingCertificate(f"{report_path}: no rank certificate found in report")
    details = []
    all_ok = True
    for idx, cert in enumerate(certs):
        try:
            ok, message = _verify_certificate_dict(cert, str(report_path))
        except InputFormatError as exc:  # a scalar or a nonzero list that does not parse
            ok, message = False, f"malformed certificate: {exc}"
        details.append({"index": idx, "kind": cert.get("kind"), "ok": ok, "message": message})
        all_ok = all_ok and ok
    return all_ok, details


# ---------------------------------------------------------------------------
# Report assembly and entry point
# ---------------------------------------------------------------------------


_HANDLERS = {
    "algebra": _cmd_algebra_verify,
    "rank": _cmd_rank,
    "frobenius": _cmd_frobenius,
    "clifford": _cmd_clifford,
    "distributions": _cmd_distributions,
    "planar": _cmd_planar,
    "verify-report": _cmd_verify_report,
}


def _config_echo(args) -> dict:
    skip = {"fmt", "out", "command", "subcommand"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value
    return out


def _summary_lines(command: str, code: int, result: dict) -> list[str]:
    lines = [f"{TOOL_NAME} {command}: exit {code}"]
    for key in ("outcome", "verdict", "valid", "status", "verified", "claimed_rank",
                "kind", "max_residual", "agree"):
        if key in result:
            lines.append(f"  {key}: {result[key]}")
    if "frobenius" in result and isinstance(result["frobenius"], dict):
        lines.append(f"  frobenius: {result['frobenius'].get('status')}")
    if "rank" in result and isinstance(result["rank"], dict):
        weak = result["rank"].get("weak", {})
        lines.append(f"  weak rank: {weak.get('claimed_rank')}")
        generic = result["rank"].get("generic", {})
        lines.append(
            f"  generic: {generic.get('outcome', 'certified (rank ' + str(generic.get('claimed_rank')) + ')')}"
        )
    if "counterexample" in result and result["counterexample"]:
        ce = result["counterexample"]
        lines.append(f"  counterexample at t = {ce['t']} (residual {ce['residual']:.3g})")
    if "relations" in result:
        lines.append(f"  relations ok: {result['relations']['ok']}")
    return lines


def _validate_knobs(args):
    if not 1 <= getattr(args, "trials", 1) <= 4096:  # the search bound doubles every 8
        raise _UsageError("--trials must be between 1 and 4096")
    tol = getattr(args, "tol", 1.0)
    if not (isfinite(tol) and tol > 0):
        raise _UsageError(f"--tol must be finite and positive, got {tol!r}")
    if not 5 <= getattr(args, "samples", 5) <= 100_000:  # one least-squares solve each
        raise _UsageError("--samples must be between 5 and 100000")


def dispatch(args) -> tuple[int, dict]:
    """Run one parsed command and wrap its payload in the report envelope."""
    _validate_knobs(args)
    handler = _HANDLERS[args.command]
    start = time.monotonic()
    code, result = handler(args)
    elapsed = time.monotonic() - start
    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
        "exit_code": code,
        # microseconds: a full-precision float's repr length varies with speed
        "wall_time_s": round(elapsed, 6),
    }
    return code, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The CLI is total: exit 1 means "definitive negative", so a crash
    # must never surface as a traceback or as a verdict.
    try:
        return _run(argv)
    except Exception as exc:
        print(f"{TOOL_NAME}: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report = dispatch(args)
        if args.fmt == "json":
            rendered = _encode(report)
        else:
            rendered = "\n".join(_summary_lines(args.command, code, report["result"]))
        if args.out:
            _write(args.out, "--out", rendered)
        else:
            print(rendered)
    except _UsageError as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AffinorRankError as exc:  # InputFormatError and MissingCertificate too
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
