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
certificate with no access to the original inputs; the recheck lives in
``verify``, which shares no code with the producers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from math import isfinite
from typing import Optional, Sequence

from . import __version__
from . import algebra as _algebra
from . import clifford as _clifford
from . import distributions as _distributions
from . import frobenius as _frobenius
from . import hullrank as _hullrank
from . import jsonio
from . import planarity as _planarity
from .errors import AffinorRankError, SignatureTooLarge
# the verifier's stages are bound here too, where bench/tracing.py wraps them by name
from .verify import (_fresh_rank, _matmul, _mats_from_basis_json,  # noqa: F401
                     verify_certificate_detailed)

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
    result = {"verified": ok, "certificates_checked": len(details), "details": details}
    return (EXIT_POSITIVE if ok else EXIT_NEGATIVE), result


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
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


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
    return code, {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
        "exit_code": code,
        # microseconds: a full-precision float's repr length varies with speed
        "wall_time_s": round(elapsed, 6),
    }


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
