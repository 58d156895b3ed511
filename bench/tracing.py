"""Per-layer tracing for the traced benchmark run (`--trace 1`).

The package has no instrumentation of its own, so this module wraps its
functions and methods at run time, from outside: every module attribute
bound to a traced function (including names imported by value, such as
``hullrank.rank`` or ``cli._fresh_rank``) is replaced by a wrapper that
records a span, and methods are wrapped on their class.  Nothing under
``src/`` changes.

A span is (name, start, end, parent span, operation id).  Spans live in
flat arrays while the run lasts and are written out when it ends.  A
layer's self time is its span's duration minus the time its child spans
cover.  Counts come from return values where they exist
(``NoWitnessFound.trials``, ``FrobeniusVerdict.trials``, report lengths)
and from call counts or argument sizes otherwise.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("cli", "jsonio", "hullrank", "linalg", "algebra", "multipoly",
           "frobenius", "clifford", "distributions", "planarity")

SETUP = -1


class Recorder:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = SETUP
        self.counts: dict[str, float] = defaultdict(float)  # over operations only
        self.hull_calls = 0

    def tick_hull(self):
        self.hull_calls += 1

    def count(self, metric: str, amount: float = 1.0):
        if self.op_id != SETUP:
            self.counts[metric] += amount

    def wrap(self, name, fn, enter=None, leave=None):
        """Wrapper recording one span per call of ``fn``.

        ``enter(args)`` runs before the call and its value is passed as
        ``leave(state, args, result)`` after a normal return.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            state = enter(args) if enter is not None else None
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if leave is not None:
                leave(state, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation -----------------------------------------------------

    def self_times(self):
        """Per-name self time (s) and calls over operation spans only."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        setup: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            own = (self.end[i] - self.start[i]) - child[i]
            if self.op[i] == SETUP:
                setup[name] += own
            else:
                totals[name] += own
                calls[name] += 1
        return totals, calls, setup

    def dump(self, path: str):
        """Write every span as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_of[i]} {self.start[i]!r} {self.end[i]!r} "
                         f"{self.parent[i]} {self.op[i]}\n")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "affinor_rank" or name.startswith("affinor_rank."))]


def _rebind(orig, wrapper):
    """Replace ``orig`` by ``wrapper`` in every package namespace binding it."""
    hits = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"nothing binds {orig!r}")


def install(rec: Recorder, pkg) -> None:
    """Wrap the package functions behind every per-layer metric.

    ``pkg`` maps module names to the imported package modules.
    """
    cli, jsonio, hullrank, linalg = pkg["cli"], pkg["jsonio"], pkg["hullrank"], pkg["linalg"]
    algebra, multipoly, frobenius = pkg["algebra"], pkg["multipoly"], pkg["frobenius"]
    clifford, distributions, planarity = pkg["clifford"], pkg["distributions"], pkg["planarity"]

    def fn(mod, attr, name, enter=None, leave=None):
        orig = getattr(mod, attr)
        _rebind(orig, rec.wrap(name, orig, enter, leave))

    def method(cls, attr, name, enter=None, leave=None):
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], enter, leave))

    def counter(metric, amount=None):
        def leave(state, args, result):
            rec.count(metric, 1.0 if amount is None else amount(args, result))
        return leave

    # linalg
    matrix = linalg.Matrix
    method(matrix, "__matmul__", "linalg.matmul",
           leave=counter("linalg.matmul.mults", lambda a, r: a[0].rows * a[0].cols * a[1].cols))
    method(matrix, "apply", "linalg.apply")
    fn(linalg, "rank", "linalg.rank")
    fn(linalg, "has_full_row_rank", "linalg.full_row_rank")
    orig_modp = linalg._full_row_rank_modp

    def modp(rows, p):
        result = orig_modp(rows, p)
        if result:
            rec.count("linalg.full_row_rank.modp_certified")
        return result

    _rebind(orig_modp, modp)
    for attr in ("__init__", "coefficients", "residual_sq"):
        method(linalg.SpanSolver, attr, "linalg.span_solve")
    fn(linalg, "det", "linalg.det")
    fn(linalg, "inverse", "linalg.inverse")

    # hullrank
    method(hullrank.AffinorBasis, "__post_init__", "hullrank.basis_validate")
    fn(hullrank, "hull", "hullrank.hull", leave=lambda s, a, r: rec.tick_hull())

    def weak_leave(before, args, result):
        trials = getattr(result, "trials", None)
        rec.count("hullrank.weak_search.candidates",
                  rec.hull_calls - before if trials is None else trials)
        if isinstance(result, hullrank.RankCertificate):
            rec.count("hullrank.weak_search.hits")

    fn(hullrank, "weak_rank_witness", "hullrank.weak_search",
       lambda a: rec.hull_calls, weak_leave)
    fn(hullrank, "pair_span_dim", "hullrank.pair_search")
    fn(hullrank, "_symbolic_minor_scan", "hullrank.symbolic_scan")
    fn(hullrank, "inversion_probe", "hullrank.inversion_probe")

    # algebra
    fn(algebra, "from_affinors", "algebra.closure")
    fn(algebra, "verify_associativity", "algebra.associativity")

    # multipoly
    # terms expanded: monomial products formed while expanding, which is
    # what a report's "expanded_terms" should hold; an identically zero
    # determinant returns no terms at all
    fn(multipoly, "determinant", "multipoly.determinant")
    poly_mul = multipoly.Poly.__mul__

    def mul(a, b):
        rec.count("multipoly.determinant.terms", len(a.terms) * len(b.terms))
        return poly_mul(a, b)

    multipoly.Poly.__mul__ = mul

    # frobenius
    fn(frobenius, "find_frobenius_form", "frobenius.search",
       leave=counter("frobenius.search.candidates", lambda a, r: r.trials))
    fn(frobenius, "gram", "frobenius.gram")
    fn(frobenius, "frobenius_iff_generic_rank", "frobenius.equivalence")

    # clifford
    fn(clifford, "build_clifford", "clifford.build")
    fn(clifford, "verify_clifford_relations", "clifford.relations")
    fn(clifford, "clifford_rank_theorem_check", "clifford.rank_check")

    # distributions
    fn(distributions, "projectors_from_splitting", "distributions.build")
    fn(distributions, "verify_complete_system", "distributions.verify")
    fn(distributions, "distribution_rank_check", "distributions.rank_check")

    # planarity
    fn(planarity, "planarity_check", "planarity.check",
       leave=counter("planarity.check.samples", lambda a, r: len(r.ts)))
    fn(planarity, "geodesic_integrate", "planarity.integrate")

    # jsonio; the verifier parses embedded bases with jsonio scalars in
    # cli._mats_from_basis_json, which counts as building from JSON
    fn(jsonio, "load_json", "jsonio.load",
       leave=counter("jsonio.load.bytes", lambda a, r: os.path.getsize(a[0])))
    for attr in ("basis_from_json", "constants_from_json", "matrix_from_json",
                 "connection_from_json", "curve_from_json"):
        fn(jsonio, attr, "jsonio.build")
    fn(cli, "_mats_from_basis_json", "jsonio.build")

    # cli
    fn(cli, "main", "cli.main")
    fn(cli, "build_parser", "cli.parse")
    # _Parser inherits parse_args; sub-parsers run inside it
    cli._Parser.parse_args = rec.wrap("cli.parse", cli.argparse.ArgumentParser.parse_args)
    fn(cli, "dispatch", "cli.dispatch")
    fn(cli, "verify_certificate_detailed", "cli.verify",
       leave=counter("cli.verify.certificates", lambda a, r: len(r[1])))
    fn(cli, "_fresh_rank", "cli.verify.fresh_rank")
    fn(cli, "_matmul", "cli.verify.closure_recheck")
    cli.json = _JsonProxy(cli.json, rec.wrap(
        "cli.encode", cli.json.dumps,
        leave=lambda s, a, r: rec.count("cli.encode.bytes", len(r))))


class _JsonProxy:
    """The json module as ``cli`` sees it, with ``dumps`` traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: Recorder, ops: int, failed: int) -> dict[str, float]:
    """Self times in ms per operation, counts per operation, ratios."""
    totals, calls, setup = rec.self_times()
    counts = rec.counts
    per_op = 1.0 / ops

    def ms(name):
        return totals.get(name, 0.0) * 1000.0 * per_op

    def n(name):
        return calls.get(name, 0) * per_op

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "linalg.matmul.ms": ms("linalg.matmul"),
        "linalg.matmul.calls": n("linalg.matmul"),
        "linalg.matmul.mults": counts["linalg.matmul.mults"] * per_op,
        "linalg.apply.ms": ms("linalg.apply"),
        "linalg.apply.calls": n("linalg.apply"),
        "linalg.rank.ms": ms("linalg.rank"),
        "linalg.rank.calls": n("linalg.rank"),
        "linalg.full_row_rank.ms": ms("linalg.full_row_rank"),
        "linalg.full_row_rank.modp_ratio": ratio(
            counts["linalg.full_row_rank.modp_certified"], calls.get("linalg.full_row_rank", 0)),
        "linalg.span_solve.ms": ms("linalg.span_solve"),
        "linalg.det.ms": ms("linalg.det"),
        "linalg.inverse.ms": ms("linalg.inverse"),
        "hullrank.basis_validate.ms": ms("hullrank.basis_validate"),
        "hullrank.basis_validate.calls": n("hullrank.basis_validate"),
        "hullrank.hull.ms": ms("hullrank.hull"),
        "hullrank.weak_search.ms": ms("hullrank.weak_search"),
        "hullrank.weak_search.candidates": counts["hullrank.weak_search.candidates"] * per_op,
        "hullrank.weak_search.hit_ratio": ratio(
            counts["hullrank.weak_search.hits"], calls.get("hullrank.weak_search", 0)),
        "hullrank.pair_search.ms": ms("hullrank.pair_search"),
        "hullrank.pair_search.candidates": n("hullrank.pair_search"),
        "hullrank.symbolic_scan.ms": ms("hullrank.symbolic_scan"),
        "hullrank.inversion_probe.ms": ms("hullrank.inversion_probe"),
        "algebra.closure.ms": ms("algebra.closure"),
        "algebra.associativity.ms": ms("algebra.associativity"),
        "multipoly.determinant.ms": ms("multipoly.determinant"),
        "multipoly.determinant.calls": n("multipoly.determinant"),
        "multipoly.determinant.terms": counts["multipoly.determinant.terms"] * per_op,
        "frobenius.search.ms": ms("frobenius.search"),
        "frobenius.search.candidates": counts["frobenius.search.candidates"] * per_op,
        "frobenius.gram.calls": n("frobenius.gram"),
        "frobenius.equivalence.ms": ms("frobenius.equivalence"),
        "clifford.build.ms": ms("clifford.build"),
        "clifford.build.calls": n("clifford.build"),
        "clifford.relations.ms": ms("clifford.relations"),
        "clifford.rank_check.ms": ms("clifford.rank_check"),
        "distributions.build.ms": ms("distributions.build"),
        "distributions.verify.ms": ms("distributions.verify"),
        "distributions.verify.calls": n("distributions.verify"),
        "distributions.rank_check.ms": ms("distributions.rank_check"),
        "planarity.check.ms": ms("planarity.check"),
        "planarity.check.samples": counts["planarity.check.samples"] * per_op,
        # the geodesic is integrated while the inputs are generated: ms per set-up
        "planarity.integrate.ms": setup.get("planarity.integrate", 0.0) * 1000.0,
        "jsonio.load.ms": ms("jsonio.load"),
        "jsonio.load.bytes": counts["jsonio.load.bytes"] * per_op,
        "jsonio.build.ms": ms("jsonio.build"),
        "cli.parse.ms": ms("cli.parse"),
        "cli.dispatch.ms": ms("cli.dispatch"),
        "cli.encode.ms": ms("cli.encode"),
        "cli.encode.bytes": counts["cli.encode.bytes"] * per_op,
        "cli.verify.ms": ms("cli.verify"),
        "cli.verify.certificates": counts["cli.verify.certificates"] * per_op,
        "cli.verify.fresh_rank.ms": ms("cli.verify.fresh_rank"),
        "cli.verify.closure_recheck.ms": ms("cli.verify.closure_recheck"),
        "cli.failed.calls": failed * per_op,
    }
    for module in MODULES:
        out[f"{module}.total.ms"] = sum(
            t for name, t in totals.items() if name.split(".")[0] == module) * 1000.0 * per_op
    return out


# Work a command repeats today: the same build, verification or basis
# validation running more than once per operation.
DUPLICATE_WORK = ("clifford.build", "clifford.relations", "distributions.verify",
                  "hullrank.basis_validate")


def calls_by_family(rec: Recorder, families: list[str]) -> dict[str, dict[str, float]]:
    """Calls per operation of each DUPLICATE_WORK span, per input family."""
    wanted = {rec.names.index(n): n for n in DUPLICATE_WORK if n in rec.names}
    calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for i in range(len(rec.op)):
        op = rec.op[i]
        if op != SETUP and rec.name_of[i] in wanted:
            calls[families[op]][wanted[rec.name_of[i]]] += 1
    ops: dict[str, int] = defaultdict(int)
    for family in families:
        ops[family] += 1
    return {family: {name: c / ops[family] for name, c in sorted(per.items())}
            for family, per in sorted(calls.items())}


def dominant_module(metrics: dict[str, float]) -> str:
    return max(MODULES, key=lambda m: metrics[f"{m}.total.ms"])


def unit_of(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"
