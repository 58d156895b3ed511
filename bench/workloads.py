"""The three benchmark workloads, built from a seed.

A workload is a cycle of CLI operations that run.py repeats in a
closed loop, plus a short warm-up list run once during set-up.

* ``certify-small``: many small, varied certification commands that take
  milliseconds each.  Fixed per-call costs carry it (argument parsing,
  JSON, ``Fraction`` construction, basis validation, candidate search, the
  closure solver on non-closed spans, symbolic minor expansion); dense
  kernels are a small share, so a kernel that pays a set-up cost on 4x4
  matrices shows here as a regression.
* ``certify-dense``: large exact modules (Clifford regular
  representations up to Cl(3,3), doubled Clifford modules at m = 16,
  projector systems at m = 12).  Dense ``Fraction`` products, mod-p basis
  validation and MB-scale report encoding dominate, together with the
  duplicated builds and verifications inside one command.
* ``audit``: ``verify-report`` over reports produced during set-up by the
  two certify generators, plus tampered copies whose correct answer is
  "reject".  This is the read side of the same certificates: JSON decode,
  scalar parsing, the verifier's own elimination and closure recheck, and
  none of the search or ``linalg`` kernels.  Its dense reports are Cl(3,2)
  (0.66 MB) and the m = 12 splitting into planes, not Cl(3,3) (5.1 MB,
  1.5-1.9 s to verify): with two Cl(3,3) audits per cycle a run held only
  sixteen of them, the tail was one of those sixteen, and it spread by
  more than a quarter between runs on a busy host.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from families import (
    InputDir,
    Op,
    algebra_ops,
    dense_ops,
    distribution_ops,
    planar_ops,
    rank_ops,
    report_field,
    scalar_json,
    warmup_ops,
)

WORKLOADS = ("certify-small", "certify-dense", "audit")


@dataclass
class Schedule:
    cycle: list[Op]
    warmup: list[Op]
    probes: list[Op] = field(default_factory=list)
    # Whole cycles a run holds at least, however long they take.
    # ``latency_tail_ms`` is the eleventh slowest operation of the run; with
    # fewer cycles than this it falls out of the workload's slowest kind of
    # operation into a much faster one, and the metric jumps with the speed
    # of the machine instead of the program.
    min_cycles: int = 1


class SetupError(RuntimeError):
    """The workload could not be built as specified."""


def build(name: str, seed: int, root: str, run_op, planarity) -> Schedule:
    """Generate the inputs of workload ``name`` under ``root``.

    ``run_op(op)`` runs one operation through the CLI, checks its verdict
    and returns the report path or None; ``audit`` uses it to produce the
    reports it audits.  ``planarity`` is the package's planarity module.
    """
    rng = random.Random(f"{name}/{seed}")
    inputs = InputDir(os.path.join(root, "inputs"))
    if name == "certify-small":
        return _small(rng, inputs, planarity)
    if name == "certify-dense":
        cycle = dense_ops(rng, inputs)
        rng.shuffle(cycle)
        # four of ten operations per cycle take over a second (1x12, Cl(3,3),
        # the two doubled modules); four cycles put the tail (the eleventh
        # slowest) in the middle of the eight doubled-module runs
        return Schedule(cycle, warmup_ops(rng, inputs), min_cycles=4)
    if name == "audit":
        return _audit(rng, inputs, root, run_op)
    raise SetupError(f"unknown workload {name!r}")


def _small(rng, inputs, planarity) -> Schedule:
    cycle = (rank_ops(rng, inputs) + algebra_ops(rng, inputs)
             + distribution_ops(rng, inputs) + planar_ops(rng, inputs, planarity))
    rng.shuffle(cycle)
    return Schedule(cycle, _one_per_command(cycle))


def _one_per_command(ops):
    """First op of every distinct command, for the warm-up pass."""
    seen, out = set(), []
    for op in ops:
        key = op.argv[:2] if op.argv[0] == "algebra" else op.argv[:1]
        if key not in seen:
            seen.add(key)
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


# Where each produced report keeps the certificate to tamper with, and how
# many certificates it embeds, known from the command: a rank report one,
# `frobenius` one (the module-rank witness), `distributions` two (weak and
# generic), `clifford --check-rank` one.
_PRODUCED = {
    "quaternion_generic": ("result.certificate", 1),
    "complex_weak": ("result.certificate", 1),
    "jordan_generic": ("result.certificate", 1),
    "frobenius_dual": ("result.module_rank", 1),
    "distributions_2x3": ("result.rank.generic", 2),
    "distributions_2x6": ("result.rank.generic", 2),
    "clifford_32": ("result.rank_certificate", 1),
}


def _pick(ops, wanted):
    for op in ops:
        if wanted(op):
            return op
    raise SetupError("no operation to produce a report from")


def _tamper_witness_zeroed(cert):
    cert["witness"] = [0] * len(cert["witness"])


def _tamper_claimed_rank_raised(cert):
    cert["claimed_rank"] += 1


def _tamper_closure_shifted(cert):
    c = cert["closure"]["C"]
    c[1][1][0] = scalar_json(Fraction(c[1][1][0]) + 1)


def _tamper_pair_collapsed(cert):
    cert["pair"]["y"] = list(cert["pair"]["x"])


def _tamper_pivot_cols_dropped(cert):
    cert["pivot_cols"] = cert["pivot_cols"][:-1]


# Known verifier defects: the correct answer is "reject", but today the
# first two raise IndexError out of `main()` and the third is accepted
# through Python's negative indexing.  They run as probes outside the timed
# loop, are reported as measured, and flip once the verifier is fixed.
def _tamper_pivot_rows_out_of_range(cert):
    cert["pivot_rows"] = [99] + list(range(cert["claimed_rank"] - 1))


def _tamper_closure_emptied(cert):
    cert["closure"]["C"] = []


def _tamper_pivot_rows_negative(cert):
    cert["pivot_rows"] = [-1] + list(range(cert["claimed_rank"] - 1))


TAMPERS = {
    "witness_zeroed": _tamper_witness_zeroed,
    "claimed_rank_raised": _tamper_claimed_rank_raised,
    "closure_shifted": _tamper_closure_shifted,
    "pair_collapsed": _tamper_pair_collapsed,
    "pivot_cols_dropped": _tamper_pivot_cols_dropped,
}

KNOWN_DEFECTS = {
    "pivot_rows_out_of_range": _tamper_pivot_rows_out_of_range,
    "closure_emptied": _tamper_closure_emptied,
    "pivot_rows_negative": _tamper_pivot_rows_negative,
}

# (source report, tamper kind): a fixed mix, so every seed audits the same
# kinds of damage on freshly generated certificates.  A dropped pivot column
# is caught only after the full hull recheck, so the tampered Cl(3,2) copy
# costs as much as auditing the intact one.
_TAMPER_MIX = (
    ("quaternion_generic", "witness_zeroed"),
    ("quaternion_generic", "claimed_rank_raised"),
    ("quaternion_generic", "closure_shifted"),
    ("quaternion_generic", "pair_collapsed"),
    ("jordan_generic", "pivot_cols_dropped"),
    ("complex_weak", "witness_zeroed"),
    ("distributions_2x3", "closure_shifted"),
    ("distributions_2x6", "pair_collapsed"),
    ("clifford_32", "claimed_rank_raised"),
    ("clifford_32", "pivot_cols_dropped"),
)


def _audit(rng, inputs, root, run_op) -> Schedule:
    small = rank_ops(rng, inputs) + algebra_ops(rng, inputs) + distribution_ops(rng, inputs)
    dense = dense_ops(rng, inputs)
    sources = {
        "quaternion_generic": _pick(small, lambda op: op.family == "quaternion"
                                    and "--generic" in op.argv),
        "complex_weak": _pick(small, lambda op: op.family == "complex"
                              and len(op.argv) == 2 and "_r6" in op.argv[1]),
        "jordan_generic": _pick(small, lambda op: op.family == "jordan"
                                and "--generic" in op.argv and "_k3" in op.argv[1]),
        "frobenius_dual": _pick(small, lambda op: op.family == "frobenius_dual"),
        "distributions_2x3": _pick(small, lambda op: op.family == "distributions"
                                   and op.argv[2] == "2,2,2"),
        "distributions_2x6": _pick(dense, lambda op: op.family == "distributions_2x6"),
        "clifford_32": _pick(dense, lambda op: op.family == "clifford_32"),
    }
    report_dir = os.path.join(root, "reports")
    os.makedirs(report_dir, exist_ok=True)
    cycle, reports = [], {}
    for key, op in sources.items():
        produced = run_op(op)
        if produced is None:
            raise SetupError(f"producing the {key} report failed")
        path = os.path.join(report_dir, f"{key}.json")
        os.replace(produced, path)
        reports[key] = path
        cycle.append(Op(f"verify_{key}", ("verify-report", path), 0,
                        (("result.verified", True),
                         ("result.certificates_checked", _PRODUCED[key][1]))))

    def tampered(key, kind, fn, tag):
        with open(reports[key], encoding="utf-8") as fh:
            report = json.load(fh)
        fn(report_field(report, _PRODUCED[key][0]))
        path = os.path.join(report_dir, f"{key}.{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return Op(f"{tag}_{key}_{kind}", ("verify-report", path), 1,
                  (("result.verified", False),))

    for key, kind in _TAMPER_MIX:
        cycle.append(tampered(key, kind, TAMPERS[kind], "tampered"))
    probes = [tampered("quaternion_generic", kind, fn, "known_defect")
              for kind, fn in KNOWN_DEFECTS.items()]
    rng.shuffle(cycle)
    warmup = [op for op in cycle if op.family in ("verify_complex_weak",
                                                  "tampered_complex_weak_witness_zeroed")]
    # the two m = 12 splitting audits are the slowest operations of a cycle
    # (about 0.3 s, then the Cl(3,2) pair at 0.2 s); eight cycles keep the
    # tail among them when a slow host fits few cycles into a run
    return Schedule(cycle, warmup, probes, min_cycles=8)
