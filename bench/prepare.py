#!/usr/bin/env python3
"""One benchmark set-up, in a process of its own.

    python3 bench/prepare.py --workload audit --seed 1 --work bench/.work/x

Run from the repository root.  Imports the package from ``src/``,
generates the workload's inputs under ``--work`` (for ``audit`` also the
reports it audits), runs the warm-up pass and writes the schedule to
``<work>/schedule.json``.  ``run.py`` times whole runs of this script, so
every set-up it reports pays the full import of the package and numpy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from families import Op, report_field  # noqa: E402

SCHEDULE = "schedule.json"


def import_package(src):
    """Import the package from ``src``; returns its modules by short name."""
    if not os.path.isfile(os.path.join(src, "affinor_rank", "cli.py")):
        raise workloads.SetupError(f"no package source under {src}; run from the repository root")
    sys.path.insert(0, src)
    importlib.import_module("affinor_rank.cli")
    pkg = {m: sys.modules[f"affinor_rank.{m}"] for m in tracing.MODULES}
    if not os.path.abspath(pkg["cli"].__file__).startswith(src + os.sep):
        raise workloads.SetupError(f"affinor_rank was imported from {pkg['cli'].__file__}")
    return pkg


class Runner:
    """Runs operations through ``cli.main`` and checks their verdicts."""

    def __init__(self, pkg, out_path):
        self.pkg = pkg
        self.out = out_path

    def run(self, op):
        """Returns (seconds, exit code or None, error or None, bytes, correct)."""
        if os.path.exists(self.out):
            os.remove(self.out)
        argv = list(op.argv) + ["--out", self.out]
        main = self.pkg["cli"].main
        error = None
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a measured failure, and the run goes on
            code = None
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        size = os.path.getsize(self.out) if os.path.exists(self.out) else 0
        correct = error is None and code == op.exit_code and self._checks_hold(op)
        return elapsed, code, error, size, correct

    def _checks_hold(self, op):
        try:
            with open(self.out, encoding="utf-8") as fh:
                report = json.load(fh)
            return all(report_field(report, path) == want for path, want in op.checks)
        except (OSError, ValueError, KeyError):
            return False

    def produce(self, op):
        """Run ``op`` for its report; returns the report path or None."""
        _, _, _, _, correct = self.run(op)
        return self.out if correct else None


def build(workload, seed, work, runner):
    """Generate the inputs under ``work`` and run the warm-up pass once."""
    os.makedirs(work, exist_ok=True)
    schedule = workloads.build(workload, seed, work, runner.produce, runner.pkg["planarity"])
    for op in schedule.warmup:
        runner.run(op)  # a wrong or failed verdict shows in the timed phase
    return schedule


def save(schedule, work):
    data = {part: [[op.family, list(op.argv), op.exit_code, [list(c) for c in op.checks]]
                   for op in getattr(schedule, part)]
            for part in ("cycle", "warmup", "probes")}
    data["min_cycles"] = schedule.min_cycles
    with open(os.path.join(work, SCHEDULE), "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def load(work):
    with open(os.path.join(work, SCHEDULE), encoding="utf-8") as fh:
        data = json.load(fh)
    ops = {part: [Op(family, tuple(argv), code, tuple(tuple(c) for c in checks))
                  for family, argv, code, checks in data[part]]
           for part in ("cycle", "warmup", "probes")}
    return workloads.Schedule(**ops, min_cycles=data["min_cycles"])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    work = os.path.abspath(args.work)
    os.environ.pop("AFFINOR_RANK_SEED", None)
    try:
        pkg = import_package(os.path.join(os.getcwd(), "src"))
        runner = Runner(pkg, os.path.join(work, "out.json"))
        save(build(args.workload, args.seed, work, runner), work)
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
