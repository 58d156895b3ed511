#!/usr/bin/env python3
"""Benchmark runner for affinor-rank.

Run from the repository root:

    python3 bench/run.py --workload certify-small --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: the next CLI
operation starts when the previous ``affinor_rank.cli.main([...])`` call
returns, because callers of the tool (scripts, CI, ``verify-report``
audits) wait for each verdict before they go on.  The package is imported
from ``src/`` of the current directory.

Set-up (import of the package and numpy, input generation, for ``audit``
also the reports it audits, and one warm-up pass) runs in a child process
(``prepare.py``), so that every set-up pays the full import and the run's
own peak memory covers only the timed operations.  The first set-up makes
the inputs the run measures; the other ones are spread over the timed
phase, paused while they run, so that set-up and operations are sampled
over the same stretch of time.  ``setup_s`` is their median.  The timed
phase repeats the workload's cycle of operations until ``--seconds`` have
passed, always finishing the cycle it is in, so every run measures the
same mix, and runs at least the workload's minimum number of cycles.  Every verdict is checked against the answer known from how the
input was built.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's functions (see ``tracing.py``) and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (environment, tail percentile, failures, known-defect
probes), which is also written to ``bench/.results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import prepare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up runs at least SETUP_MIN_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) as long as they fit in SETUP_BUDGET_S at the speed of
# the first, so that a set-up of a quarter second still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 4.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
EXIT_INTERNAL = 70


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git(root, *argv):
    try:
        proc = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _git_commit(root):
    """``git rev-parse HEAD``, marked dirty when ``git status`` lists changes."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    head = _git(root, "rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head.strip() + ("-dirty" if _git(root, "status", "--porcelain") else "")


def _environment(root, args):
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    # cgroup v2 keeps "quota period" in cpu.max, v1 in two files; -1 or max: none
    quota = (_read("/sys/fs/cgroup/cpu.max") or "").split()
    if not quota:
        quota = [(_read(f"/sys/fs/cgroup/cpu/cpu.cfs_{k}_us") or "").strip()
                 for k in ("quota", "period")]
    if all(v.lstrip("-").isdigit() for v in quota) and int(quota[0]) > 0:
        cpu_quota = int(quota[0]) / int(quota[1])
    else:
        cpu_quota = "unlimited" if quota[0] in ("max", "-1") else "unreadable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_quota_cores": cpu_quota,
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def _child_setup(args, root, work):
    """One set-up in a child process that builds under ``work``; returns seconds."""
    argv = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--work", work]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise workloads.SetupError(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


class Setups:
    """The set-ups of one untraced run, in child processes.

    The first builds the inputs the run measures; ``due`` runs the others
    at even steps of the timed phase.
    """

    def __init__(self, args, root, work):
        self.args, self.root, self.work = args, root, work
        self.inputs = os.path.join(work, "setup0")
        self.times = [_child_setup(args, root, self.inputs)]
        n = max(SETUP_MIN_REPEATS,
                min(SETUP_MAX_REPEATS, math.ceil(SETUP_BUDGET_S / self.times[0])))
        self.pending = [args.seconds * k / n for k in range(1, n)]

    def due(self, clock):
        """Run the set-ups due by ``clock`` seconds of the timed phase."""
        while self.pending and clock >= self.pending[0]:
            self.pending.pop(0)
            extra = os.path.join(self.work, f"setup{len(self.times)}")
            self.times.append(_child_setup(self.args, self.root, extra))
            shutil.rmtree(extra, ignore_errors=True)


@dataclass
class Measurement:
    """Everything the timed phase observed, one entry per operation."""

    samples: list = field(default_factory=list)  # seconds inside cli.main
    sizes: list = field(default_factory=list)  # report bytes written
    families: list = field(default_factory=list)  # input family of each op
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    wall: float = 0.0
    cycle_ops: int = 0  # operations per cycle; the run holds whole cycles

    def ops_per_s(self):
        """Completed operations per second spent inside cli.main."""
        return (len(self.samples) - len(self.failures)) / sum(self.samples)

    def per_family(self):
        by = {}
        for family, elapsed in zip(self.families, self.samples):
            by.setdefault(family, []).append(elapsed)
        return {name: {"ops": len(v), "p50_ms": statistics.median(v) * 1000.0}
                for name, v in sorted(by.items())}


def _measure(args, runner, schedule, recorder, setups):
    """Repeat the cycle in a closed loop until ``args.seconds`` have passed,
    not counting the pauses for ``setups`` (None in a traced run), and the
    schedule's ``min_cycles`` are done."""
    got = Measurement(cycle_ops=len(schedule.cycle))
    start = time.perf_counter()
    paused = 0.0
    while True:
        for op in schedule.cycle:
            if setups is not None:
                before = time.perf_counter()
                setups.due(before - start - paused)
                paused += time.perf_counter() - before
            if recorder is not None:
                recorder.op_id = len(got.samples)
            elapsed, code, error, size, correct = runner.run(op)
            if error is not None or code == EXIT_INTERNAL:
                got.failures.append({"index": len(got.samples), "family": op.family,
                                     "exit": code, "error": error})
            elif not correct:
                got.wrong.append({"family": op.family, "exit": code, "argv": list(op.argv)})
            got.samples.append(elapsed)
            got.sizes.append(size)
            got.families.append(op.family)
        if (len(got.samples) >= schedule.min_cycles * got.cycle_ops
                and time.perf_counter() - start - paused >= args.seconds):
            break
    got.wall = time.perf_counter() - start - paused
    if setups is not None:
        setups.due(math.inf)
    if recorder is not None:
        recorder.op_id = tracing.SETUP
    return got


def _probe(runner, schedule):
    """Known-defect tamper kinds, run once outside the timed loop."""
    out = []
    for op in schedule.probes:
        _, code, error, _, correct = runner.run(op)
        out.append({"kind": op.family, "expected": "exit 1, verified false",
                    "observed": error if error is not None else f"exit {code}",
                    "correct": correct})
    return out


def _tail(samples):
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples beyond it, or of the maximum in a short run."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _end_to_end(got, setups):
    attempted = len(got.samples)
    # a failed operation misses any latency limit: it ranks as infinitely slow
    latencies = list(got.samples)
    for failure in got.failures:
        latencies[failure["index"]] = math.inf
    tail, _, _ = _tail(latencies)
    # Every cycle runs the same mix, so the median of one cycle's latencies
    # estimates the median operation latency; their mean over the run moves
    # smoothly with the share of fast and slow stretches of a shared
    # machine, where the median of all samples flips between them.
    k = got.cycle_ops
    p50 = statistics.fmean(statistics.median(latencies[i:i + k])
                           for i in range(0, len(latencies), k))
    correct = attempted - len(got.failures) - len(got.wrong)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (got.ops_per_s(), "ops/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "verdicts_correct_ratio": (correct / attempted, "ratio"),
        "report_bytes_per_op": (sum(got.sizes) / attempted, "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _per_layer(got, recorder, record):
    layers = tracing.layer_metrics(recorder, len(got.samples), len(got.failures))
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
    metrics["trace.ops_per_s"] = (got.ops_per_s(), "ops/s")
    record["dominant_module"] = tracing.dominant_module(layers)
    record["duplicate_work_calls_per_op"] = tracing.calls_by_family(recorder, got.families)
    record["spans"] = len(recorder.start)
    return metrics


def run(args, root):
    """Set up, measure and write the run record; returns (record, result)."""
    src = os.path.join(root, "src")
    os.environ.pop("AFFINOR_RANK_SEED", None)
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    recorder = tracing.Recorder() if args.trace else None
    setups = None
    try:
        if recorder is None:
            setups = Setups(args, root, work)
            pkg = prepare.import_package(src)
            runner = prepare.Runner(pkg, os.path.join(work, "out.json"))
            schedule = prepare.load(setups.inputs)
            for op in schedule.warmup:
                runner.run(op)
        else:
            # one set-up in this process with the package wrapped, so that
            # its spans (the geodesic integration) are recorded
            pkg = prepare.import_package(src)
            tracing.install(recorder, pkg)
            runner = prepare.Runner(pkg, os.path.join(work, "out.json"))
            schedule = prepare.build(args.workload, args.seed, work, runner)
        got = _measure(args, runner, schedule, recorder, setups)
        probes = _probe(runner, schedule)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    attempted = len(got.samples)
    _, tail_percentile, tail_beyond = _tail(got.samples)
    record = _environment(root, args)
    record.update({
        "cycle_ops": len(schedule.cycle),
        "cycles": attempted // len(schedule.cycle),
        "attempted": attempted,
        "wall_s": got.wall,
        "setup_runs_s": setups.times if setups is not None else None,
        "ops_per_s": got.ops_per_s(),
        "latency_tail_percentile": tail_percentile,
        "latency_tail_samples_beyond": tail_beyond,
        "failed_ops_ratio": len(got.failures) / attempted,
        "failures": got.failures[:20],
        "wrong_verdicts": got.wrong[:20],
        "known_defect_probes": probes,
        "families": got.per_family(),
    })
    if recorder is None:
        metrics = _end_to_end(got, setups.times)
    else:
        metrics = _per_layer(got, recorder, record)
    results = os.path.dirname(_result_path(args, args.trace))
    os.makedirs(results, exist_ok=True)
    with open(_result_path(args, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if recorder is not None:
        recorder.dump(os.path.join(results, f"spans-{args.workload}-seed{args.seed}.txt"))
    return record, {
        "correct": not got.failures and not got.wrong,
        "attempted": attempted,
        "failed": len(got.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _result_path(args, trace):
    return os.path.join(HERE, ".results", f"{args.workload}-seed{args.seed}-trace{trace}.json")


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    stdout = sys.stdout
    try:
        # anything the package prints must not displace the result line
        with contextlib.redirect_stdout(sys.stderr):
            record, result = run(args, root)
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True), file=stdout)
    print(json.dumps(result), file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
