#!/usr/bin/env python3
"""Run every workload untraced and traced, then print one summary.

    python3 bench/report.py --seed 1 --seconds 30

Each run is a separate ``run.py`` process (peak memory is per process),
started one after another from the current directory, which must be the
repository root.  The summary gives every end-to-end metric by name and
unit, the verdict check, the tail percentile, the known-defect probes, the
dominant module of the traced run, the largest module self times and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    all_correct = True
    for workload in workloads.WORKLOADS:
        record, result = _run(workload, args.seed, args.seconds, 0)
        traced, layers = _run(workload, args.seed, args.seconds, 1)
        all_correct = all_correct and result["correct"] and layers["correct"]
        print(f"== {workload} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:24s} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  tail percentile {record['latency_tail_percentile']:.1f} "
              f"({record['latency_tail_samples_beyond']} of {record['attempted']} samples beyond)")
        for probe in record["known_defect_probes"]:
            print(f"  known defect {probe['kind']}: expected {probe['expected']}, "
                  f"observed {probe['observed']}")
        totals = sorted(((layers["metrics"][f"{m}.total.ms"]["value"], m)
                         for m in tracing.MODULES), reverse=True)
        print(f"  dominant module {traced['dominant_module']}; self ms/op: "
              + ", ".join(f"{m} {v:.3g}" for v, m in totals[:4]))
        traced_ops = layers["metrics"]["trace.ops_per_s"]["value"]
        overhead = result["metrics"]["ops_per_s"]["value"] / traced_ops - 1.0
        print(f"  traced ops/s {traced_ops:.4g}, tracing overhead {overhead:+.1%}")
        for family, calls in traced["duplicate_work_calls_per_op"].items():
            if max(calls.values()) > 1:
                print(f"  repeated work per {family} op: "
                      + ", ".join(f"{k} {v:g}" for k, v in calls.items()))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
