"""The traced benchmark run wraps package functions by name; keep them bindable.

``bench/tracing.py`` replaces functions such as ``linalg.has_full_row_rank``
and ``cli.json.dumps`` from outside the package and raises when a name it
wraps is gone.  This runs it on the package the way ``bench/run.py --trace 1``
does, in a subprocess because installation rebinds module attributes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

_PROBE = """
import json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
import prepare, tracing
pkg = prepare.import_package(os.path.join(os.getcwd(), "src"))
rec = tracing.Recorder()
tracing.install(rec, pkg)
rec.op_id = 0
code = pkg["cli"].main(json.loads(sys.argv[1]))
_, calls, _ = rec.self_times()
print(json.dumps({"code": code, "calls": calls}))
"""


def _traced_calls(tmp_path, argv):
    """Exit code and traced calls per span name of one CLI command."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv + ["--out", str(tmp_path / "report.json")])],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    return got["code"], got["calls"]


def test_bench_tracing_installs_and_records(tmp_path):
    code, calls = _traced_calls(tmp_path, ["clifford", "--s", "1", "--t", "1", "--check-rank"])
    assert code == 0
    assert calls.get("linalg.full_row_rank", 0) > 0
    assert calls.get("cli.encode", 0) > 0


def test_bench_tracing_records_the_closure_solve(tmp_path):
    # the traced span_solve layer wraps SpanSolver's methods by name
    code, calls = _traced_calls(
        tmp_path, ["rank", "docs/fixtures/complex_r4_basis.json", "--generic"])
    assert code == 0
    assert calls.get("linalg.span_solve", 0) > 0
    assert calls.get("algebra.closure", 0) > 0
