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
code = pkg["cli"].main(["clifford", "--s", "1", "--t", "1", "--check-rank", "--out", sys.argv[1]])
_, calls, _ = rec.self_times()
print(json.dumps({"code": code, "calls": calls}))
"""


def test_bench_tracing_installs_and_records(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "report.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0
    assert got["calls"].get("linalg.full_row_rank", 0) > 0
    assert got["calls"].get("cli.encode", 0) > 0
