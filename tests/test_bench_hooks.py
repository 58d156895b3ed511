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

import pytest

from affinor_rank.cli import main

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


def test_bench_tracing_records_the_parser(tmp_path):
    # the cli.parse layer wraps build_parser by name, though it is built once
    code, calls = _traced_calls(tmp_path, ["rank", "docs/fixtures/complex_r4_basis.json"])
    assert code == 0
    assert calls.get("cli.parse", 0) > 0


def test_bench_tracing_records_the_closure_solve(tmp_path):
    # the traced span_solve layer wraps SpanSolver's methods by name
    code, calls = _traced_calls(
        tmp_path, ["rank", "docs/fixtures/complex_r4_basis.json", "--generic"])
    assert code == 0
    assert calls.get("linalg.span_solve", 0) > 0
    assert calls.get("algebra.closure", 0) > 0


@pytest.mark.parametrize("argv, want, span", [
    # local3 is not Frobenius: a definitive negative, exit 1
    (["frobenius", "docs/fixtures/local3_constants.json"], 1, "algebra.associativity"),
    (["distributions", "--dims", "2,2"], 0, "distributions.verify"),
    (["rank", "docs/fixtures/quaternion_r4_basis.json", "--probe-inversion"], 0,
     "hullrank.inversion_probe"),
    # the helix leaves the complex structure's hull: a definitive negative
    (["planar", "--basis", "docs/fixtures/complex_r4_basis.json",
      "--connection", "docs/fixtures/flat4_connection.json",
      "--curve", "docs/fixtures/helix_curve.json"], 1, "planarity.check"),
])
def test_bench_tracing_records_the_identity_checks(tmp_path, argv, want, span):
    # the traced layers of the product-identity checks wrap them by name
    code, calls = _traced_calls(tmp_path, argv)
    assert code == want
    assert calls.get(span, 0) > 0


def test_bench_tracing_records_the_verifier(tmp_path):
    # the verifier's traced layers wrap _fresh_rank, _matmul and
    # _mats_from_basis_json by name; the last reads sparse matrices too
    report = tmp_path / "generic.json"
    assert main(["rank", str(ROOT / "docs/fixtures/quaternion_r8_basis.json"), "--generic",
                 "--out", str(report)]) == 0
    cert = json.loads(report.read_text())["result"]["certificate"]
    assert "nonzeros" in cert["basis"]["mats"][1]
    code, calls = _traced_calls(tmp_path, ["verify-report", str(report)])
    assert code == 0
    for span in ("cli.verify.fresh_rank", "cli.verify.closure_recheck", "jsonio.build"):
        assert calls.get(span, 0) > 0, span

