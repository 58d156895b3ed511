"""End-to-end command line behavior: exit codes, reports, re-verification."""

import argparse
import ast
import json
import math
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from affinor_rank import algebra, cli, clifford, distributions, linalg, verify, wire
from affinor_rank.cli import (
    EXIT_DATA,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_POSITIVE,
    EXIT_USAGE,
    main,
    verify_certificate_detailed,
)
from affinor_rank.errors import InputFormatError, MissingCertificate
from affinor_rank.linalg import MAX_PRODUCT_ENTRIES, products_refused
from affinor_rank.wire import MAX_ENTRIES

from conftest import densify, reference_verify_certificate

FIXTURES = Path(__file__).parent.parent / "docs" / "fixtures"


def _run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _strip_time(report: dict) -> dict:
    cleaned = dict(report)
    cleaned.pop("wall_time_s", None)
    return cleaned


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_weak_positive(capsys):
    code, report = _run(capsys, "rank", str(FIXTURES / "complex_r4_basis.json"))
    assert code == EXIT_POSITIVE
    assert report["result"]["outcome"] == "certified"
    assert report["result"]["claimed_rank"] == 2


def test_rank_generic_quaternions_r8(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "rank", str(FIXTURES / "quaternion_r8_basis.json"), "--generic",
        "--out", str(out),
    ])
    assert code == EXIT_POSITIVE
    report = json.loads(out.read_text())
    assert report["result"]["kind"] == "generic"
    assert report["result"]["claimed_rank"] == 4
    assert verify_certificate_detailed(out)[0]


def test_rank_reads_entries_past_int64(capsys, tmp_path):
    # integer JSON past 2**63 becomes an object-array view end to end
    big = 2**63
    rows = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[big, 0, 0], [0, 0, 0], [0, 0, 0]]]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "mode": "exact", "mats": [
        {"rows": 3, "cols": 3, "mode": "exact", "entries": e} for e in rows]}))
    code, report = _run(capsys, "rank", str(path))
    assert code == EXIT_POSITIVE
    assert report["result"]["claimed_rank"] == 2
    basis = densify(report["result"]["certificate"]["basis"])
    assert basis["mats"][1]["entries"][0][0] == big


@pytest.mark.parametrize("scalar", ["1e5000", "1e-5000", "1e10000000"])
def test_exponent_scalars_past_the_digit_limit_are_refused(capsys, tmp_path, scalar):
    # a few bytes of exponent name an integer of 5001 digits or more; it is
    # refused as input before the power of ten is built, where it once
    # ended in exit 70 when the report was written, after seconds for 1e10000000
    basis = json.loads((FIXTURES / "complex_r4_basis.json").read_text())
    basis["mats"][1]["entries"][0][0] = scalar
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    start = time.perf_counter()
    assert main(["rank", str(path)]) == EXIT_DATA
    assert "more than 4300 digits" in capsys.readouterr().err
    # the verifier shares the parser: such a witness is rejected at once
    out = tmp_path / "report.json"
    main(["rank", str(FIXTURES / "complex_r4_basis.json"), "--out", str(out)])
    report = json.loads(out.read_text())
    report["result"]["certificate"]["witness"][0] = scalar
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    assert time.perf_counter() - start < 1.0


def test_integer_literals_past_the_digit_limit_are_refused(capsys, tmp_path):
    # json refuses to read a 5000-digit integer literal; that once ended in exit 70
    text = json.dumps(json.loads((FIXTURES / "complex_r4_basis.json").read_text()))
    path = tmp_path / "basis.json"
    path.write_text(text.replace("[[0, -1, 0, 0]", "[[" + "1" * 5000 + ", -1, 0, 0]", 1))
    assert main(["rank", str(path)]) == EXIT_DATA
    assert "invalid JSON" in capsys.readouterr().err


def test_rank_generic_dimension_too_small(capsys):
    code, report = _run(
        capsys, "rank", str(FIXTURES / "quaternion_r4_basis.json"), "--generic"
    )
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["reason"] == "DimensionTooSmall"


def test_rank_probe_inversion(capsys):
    code, report = _run(
        capsys, "rank", str(FIXTURES / "quaternion_r4_basis.json"),
        "--probe-inversion", "--trials", "16",
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["inversion_probe"]["outcome"] == "all_sampled_invertible"


# ---------------------------------------------------------------------------
# algebra / frobenius
# ---------------------------------------------------------------------------


def test_algebra_verify_positive(capsys):
    code, report = _run(
        capsys, "algebra", "verify", str(FIXTURES / "dual_numbers_constants.json")
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["valid"] is True


def test_algebra_verify_negative(capsys, tmp_path):
    broken = {"n": 2, "C": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, report = _run(capsys, "algebra", "verify", str(path))
    assert code == EXIT_NEGATIVE
    assert report["result"]["unity"]["violations"]


def test_frobenius_positive(capsys):
    code, report = _run(
        capsys, "frobenius", str(FIXTURES / "dual_numbers_constants.json")
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["frobenius"]["status"] == "frobenius"
    assert report["result"]["agree"] is True


def test_frobenius_negative_with_proof(capsys):
    code, report = _run(capsys, "frobenius", str(FIXTURES / "local3_constants.json"))
    assert code == EXIT_NEGATIVE
    assert report["result"]["frobenius"]["status"] == "not_frobenius"
    assert report["result"]["frobenius"]["proof"]["kind"] == "symbolic_zero_determinant"
    assert report["result"]["agree"] is True


# ---------------------------------------------------------------------------
# clifford / distributions
# ---------------------------------------------------------------------------


def test_clifford_emit_and_check(capsys, tmp_path):
    emitted = tmp_path / "cl02.json"
    code, report = _run(
        capsys, "clifford", "--s", "0", "--t", "2",
        "--emit", str(emitted), "--check-rank",
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["relations"]["ok"] is True
    assert report["result"]["claimed_rank"] == 4
    # the emitted basis must round-trip through the rank command
    code2, report2 = _run(capsys, "rank", str(emitted))
    assert code2 == EXIT_POSITIVE
    assert report2["result"]["claimed_rank"] == 4


def test_clifford_check_rank_builds_once(capsys, monkeypatch):
    built = []
    real = clifford.build_clifford

    def counting(sig):
        built.append(sig)
        return real(sig)

    monkeypatch.setattr(clifford, "build_clifford", counting)
    code, report = _run(capsys, "clifford", "--s", "1", "--t", "1", "--check-rank")
    assert code == EXIT_POSITIVE
    assert report["result"]["claimed_rank"] == 4
    assert len(built) == 1


def test_clifford_checks_relations_once(capsys, monkeypatch):
    checked = []
    real = clifford.verify_clifford_relations

    def counting(cb):
        checked.append(cb.signature)
        return real(cb)

    monkeypatch.setattr(clifford, "verify_clifford_relations", counting)
    code, report = _run(capsys, "clifford", "--s", "2", "--t", "1", "--check-rank")
    assert code == EXIT_POSITIVE
    assert report["result"]["relations"]["ok"] is True
    assert len(checked) == 1


@pytest.mark.parametrize("s, t", [("-1", "2"), ("0", "0"), ("2", "-3")])
def test_clifford_invalid_signature_is_usage_error(capsys, s, t):
    code = main(["clifford", "--s", s, "--t", t])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "internal error" not in captured.err
    assert f"--s {s} --t {t}" in captured.err


def test_distributions_verifies_system_once(capsys, monkeypatch):
    checked = []
    real = distributions.verify_complete_system

    def counting(ps):
        checked.append(ps)
        return real(ps)

    monkeypatch.setattr(distributions, "verify_complete_system", counting)
    code, report = _run(
        capsys, "distributions", "--dims", "2,2",
        "--conjugate", str(FIXTURES / "conjugation_q4.json"),
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["verification"]["ok"] is True
    assert len(checked) == 1


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``linalg.<name>``, under whatever name a package
    module imported it."""
    calls, real = [], getattr(linalg, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("affinor_rank") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("argv, code, stacks", [
    # the operator family and the projectors are stored as stacks; only a
    # basis read from JSON is stacked, once
    (["frobenius", "local3_constants.json"], EXIT_NEGATIVE, 0),
    (["distributions", "--dims", "2,2", "--conjugate", "conjugation_q4.json"], EXIT_POSITIVE, 0),
    (["rank", "quaternion_r8_basis.json", "--generic"], EXIT_POSITIVE, 1),
])
def test_families_are_stacked_only_from_outside_matrices(capsys, monkeypatch, argv, code, stacks):
    calls = _count_calls(monkeypatch, "stack")
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == code
    assert len(calls) == stacks


def test_frobenius_reduces_few_views_to_lowest_terms(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "_lowest_terms")
    assert main(["frobenius", str(FIXTURES / "local3_constants.json")]) == EXIT_NEGATIVE
    assert 0 < len(calls) <= 15


def test_distributions_generic(capsys):
    code, report = _run(capsys, "distributions", "--dims", "2,2")
    assert code == EXIT_POSITIVE
    assert report["result"]["rank"]["weak"]["claimed_rank"] == 2
    assert report["result"]["rank"]["generic"]["claimed_rank"] == 2


def test_distributions_conjugated(capsys):
    code, report = _run(
        capsys, "distributions", "--dims", "2,2",
        "--conjugate", str(FIXTURES / "conjugation_q4.json"),
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["verification"]["ok"] is True


def test_distributions_inapplicable_dims(capsys):
    code, report = _run(capsys, "distributions", "--dims", "1,1,1,1")
    assert code == EXIT_POSITIVE
    assert report["result"]["rank"]["generic"]["outcome"] == "inapplicable"


def test_distributions_thin_block_inconclusive(capsys):
    code, report = _run(capsys, "distributions", "--dims", "1,3", "--trials", "24")
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["rank"]["generic"]["outcome"] == "no_witness_found"


def test_distributions_bad_dims_usage(capsys):
    assert main(["distributions", "--dims", "2,x"]) == EXIT_USAGE


@pytest.mark.parametrize("dims", ["0,2", "-1,3", "0"])
def test_distributions_nonpositive_dims_usage(capsys, dims):
    # a flag fault, refused before the missing conjugate would exit 65
    code = main(["distributions", f"--dims={dims}", "--conjugate", "missing.json"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and f"--dims {dims}: block dimensions must be positive" in err


def test_distributions_singular_conjugate_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "mode": "exact",
                                "entries": [[1, 1], [1, 1]]}))
    assert main(["distributions", "--dims", "1,1", "--conjugate", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == "affinor-rank: change of basis is singular\n"


# ---------------------------------------------------------------------------
# planar
# ---------------------------------------------------------------------------


def test_planar_helix_counterexample(capsys):
    code, report = _run(
        capsys, "planar",
        "--basis", str(FIXTURES / "complex_r4_basis.json"),
        "--connection", str(FIXTURES / "flat4_connection.json"),
        "--curve", str(FIXTURES / "helix_curve.json"),
    )
    assert code == EXIT_NEGATIVE
    assert report["result"]["verdict"] == "not_planar"
    assert report["result"]["counterexample"]["t"] == 0.0


def test_planar_circle_r2(capsys):
    code, report = _run(
        capsys, "planar",
        "--basis", str(FIXTURES / "complex_r2_basis.json"),
        "--connection", str(FIXTURES / "flat2_connection.json"),
        "--curve", str(FIXTURES / "circle2_curve.json"),
    )
    assert code == EXIT_POSITIVE
    assert report["result"]["verdict"] == "planar"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_planar_tolerance_must_be_finite_and_positive(capsys, tol):
    # every residual compares False against nan, which would read as a
    # definitive negative; inf would accept anything
    code = main([
        "planar",
        "--basis", str(FIXTURES / "complex_r2_basis.json"),
        "--connection", str(FIXTURES / "flat2_connection.json"),
        "--curve", str(FIXTURES / "circle2_curve.json"),
        "--tol", tol,
    ])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--tol" in captured.err


# ---------------------------------------------------------------------------
# verify-report and error handling
# ---------------------------------------------------------------------------


def test_verify_report_tampered_witness(capsys, tmp_path):
    out = tmp_path / "report.json"
    main(["rank", str(FIXTURES / "complex_r4_basis.json"), "--out", str(out)])
    report = json.loads(out.read_text())
    report["result"]["certificate"]["witness"] = [0, 0, 0, 0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False


def test_verify_report_bumped_rank(capsys, tmp_path):
    out = tmp_path / "report.json"
    main(["rank", str(FIXTURES / "complex_r4_basis.json"), "--out", str(out)])
    report = json.loads(out.read_text())
    report["result"]["certificate"]["claimed_rank"] = 3
    report["result"]["claimed_rank"] = 3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    assert main(["verify-report", str(tampered)]) == EXIT_NEGATIVE


_NOT_THE_IDENTITY = "first basis element is not the identity"


@pytest.mark.parametrize("generic, unit, closure", [
    pytest.param(False, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], None,
                 id="weak_2I"),
    pytest.param(False, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 5]], None,
                 id="weak_diag_1115"),
    # a closure table forged to fit {2I, J}: 2I 2I = 2 (2I) and J J = -1/2 (2I)
    pytest.param(True, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                 [[[2, 0], [0, 2]], [[0, 2], ["-1/2", 0]]], id="generic_2I_forged_closure"),
])
def test_verify_report_rejects_a_basis_not_starting_with_the_identity(
        capsys, tmp_path, generic, unit, closure):
    # every other check passes on these, but ``rank`` refuses such a basis
    out = tmp_path / "report.json"
    argv = ["rank", str(FIXTURES / "complex_r4_basis.json"), "--out", str(out)]
    main(argv + ["--generic"] * generic)
    report = json.loads(out.read_text())
    cert = report["result"]["certificate"]
    cert["basis"]["mats"][0]["entries"] = unit
    if closure is not None:
        cert["closure"]["C"] = closure
    assert reference_verify_certificate(cert) == (False, _NOT_THE_IDENTITY)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    assert verdict["result"]["details"][0]["message"] == _NOT_THE_IDENTITY


def _pivot_row(value):
    def tamper(cert):
        cert["pivot_rows"] = [value, 0, 1, 2]
    return tamper


def _set_closure(value):
    def tamper(cert):
        cert["closure"]["C"] = value
    return tamper


def _drop_closure_entry(cert):
    cert["closure"]["C"][1][2] = cert["closure"]["C"][1][2][:-1]


def _last_pivot_col_8(cert):
    cert["pivot_cols"] = cert["pivot_cols"][:-1] + [8]


def _drop_basis_row(cert):
    # the verifier reads both forms, so the sparse unity may be written out first
    cert["basis"] = densify(cert["basis"])
    cert["basis"]["mats"][1]["entries"] = cert["basis"]["mats"][1]["entries"][:-1]


@pytest.mark.parametrize("tamper", [
    pytest.param(_pivot_row(99), id="pivot_row_99"),
    # Python would read -1 as the last row and accept the minor
    pytest.param(_pivot_row(-1), id="pivot_row_negative"),
    pytest.param(_pivot_row("3"), id="pivot_row_string"),
    pytest.param(_last_pivot_col_8, id="pivot_col_8"),
    pytest.param(_set_closure([]), id="closure_empty"),
    pytest.param(_set_closure(None), id="closure_null"),
    pytest.param(_drop_closure_entry, id="closure_ragged"),
    pytest.param(_drop_basis_row, id="basis_matrix_short"),
])
def test_verify_report_rejects_malformed_certificate(capsys, tmp_path, tamper):
    out = tmp_path / "report.json"
    main(["rank", str(FIXTURES / "quaternion_r8_basis.json"), "--generic", "--out", str(out)])
    report = json.loads(out.read_text())
    tamper(report["result"]["certificate"])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False


# Defects of one sparse matrix in a certificate whose every other field is
# intact: the projector P_1 of the splitting of R^8 into four planes (two
# nonzeros, under "mats"), and the generator e1 of Cl(3,2) (32 nonzeros,
# under "generators").


def _set_at(path, value):
    def tamper(node):
        *parents, key = path
        for parent in parents:
            node = node[parent]
        node[key] = value
    return tamper


def _both_forms(mat):
    mat["entries"] = densify(mat)["entries"]


def _neither_form(mat):
    del mat["nonzeros"]


def _swap_first_two(mat):
    nz = mat["nonzeros"]
    nz[0], nz[1] = nz[1], nz[0]


def _repeat_first(mat):
    mat["nonzeros"].insert(1, list(mat["nonzeros"][0]))


@pytest.fixture(scope="module")
def cl32_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cl32") / "report.json"
    assert main(["clifford", "--s", "3", "--t", "2", "--check-rank", "--out", str(out)]) == 0
    assert verify_certificate_detailed(out)[0]
    report = json.loads(out.read_text())
    basis = report["result"]["rank_certificate"]["basis"]
    assert "mats" not in basis and len(basis["generators"]) == 5
    assert basis["generators"][0]["nonzeros"][0] == [0, 1, 1]
    return report


@pytest.fixture(scope="module")
def planes_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("planes") / "report.json"
    assert main(["distributions", "--dims", "2,2,2,2", "--out", str(out)]) == 0
    assert verify_certificate_detailed(out)[0]
    report = json.loads(out.read_text())
    assert report["result"]["rank"]["generic"]["basis"]["mats"][1]["nonzeros"] == [
        [0, 0, 1], [1, 1, 1]]
    return report


def _verdict_of_tampered(capsys, tmp_path, report, tamper, *path):
    """(exit code, verify-report result) of a copy of ``report`` whose
    field at ``path`` is given to ``tamper``."""
    report = json.loads(json.dumps(report))
    target = report
    for key in path:
        target = target[key]
    tamper(target)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    return code, verdict["result"]


_SPARSE_TAMPER_PARAMS = [
    pytest.param(_both_forms, id="both_forms"),
    pytest.param(_neither_form, id="neither_form"),
    pytest.param(_set_at(("nonzeros", 0, 0), False), id="index_bool"),
    pytest.param(_set_at(("nonzeros", 0, 1), 1.0), id="index_float"),
    pytest.param(_set_at(("nonzeros", 0, 1), "1"), id="index_string"),
    pytest.param(_set_at(("nonzeros", -1, 1), 32), id="index_out_of_range"),
    pytest.param(_set_at(("nonzeros", 0, 0), -1), id="index_negative"),
    pytest.param(_swap_first_two, id="unsorted"),
    pytest.param(_repeat_first, id="duplicate"),
    pytest.param(_set_at(("nonzeros", 0, 2), 0), id="value_zero"),
    pytest.param(_set_at(("nonzeros", 0, 2), "1/z"), id="value_unparsable"),
    pytest.param(_set_at(("nonzeros", 0), [0, 1]), id="pair_not_triple"),
    pytest.param(_set_at(("nonzeros",), "[]"), id="not_a_list"),
    pytest.param(_set_at(("rows",), 31), id="rows_not_m"),
    pytest.param(_set_at(("cols",), 33), id="cols_not_m"),
]
_SPARSE_TAMPERS = pytest.mark.parametrize("tamper", _SPARSE_TAMPER_PARAMS)


@_SPARSE_TAMPERS
def test_verify_report_rejects_malformed_sparse_matrix(capsys, tmp_path, planes_report, tamper):
    code, result = _verdict_of_tampered(capsys, tmp_path, planes_report, tamper,
                                        "result", "rank", "generic", "basis", "mats", 1)
    assert code == EXIT_NEGATIVE
    assert result["verified"] is False
    assert [d["ok"] for d in result["details"]] == [False, True]


@_SPARSE_TAMPERS
def test_verify_report_rejects_malformed_sparse_generator(capsys, tmp_path, cl32_report, tamper):
    code, result = _verdict_of_tampered(capsys, tmp_path, cl32_report, tamper,
                                        "result", "rank_certificate", "basis", "generators", 0)
    assert code == EXIT_NEGATIVE
    assert result["verified"] is False


def _densified(tamper):
    def dense_tamper(mat):
        mat.update(densify(mat))
        del mat["nonzeros"]
        tamper(mat)
    return dense_tamper


def _shorten_row(mat):
    mat["entries"][2].pop()


# The one reader of a matrix's content, wire.matrix_content, serves both an
# input basis and a basis embedded in a report; rows and cols are labels,
# which each caller checks in its own words.
_LABEL_TAMPERS = ("rows_not_m", "cols_not_m")


@pytest.mark.parametrize("tamper", [p for p in _SPARSE_TAMPER_PARAMS
                                    if p.id not in _LABEL_TAMPERS] + [
    pytest.param(_densified(_set_at(("entries", 3, 3), 1.0)), id="dense_float"),
    pytest.param(_densified(_set_at(("entries", 0, 0), True)), id="dense_bool"),
    pytest.param(_densified(_shorten_row), id="dense_short_row"),
    pytest.param(_densified(_set_at(("nonzeros",), [])), id="dense_both_forms"),
])
def test_one_matrix_defect_gives_one_message(capsys, tmp_path, planes_report, tamper):
    basis = json.loads(json.dumps(planes_report["result"]["rank"]["generic"]["basis"]))
    tamper(basis["mats"][1])
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    assert main(["rank", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    prefix = f"{cli.TOOL_NAME}: {path}: "
    assert err.startswith(prefix) and err.count("\n") == 1, err
    code, result = _verdict_of_tampered(capsys, tmp_path, planes_report, tamper,
                                        "result", "rank", "generic", "basis", "mats", 1)
    assert code == EXIT_NEGATIVE
    assert result["details"][0]["message"] == (
        f"malformed certificate: {tmp_path / 'tampered.json'}: {err[len(prefix):-1]}")


@pytest.mark.parametrize("tamper, rank_error, verifier_message", [
    (_set_at(("rows",), 31), "field 'mats[1]': expected an 8x8 matrix",
     "mats[1].rows is 31, expected 8"),
    (_set_at(("cols",), 33), "field 'mats[1]': expected an 8x8 matrix",
     "mats[1].cols is 33, expected 8"),
], ids=_LABEL_TAMPERS)
def test_matrix_label_defects_keep_each_reader_s_message(
        capsys, tmp_path, planes_report, tamper, rank_error, verifier_message):
    basis = json.loads(json.dumps(planes_report["result"]["rank"]["generic"]["basis"]))
    tamper(basis["mats"][1])
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    assert main(["rank", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"{cli.TOOL_NAME}: {path}: {rank_error}\n"
    code, result = _verdict_of_tampered(capsys, tmp_path, planes_report, tamper,
                                        "result", "rank", "generic", "basis", "mats", 1)
    assert code == EXIT_NEGATIVE
    assert result["details"][0]["message"] == verifier_message


def _set_word(index, word):
    def tamper(basis):
        basis["words"][index] = word
    return tamper


def _swap_words(i, j):
    def tamper(basis):
        words = basis["words"]
        words[i], words[j] = words[j], words[i]
    return tamper


_BAD_LETTERS = "words[{}] is not a list of generator indices"


# Cl(3,2): five generators, words[1..5] are [0]..[4] and words[6] is [0, 1]
@pytest.mark.parametrize("tamper, message", [
    pytest.param(_set_word(6, [0, 5]), _BAD_LETTERS.format(6), id="letter_out_of_range"),
    pytest.param(_set_word(6, [-1, 1]), _BAD_LETTERS.format(6), id="letter_negative"),
    pytest.param(_set_word(1, [False]), _BAD_LETTERS.format(1), id="letter_bool"),
    pytest.param(_set_word(6, [0, "1"]), _BAD_LETTERS.format(6), id="letter_string"),
    pytest.param(_set_word(6, "01"), _BAD_LETTERS.format(6), id="word_not_a_list"),
    pytest.param(_set_word(0, [0]), "first basis element is not the identity",
                 id="first_word_nonempty"),
    # [0, 1] moves before its tail [1]
    pytest.param(_swap_words(1, 6), "the tail of words[1] is not an earlier word",
                 id="tail_later"),
    pytest.param(_set_word(6, [0, 1, 1]), "the tail of words[6] is not an earlier word",
                 id="tail_missing"),
    pytest.param(_set_word(2, [0]), "words[2] repeats an earlier word", id="repeated_word"),
    pytest.param(lambda basis: basis["words"].pop(), "certificate dimensions are inconsistent",
                 id="one_word_short"),
    pytest.param(lambda basis: basis.update(words={}), "certificate dimensions are inconsistent",
                 id="words_not_a_list"),
])
def test_verify_report_rejects_tampered_words(capsys, tmp_path, cl32_report, tamper, message):
    code, result = _verdict_of_tampered(capsys, tmp_path, cl32_report, tamper,
                                        "result", "rank_certificate", "basis")
    assert code == EXIT_NEGATIVE
    assert result["verified"] is False
    assert result["details"][0]["message"] == message


def test_verify_report_rejects_generator_form_without_its_words(capsys, tmp_path, cl32_report):
    code, result = _verdict_of_tampered(capsys, tmp_path, cl32_report,
                                        lambda basis: basis.pop("words"),
                                        "result", "rank_certificate", "basis")
    assert code == EXIT_NEGATIVE
    assert result["details"][0]["message"].startswith("malformed certificate: KeyError")


def test_verify_report_rejects_a_generic_certificate_in_generator_form(
        capsys, tmp_path, cl32_report):
    # no command writes one: the closure recheck multiplies the basis matrices
    def tamper(cert):
        cert["kind"] = "generic"
    code, result = _verdict_of_tampered(capsys, tmp_path, cl32_report, tamper,
                                        "result", "rank_certificate")
    assert code == EXIT_NEGATIVE
    assert result["details"][0]["message"] == "a generic certificate must list its basis matrices"


def test_verify_report_rejects_a_changed_sparse_value(capsys, tmp_path):
    # a weak certificate rechecks only the images A_k w, which no change of a
    # nonzero value of a signed permutation makes dependent; the closure
    # recheck of a generic certificate sees any change
    report = _generic_report(tmp_path)
    mat = report["result"]["certificate"]["basis"]["mats"][1]
    assert mat["nonzeros"][0][2] in (1, -1)
    mat["nonzeros"][0][2] *= 2
    for form in (report, densify(report)):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(form))
        code, verdict = _run(capsys, "verify-report", str(tampered))
        assert code == EXIT_NEGATIVE
        assert verdict["result"]["details"][0]["message"] == "closure equation fails at pair (1, 1)"


@pytest.fixture(scope="module")
def conjugated_planes_report(tmp_path_factory):
    # "p/q" entries, a closure table, and one basis in both certificates
    out = tmp_path_factory.mktemp("conjugated") / "report.json"
    assert main(["distributions", "--dims", "2,2", "--conjugate",
                 str(FIXTURES / "conjugation_q4.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rank = report["result"]["rank"]
    assert rank["weak"]["basis"] == rank["generic"]["basis"]
    assert rank["weak"]["basis"]["mats"][1]["entries"][0][0] == "3/2"
    return report


_FLOAT = "floats are not accepted as exact scalars; write p/q or an integer"


# one entry of one certificate's basis changed: only that certificate
# fails, with its own message; "6/4" and "1" spell the intact values
@pytest.mark.parametrize("target", ["generic", "weak"])
@pytest.mark.parametrize("mat, i, j, value, messages", [
    pytest.param(0, 3, 3, 1.0, {"generic": f"field 'mats[0].entries[3][3]': {_FLOAT}",
                                "weak": f"field 'mats[0].entries[3][3]': {_FLOAT}"}, id="float"),
    pytest.param(0, 0, 0, True,
                 {"generic": "field 'mats[0].entries[0][0]': booleans are not scalars",
                  "weak": "field 'mats[0].entries[0][0]': booleans are not scalars"}, id="bool"),
    pytest.param(0, 3, 3, 5, {"generic": "closure equation fails at pair (0, 0)",
                              "weak": _NOT_THE_IDENTITY}, id="identity_changed"),
    pytest.param(1, 0, 0, "3/1", {"generic": "closure equation fails at pair (1, 1)",
                                  "weak": "ok"}, id="value_changed"),
    pytest.param(1, 0, 0, "6/4", {"generic": "ok", "weak": "ok"}, id="respelled"),
    pytest.param(0, 1, 1, "1", {"generic": "ok", "weak": "ok"}, id="int_as_string"),
])
def test_verify_report_fails_only_the_certificate_whose_basis_changed(
        capsys, tmp_path, conjugated_planes_report, target, mat, i, j, value, messages):
    report = json.loads(json.dumps(conjugated_planes_report))
    report["result"]["rank"][target]["basis"]["mats"][mat]["entries"][i][j] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(path))
    message = messages[target]
    if message.startswith("field "):
        message = f"malformed certificate: {path}: {message}"
    want = {kind: ("ok" if kind != target else message) for kind in ("generic", "weak")}
    assert {d["kind"]: d["message"] for d in verdict["result"]["details"]} == want
    assert [d["ok"] for d in verdict["result"]["details"]] == [
        want[kind] == "ok" for kind in ("generic", "weak")]
    assert code == (EXIT_POSITIVE if all(v == "ok" for v in want.values()) else EXIT_NEGATIVE)


# Cl(2,1) spans all of R^8, too much for a generic rank; the four planes of
# R^8 get a generic certificate
@pytest.mark.parametrize("argv, want", [
    (["clifford", "--s", "2", "--t", "1"], EXIT_INCONCLUSIVE),
    (["distributions", "--dims", "2,2,2,2"], EXIT_POSITIVE),
], ids=["clifford", "distributions"])
def test_emitted_sparse_basis_reads_back(capsys, tmp_path, argv, want):
    emitted = tmp_path / "basis.json"
    assert main(argv + ["--emit", str(emitted)]) == EXIT_POSITIVE
    capsys.readouterr()
    basis = json.loads(emitted.read_text())
    assert all("nonzeros" in mj for mj in basis["mats"][1:])
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(densify(basis)))
    results = []
    for path in (emitted, dense):
        code, report = _run(capsys, "rank", str(path), "--generic")
        results.append((code, report["result"]))
    assert results[0] == results[1]
    assert results[0][0] == want


def test_cl43_report_is_small_and_verifies(capsys, tmp_path):
    # Cl(4,3): 128 blades of 128 x 128, 2.1 M entries of which 16 k are nonzero
    out = tmp_path / "cl43.json"
    assert main(["clifford", "--s", "4", "--t", "3", "--check-rank", "--out", str(out)]) == 0
    assert out.stat().st_size < 500_000
    code, verdict = _run(capsys, "verify-report", str(out))
    assert code == EXIT_POSITIVE
    assert verdict["result"]["verified"] is True


def test_cl43_report_embeds_generators_and_is_under_20_kb(capsys, tmp_path):
    # 7 generators of 128 nonzeros and 128 words, instead of 128 blades
    out = tmp_path / "cl43.json"
    assert main(["clifford", "--s", "4", "--t", "3", "--check-rank", "--out", str(out)]) == 0
    assert out.stat().st_size < 20_000
    basis = json.loads(out.read_text())["result"]["rank_certificate"]["basis"]
    assert len(basis["generators"]) == 7 and len(basis["words"]) == 128
    code, verdict = _run(capsys, "verify-report", str(out))
    assert code == EXIT_POSITIVE
    assert verdict["result"]["verified"] is True


def _generic_report(tmp_path) -> dict:
    out = tmp_path / "report.json"
    main(["rank", str(FIXTURES / "quaternion_r8_basis.json"), "--generic", "--out", str(out)])
    return json.loads(out.read_text())


# Each value equals the field's true value under ==, so only its type is wrong;
# before the type check a float m or a string inequality.m exited 70, and a
# float claimed_rank, two_ell or pair.dim verified.
@pytest.mark.parametrize("path, value", [
    (("basis", "m"), 8),
    (("basis", "n"), 4),
    (("claimed_rank",), 4),
    (("inequality", "two_ell"), 8),
    (("inequality", "m"), 8),
    (("pair", "dim"), 8),
], ids=["basis.m", "basis.n", "claimed_rank", "inequality.two_ell", "inequality.m", "pair.dim"])
def test_verify_report_rejects_mistyped_fields(capsys, tmp_path, path, value):
    report = _generic_report(tmp_path)
    *parents, key = path
    for wrong in (float(value), str(value), True):
        cert = json.loads(json.dumps(report["result"]["certificate"]))
        target = cert
        for parent in parents:
            target = target[parent]
        assert target[key] == value
        target[key] = wrong
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({"result": {"certificate": cert}}))
        code, verdict = _run(capsys, "verify-report", str(tampered))
        assert code == EXIT_NEGATIVE, wrong
        assert verdict["result"]["verified"] is False
        message = verdict["result"]["details"][0]["message"]
        assert message == f"{'.'.join(path)} must be an integer, got {wrong!r}"


# A vector written as a string of its digits, or as an object keyed "0".."7":
# iterated, these read digit by digit, or as 0, 1, .., 7, and each verified
# before the verifier required a list.
@pytest.mark.parametrize("path", [("witness",), ("pair", "x"), ("pair", "y")],
                         ids=["witness", "pair.x", "pair.y"])
@pytest.mark.parametrize("spell", [
    pytest.param(lambda vec: "".join(map(str, vec)), id="digit_string"),
    pytest.param(lambda vec: {str(k): v for k, v in enumerate(vec)}, id="dict"),
])
def test_verify_report_rejects_a_vector_that_is_not_a_list(capsys, tmp_path, path, spell):
    report = _generic_report(tmp_path)
    cert = report["result"]["certificate"]
    *parents, key = path
    target = cert
    for parent in parents:
        target = target[parent]
    target[key] = spell(target[key])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    message = f"field '{'.'.join(path)}': expected a list of scalars"
    assert verdict["result"]["details"][0]["message"] == (
        f"malformed certificate: {tampered}: {message}")
    with pytest.raises(InputFormatError, match=re.escape(message)):
        reference_verify_certificate(cert, str(tampered))


# A relabelled quaternion_r8 report: the entries are intact, only the labels
# a reader of the basis checks disagree with them.
@pytest.mark.parametrize("path, value, message", [
    (("mode",), "float", "basis.mode is 'float', expected 'exact'"),
    (("mats", 1, "mode"), "float", "mats[1].mode is 'float', expected 'exact'"),
    (("mats", 2, "rows"), 3, "mats[2].rows is 3, expected 8"),
    (("mats", 3, "cols"), 99, "mats[3].cols is 99, expected 8"),
], ids=["basis.mode", "mats.mode", "mats.rows", "mats.cols"])
def test_verify_report_rejects_relabelled_basis(capsys, tmp_path, path, value, message):
    report = _generic_report(tmp_path)
    target = report["result"]["certificate"]["basis"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, verdict = _run(capsys, "verify-report", str(tampered))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    assert verdict["result"]["details"][0]["message"] == message


def _claim_rank_3(cert):
    cert["claimed_rank"], cert["pivot_rows"], cert["pivot_cols"] = 3, [0, 1, 2], [0, 1, 2]


# One check of the verifier each, on the quaternion_r8 generic report (m = 8,
# n = 4); a vector one entry short once ended in exit 70 (IndexError)
@pytest.mark.parametrize("tamper, message", [
    (_set_at(("closure", "n"), 999), "closure.n is 999, expected 4"),
    (_set_at(("closure", "mode"), "float"), "closure.mode is 'float', expected 'exact'"),
    (_set_at(("kind",), "foo"), "unknown certificate kind 'foo'"),
    (_claim_rank_3, "claimed rank 3 differs from span rank 4"),
    (_set_at(("witness",), [1] + [0] * 6), "certificate dimensions are inconsistent"),
    (_set_at(("pair", "x"), [1] + [0] * 6), "pair vectors do not match the module dimension"),
], ids=["closure.n", "closure.mode", "kind", "claimed_rank", "witness_short", "pair.x_short"])
def test_verify_report_rejects_a_tampered_generic_certificate(capsys, tmp_path, tamper, message):
    code, result = _verdict_of_tampered(
        capsys, tmp_path, _generic_report(tmp_path), tamper, "result", "certificate")
    assert code == EXIT_NEGATIVE
    assert result["verified"] is False
    assert result["details"][0]["message"] == message


def _with_exact_mode(obj):
    """A copy of ``obj`` with ``"mode": "exact"`` on every matrix, basis and
    closure table, as writers put it before they dropped the label."""
    if isinstance(obj, list):
        return [_with_exact_mode(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    out = {k: _with_exact_mode(v) for k, v in obj.items()}
    if {"rows", "cols"} <= obj.keys() or {"m", "n"} <= obj.keys() or {"n", "C"} <= obj.keys():
        out["mode"] = "exact"
    return out


@pytest.mark.parametrize("argv, code", [
    (["rank", str(FIXTURES / "quaternion_r8_basis.json"), "--generic"], EXIT_POSITIVE),
    (["rank", str(FIXTURES / "complex_r4_basis.json")], EXIT_POSITIVE),
    (["clifford", "--s", "1", "--t", "1", "--check-rank"], EXIT_POSITIVE),
    (["distributions", "--dims", "2,2", "--conjugate", str(FIXTURES / "conjugation_q4.json")],
     EXIT_POSITIVE),
], ids=["rank_generic", "rank_weak", "clifford", "distributions"])
def test_verify_report_gives_old_and_new_reports_one_verdict(capsys, tmp_path, argv, code):
    new = tmp_path / "new.json"
    assert main(argv + ["--out", str(new)]) == code
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_with_exact_mode(json.loads(new.read_text()))))
    assert old.read_text().count('"mode": "exact"') > 2
    verdicts = [_run(capsys, "verify-report", str(path)) for path in (new, old)]
    assert verdicts[0][0] == verdicts[1][0] == EXIT_POSITIVE
    assert verdicts[0][1]["result"] == verdicts[1][1]["result"]


@pytest.mark.parametrize("argv", [
    ["clifford", "--s", "1", "--t", "1"],
    ["distributions", "--dims", "2,2"],
], ids=["clifford", "distributions"])
def test_emitted_bases_read_back_with_and_without_mode(capsys, tmp_path, argv):
    new = tmp_path / "basis.json"
    assert main(argv + ["--emit", str(new)]) == EXIT_POSITIVE
    capsys.readouterr()
    basis = json.loads(new.read_text())
    assert "mode" not in basis and all("mode" not in mj for mj in basis["mats"])
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_with_exact_mode(basis)))
    results = []
    for path in (new, old):
        code, report = _run(capsys, "rank", str(path))
        assert code == EXIT_POSITIVE
        results.append(report["result"])
    assert results[0]["certificate"]["witness"] == results[1]["certificate"]["witness"]
    assert results[0] == results[1]


@pytest.mark.parametrize("name", [
    "complex_r2_basis", "complex_r4_basis", "quaternion_r4_basis", "quaternion_r8_basis"])
def test_committed_fixtures_with_mode_read_as_without(capsys, tmp_path, name):
    # the committed bases still carry "mode": "exact" on the basis and each matrix
    fixture = FIXTURES / f"{name}.json"
    text = fixture.read_text()
    assert text.count('"mode": "exact",') == json.loads(text)["n"] + 1
    bare = tmp_path / "bare.json"
    bare.write_text(text.replace('"mode": "exact",', ""))
    results = [_run(capsys, "rank", str(path))[1]["result"] for path in (fixture, bare)]
    assert results[0] == results[1]
    assert results[0]["outcome"] == "certified"


def test_verify_report_rejects_an_empty_basis(capsys, tmp_path):
    # every check of an n = 0 certificate is vacuous; AffinorBasis refuses it too
    cert = {
        "kind": "generic", "claimed_rank": 0, "witness": [1, 0],
        "pivot_rows": [], "pivot_cols": [],
        "basis": {"m": 2, "n": 0, "mode": "exact", "mats": []},
        "closure": {"C": []},
        "pair": {"x": [1, 0], "y": [0, 1], "dim": 0},
        "inequality": {"two_ell": 0, "m": 2},
    }
    path = tmp_path / "empty_basis.json"
    path.write_text(json.dumps({"result": {"certificate": cert}}))
    code, verdict = _run(capsys, "verify-report", str(path))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    assert "n = 0" in verdict["result"]["details"][0]["message"]


def test_verify_report_rejects_an_oversized_sparse_basis(capsys, tmp_path):
    # a valid generic certificate for the identity on R^4097: about 70 KB of
    # JSON that, unchecked, would recheck its closure with dense 4097 x 4097 lists
    m = 4097
    e0, e1 = [1] + [0] * (m - 1), [0, 1] + [0] * (m - 2)
    identity = {"rows": m, "cols": m, "mode": "exact",
                "nonzeros": [[i, i, 1] for i in range(m)]}
    cert = {
        "kind": "generic", "claimed_rank": 1, "witness": e0,
        "pivot_rows": [0], "pivot_cols": [0],
        "basis": {"m": m, "n": 1, "mode": "exact", "mats": [identity]},
        "closure": {"C": [[[1]]]},
        "pair": {"x": e0, "y": e1, "dim": 2},
        "inequality": {"two_ell": 2, "m": m},
    }
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps({"result": {"certificate": cert}}))
    code, verdict = _run(capsys, "verify-report", str(path))
    assert code == EXIT_NEGATIVE
    assert verdict["result"]["verified"] is False
    message = verdict["result"]["details"][0]["message"]
    assert message == f"1 matrices of {m}x{m} exceed {MAX_ENTRIES} entries"


def test_verify_report_caps_the_generators_too(capsys, tmp_path):
    # one element, but five empty 2048 x 2048 generators, each parsed into
    # 2048 rows: a generator list is capped like a basis
    m = 2048
    empty = {"rows": m, "cols": m, "mode": "exact", "nonzeros": []}
    cert = {
        "kind": "weak", "claimed_rank": 1, "witness": [1] + [0] * (m - 1),
        "pivot_rows": [0], "pivot_cols": [0],
        "basis": {"m": m, "n": 1, "mode": "exact", "generators": [empty] * 5, "words": [[]]},
    }
    path = tmp_path / "many_generators.json"
    path.write_text(json.dumps({"result": {"certificate": cert}}))
    code, verdict = _run(capsys, "verify-report", str(path))
    assert code == EXIT_NEGATIVE
    message = verdict["result"]["details"][0]["message"]
    assert message == f"5 matrices of {m}x{m} exceed {MAX_ENTRIES} entries"
    cert["basis"]["generators"] = [empty]
    path.write_text(json.dumps({"result": {"certificate": cert}}))
    assert _run(capsys, "verify-report", str(path))[1]["result"]["verified"] is True


@pytest.mark.parametrize("module", [verify, wire], ids=["verify", "wire"])
def test_verifier_imports_only_the_stdlib_errors_and_wire(module):
    # verify-report is an independent recheck: it shares no kernel with the
    # producers and runs on plain Python ints, so its modules import nothing
    # but the standard library and the package's errors and wire readers
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:  # relative: name each module
            base = "." * node.level + (node.module or "")
            names.update([base] if node.module else (base + alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    allowed = {".errors", ".wire"}
    assert {name for name in names if name not in allowed
            and name.split(".")[0] not in sys.stdlib_module_names} == set(), names


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    def boom(args):
        raise IndexError("list index out of range")

    monkeypatch.setitem(cli._HANDLERS, "rank", boom)
    code = main(["rank", str(FIXTURES / "complex_r4_basis.json")])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert "IndexError" in captured.err


def _float_matrix(m):
    return {"rows": m, "cols": m, "mode": "float",
            "entries": [[float(i == j) for j in range(m)] for i in range(m)]}


def test_float_mode_inputs_exit_with_data_error(capsys, tmp_path):
    basis = json.loads((FIXTURES / "complex_r4_basis.json").read_text())
    basis["mats"][1]["mode"] = "float"
    basis_path = tmp_path / "float_basis.json"
    basis_path.write_text(json.dumps(basis))
    q_path = tmp_path / "float_q.json"
    q_path.write_text(json.dumps(_float_matrix(4)))
    invocations = [
        (["rank", str(basis_path)], basis_path, "mats[1].mode"),
        (["planar", "--basis", str(basis_path),
          "--connection", str(FIXTURES / "flat4_connection.json"),
          "--curve", str(FIXTURES / "helix_curve.json")], basis_path, "mats[1].mode"),
        (["distributions", "--dims", "2,2", "--conjugate", str(q_path)], q_path, "mode"),
    ]
    for argv, path, field in invocations:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_DATA, argv
        assert err == (f"affinor-rank: {path}: field '{field}': "
                       "unsupported mode 'float'; matrices are exact\n"), argv


@pytest.mark.parametrize("argv", [
    ["rank", "{dir}"],
    ["verify-report", "{dir}"],
    ["distributions", "--dims", "2,2", "--conjugate", "{dir}"],
    ["planar", "--basis", "complex_r4_basis.json", "--connection", "{dir}",
     "--curve", "helix_curve.json"],
], ids=["rank", "verify-report", "distributions", "planar"])
def test_an_input_path_that_cannot_be_read_is_a_data_error(capsys, tmp_path, argv):
    # a directory opens, then fails to read: one stderr line names the path
    argv = [str(tmp_path) if a == "{dir}" else str(FIXTURES / a) if a.endswith(".json") else a
            for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err == f"affinor-rank: {tmp_path}: field '<file>': cannot read: Is a directory\n"


def test_rank_rejects_a_float_labelled_basis(capsys, tmp_path):
    # the matrices stay exact; only the basis's own label says float
    basis = json.loads((FIXTURES / "quaternion_r8_basis.json").read_text())
    basis["mode"] = "float"
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(basis))
    code = main(["rank", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert f"{path}: field 'mode': unsupported mode 'float'" in captured.err


@pytest.mark.parametrize("entry", [None, [0.5]], ids=["null", "list"])
def test_planar_rejects_non_numeric_samples(capsys, tmp_path, entry):
    ts = [0.1 * k for k in range(6)]
    values = [[t, 0.0, 0.0, 0.0] for t in ts]
    values[3][2] = entry
    curve = tmp_path / "sampled.json"
    curve.write_text(json.dumps({"kind": "sampled", "m": 4, "t": ts, "values": values}))
    code = main(["planar", "--basis", str(FIXTURES / "complex_r4_basis.json"),
                 "--connection", str(FIXTURES / "flat4_connection.json"),
                 "--curve", str(curve)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "values" in err


def _sampled_helix(curve, bad):
    ts = [0.1 * k for k in range(6)]
    values = [[math.cos(t), math.sin(t), t, 0.0] for t in ts]
    values[3][2] = bad
    curve.clear()
    curve.update(kind="sampled", m=4, t=ts, values=values)


def _scale_helix(curve, factor):
    for comp in curve["coords"]:
        for term in comp:
            term["coeff"] *= factor


@pytest.mark.parametrize("spoil", [
    lambda conn, curve: conn["gamma"]["constant"][0][1].__setitem__(2, math.nan),
    lambda conn, curve: conn["gamma"]["constant"][0][1].__setitem__(2, None),
    lambda conn, curve: _scale_helix(curve, 1e300),  # |tangent|^2 overflows
    lambda conn, curve: _sampled_helix(curve, math.nan),
    lambda conn, curve: _sampled_helix(curve, 10 ** 400),  # past the float range
    lambda conn, curve: curve.__setitem__("domain", [0.0, math.inf]),
    lambda conn, curve: curve["coords"][0][0].__setitem__("omega", 1e200),  # omega^2 overflows
    lambda conn, curve: curve["coords"][2][0].__setitem__("exp", 10 ** 400),
], ids=["nan-gamma", "null-gamma", "overflow", "nan-sample", "huge-sample", "inf-domain",
        "omega-overflow", "huge-exponent"])
def test_planar_rejects_non_finite_numbers(capsys, tmp_path, spoil):
    # a NaN residual passes every "> tol" test, and an infinite |tangent|^2
    # passes a sample outright: neither may read as a verdict
    conn = json.loads((FIXTURES / "flat4_connection.json").read_text())
    curve = json.loads((FIXTURES / "helix_curve.json").read_text())
    spoil(conn, curve)
    (tmp_path / "conn.json").write_text(json.dumps(conn))
    (tmp_path / "curve.json").write_text(json.dumps(curve))
    code = main(["planar", "--basis", str(FIXTURES / "complex_r4_basis.json"),
                 "--connection", str(tmp_path / "conn.json"),
                 "--curve", str(tmp_path / "curve.json")])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def _poly_term(conn, term):
    conn["gamma"] = {"poly": [[[[] for _ in range(4)] for _ in range(4)] for _ in range(4)]}
    conn["gamma"]["poly"][0][1][2] = [term]


@pytest.mark.parametrize("term, code", [
    ([0.0, [1, 0, 0, 0]], EXIT_NEGATIVE),  # the flat connection, written as a polynomial
    ([0.0, [10 ** 400, 0, 0, 0]], EXIT_DATA),  # past the float range
    ([0.0, [1.5, 0, 0, 0]], EXIT_DATA),
    ([0.0, [True, 0, 0, 0]], EXIT_DATA),
    ([0.0, [-1, 0, 0, 0]], EXIT_DATA),
    ([0.0, [1, 0, 0]], EXIT_DATA),  # one exponent short of m = 4
    ([True, [1, 0, 0, 0]], EXIT_DATA),
    (["nan", [1, 0, 0, 0]], EXIT_DATA),
    ([0.0, 1], EXIT_DATA),
], ids=["valid", "huge-exponent", "fractional-exponent", "bool-exponent", "negative-exponent",
        "short-exponents", "bool-coefficient", "string-coefficient", "bare-exponent"])
def test_planar_reads_polynomial_connections_by_the_number_rules(capsys, tmp_path, term, code):
    # each number of a "poly" cell is read as curve terms are: a finite
    # coefficient, and one nonnegative integer exponent per coordinate
    conn = json.loads((FIXTURES / "flat4_connection.json").read_text())
    _poly_term(conn, term)
    (tmp_path / "conn.json").write_text(json.dumps(conn))
    got = main(["planar", "--basis", str(FIXTURES / "complex_r4_basis.json"),
                "--connection", str(tmp_path / "conn.json"),
                "--curve", str(FIXTURES / "helix_curve.json"), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert got == code
    if code == EXIT_DATA:
        assert err.count("\n") == 1 and "gamma.poly[0][1][2][0]" in err


@pytest.mark.parametrize("argv", [
    ["rank", "missing.json", "--trials", "4097"],
    ["frobenius", "missing.json", "--trials", "4097"],
    ["planar", "--basis", "missing.json", "--connection", "missing.json",
     "--curve", "missing.json", "--samples", "100001"],
], ids=["rank-trials", "frobenius-trials", "planar-samples"])
def test_search_and_sample_caps_refuse_before_reading_input(capsys, argv):
    # the cap is checked first: the missing input would otherwise exit 65
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and argv[-2] in captured.err


@pytest.mark.parametrize("command", [["algebra", "verify"], ["frobenius"]])
@pytest.mark.parametrize("n", [0, -1])
def test_constants_without_unity_are_refused(capsys, tmp_path, command, n):
    # an algebra with unity has n >= 1: smaller n is bad input, named by its field
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"n": n, "C": []}))
    code = main(command + [str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and "field 'n'" in err and "n >= 1" in err


# The pairwise-product cap: every input here is one step past it, and each
# is refused before a product, a span solve or a projector is built.


def test_product_cap_bounds():
    assert products_refused(32, 32) is None  # 32**4 == MAX_PRODUCT_ENTRIES
    assert products_refused(33, 33) is not None
    assert products_refused(1, 1025) is not None


def test_distributions_past_the_product_cap_is_a_usage_error(capsys):
    # one block of 1025: 1025**2 product entries; the missing conjugate
    # would exit 65, so the cap is checked before any input is read
    code = main(["distributions", "--dims", "1025", "--conjugate", "missing.json"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and f"exceed {MAX_PRODUCT_ENTRIES} entries" in err


def test_constants_past_the_product_cap_are_refused(capsys, tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"n": 33, "C": []}))  # refused before C is read
    for command in (["algebra", "verify"], ["frobenius"]):
        assert main(command + [str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "field 'n'" in err and f"exceed {MAX_PRODUCT_ENTRIES} entries" in err


def test_generic_rank_past_the_product_cap_is_refused(capsys, tmp_path, monkeypatch):
    # {E, E_01} at m = 513 passes the basis cap but not the product cap
    m = 513
    identity = [[i, i, 1] for i in range(m)]
    mats = [{"rows": m, "cols": m, "mode": "exact", "nonzeros": nz}
            for nz in (identity, [[0, 1, 1]])]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"m": m, "n": 2, "mode": "exact", "mats": mats}))

    def no_solve(*args):
        raise AssertionError("the span solver was built past the cap")

    monkeypatch.setattr(algebra, "SpanSolver", no_solve)
    code = main(["rank", str(path), "--generic"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and f"exceed {MAX_PRODUCT_ENTRIES} entries" in err


def test_verify_report_missing_certificate(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"result": {}}))
    with pytest.raises(MissingCertificate):
        verify_certificate_detailed(path)
    assert main(["verify-report", str(path)]) == EXIT_DATA


def test_malformed_input_exits_with_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code = main(["rank", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert str(path) in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                         ids=["utf16-bom", "nested-200k"])
@pytest.mark.parametrize("command", ["verify-report", "rank"])
def test_unreadable_input_exits_with_data_error(tmp_path, capsys, content, command):
    # not UTF-8, and nested past the decoder's recursion limit
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("argv", [
    ["rank", str(FIXTURES / "complex_r4_basis.json"), "--out"],
    ["clifford", "--s", "1", "--t", "1", "--emit"],
    ["distributions", "--dims", "2,2", "--emit"],
], ids=["out", "clifford-emit", "distributions-emit"])
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(argv + [str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.count("\n") == 1
    assert argv[-1] in err and str(target) in err


def test_unknown_command_is_usage_error():
    assert main(["transmogrify"]) == EXIT_USAGE


def test_env_seed_respected(capsys, monkeypatch):
    monkeypatch.setenv("AFFINOR_RANK_SEED", "17")
    _, report = _run(capsys, "rank", str(FIXTURES / "complex_r4_basis.json"))
    assert report["result"]["evidence"]["seed"] == 17
    _, report2 = _run(
        capsys, "rank", str(FIXTURES / "complex_r4_basis.json"), "--seed", "3"
    )
    assert report2["result"]["evidence"]["seed"] == 3


def test_reports_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, report = _run(
            capsys, "rank", str(FIXTURES / "quaternion_r8_basis.json"),
            "--generic", "--seed", "0",
        )
        runs.append(json.dumps(_strip_time(report), sort_keys=True))
    assert runs[0] == runs[1]


def test_wall_time_is_rounded_to_microseconds(capsys, monkeypatch):
    # the repr of an unrounded elapsed time grows and shrinks with the
    # machine's speed, and the report's length with it
    ticks = iter([2.0, 2.0 + 1 / 3])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    _, report = _run(capsys, "rank", str(FIXTURES / "complex_r4_basis.json"))
    assert report["wall_time_s"] == round(report["wall_time_s"], 6) == 0.333333


def _assert_compact(text: str):
    """One line plus a newline, sorted keys, no padding."""
    assert text.endswith("\n") and text.count("\n") == 1
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_reports_and_emitted_bases_are_compact_json(capsys, tmp_path):
    out, emitted = tmp_path / "report.json", tmp_path / "basis.json"
    argv = ["clifford", "--s", "1", "--t", "1", "--check-rank", "--emit", str(emitted)]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_POSITIVE
    _assert_compact(out.read_text())
    _assert_compact(emitted.read_text())
    # same content as the indented encoding of the same report
    _, report = cli.dispatch(cli.build_parser().parse_args(argv + ["--out", str(out)]))
    indented_report = json.loads(json.dumps(report, indent=2, sort_keys=True))
    assert _strip_time(json.loads(out.read_text())) == _strip_time(indented_report)
    basis = clifford.build_clifford(clifford.CliffordSignature(1, 1)).to_json()
    indented_basis = json.loads(json.dumps(basis, indent=2, sort_keys=True))
    assert json.loads(emitted.read_text()) == indented_basis
    # the reader takes the compact report and an indented copy of it alike
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(out.read_text()), indent=2, sort_keys=True))
    for path in (out, indented):
        code, verdict = _run(capsys, "verify-report", str(path))
        assert code == EXIT_POSITIVE
        assert verdict["result"]["verified"] is True


def test_text_format(capsys):
    code = main([
        "rank", str(FIXTURES / "complex_r4_basis.json"), "--format", "text"
    ])
    out = capsys.readouterr().out
    assert code == EXIT_POSITIVE
    assert "exit 0" in out
    assert "claimed_rank: 2" in out


def test_doc_fixtures_all_run_quickly(capsys):
    invocations = [
        ["rank", str(FIXTURES / "complex_r4_basis.json")],
        ["rank", str(FIXTURES / "complex_r2_basis.json")],
        ["rank", str(FIXTURES / "quaternion_r8_basis.json"), "--generic"],
        ["rank", str(FIXTURES / "quaternion_r4_basis.json")],
        ["algebra", "verify", str(FIXTURES / "dual_numbers_constants.json")],
        ["algebra", "verify", str(FIXTURES / "local3_constants.json")],
        ["frobenius", str(FIXTURES / "dual_numbers_constants.json")],
        ["frobenius", str(FIXTURES / "local3_constants.json")],
        ["planar",
         "--basis", str(FIXTURES / "complex_r4_basis.json"),
         "--connection", str(FIXTURES / "flat4_connection.json"),
         "--curve", str(FIXTURES / "helix_curve.json")],
        ["planar",
         "--basis", str(FIXTURES / "complex_r2_basis.json"),
         "--connection", str(FIXTURES / "flat2_connection.json"),
         "--curve", str(FIXTURES / "circle2_curve.json")],
        ["distributions", "--dims", "2,2",
         "--conjugate", str(FIXTURES / "conjugation_q4.json")],
    ]
    for argv in invocations:
        start = time.monotonic()
        code = main(argv)
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert code in (EXIT_POSITIVE, EXIT_NEGATIVE, EXIT_INCONCLUSIVE), argv
        assert elapsed < 10.0, argv


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_shared_parser_leaks_no_state_between_commands(capsys):
    basis = str(FIXTURES / "quaternion_r8_basis.json")
    cli.build_parser.cache_clear()  # the next command builds the parser afresh
    _, first = _run(capsys, "rank", basis)
    assert cli.build_parser() is cli.build_parser()
    assert main(["rank"]) == EXIT_USAGE
    capsys.readouterr()
    code, tuned = _run(capsys, "rank", basis, "--generic", "--trials", "7", "--seed", "5")
    assert code == EXIT_POSITIVE and tuned["config"]["trials"] == 7
    _, again = _run(capsys, "rank", basis)
    assert _strip_time(again) == _strip_time(first)
    assert again["config"]["trials"] == 64 and again["config"]["generic"] is False


def test_warm_command_builds_no_argument_parser(capsys, monkeypatch):
    argv = ["rank", str(FIXTURES / "complex_r4_basis.json")]
    assert main(argv) == EXIT_POSITIVE
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == EXIT_POSITIVE
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize("flag, text", [
    ("--version", f"{cli.TOOL_NAME} {cli.__version__}"),
    ("--help", "usage: affinor-rank"),
])
def test_version_and_help_after_a_command(capsys, flag, text):
    assert main(["rank", str(FIXTURES / "complex_r4_basis.json")]) == EXIT_POSITIVE
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main([flag])
    assert exit_.value.code == 0
    assert text in capsys.readouterr().out
