"""Input format parsing and its error reporting."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from affinor_rank import ClosedFormCurve, Matrix, SampledCurve
from affinor_rank.errors import InputFormatError
from affinor_rank.jsonio import (
    basis_from_json,
    connection_from_json,
    constants_from_json,
    curve_from_json,
    exact_scalar_from_json,
    load_json,
    matrix_from_json,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_matrix_round_trip():
    m = Matrix.exact([["1/3", 2], [0, -5]])
    assert "mode" not in m.to_json()
    back = matrix_from_json(m.to_json(), "<mem>")
    assert back == m


def test_integer_rows_read_into_the_same_matrix():
    # plain JSON ints go straight into the integer view; the same values as
    # "p/q" strings are parsed scalar by scalar, and both end in one matrix
    for ints in ([[3, -2, 0], [0, 7, 1]], [[2**70, 0, -1], [5, 0, 2**62]]):
        via_ints = matrix_from_json(
            {"rows": 2, "cols": 3, "mode": "exact", "entries": ints}, "<mem>")
        via_strings = matrix_from_json(
            {"rows": 2, "cols": 3, "mode": "exact",
             "entries": [[f"{v}/1" for v in row] for row in ints]}, "<mem>")
        assert via_ints == via_strings
        assert via_ints._scaled.nums.dtype == via_strings._scaled.nums.dtype
        assert via_ints == via_strings


@pytest.mark.parametrize("rows, field", [
    ([[1, 2], [1, True]], "entries[1][1]"),
    ([[1, 2], [1, 0.5]], "entries[1][1]"),
    ([[1, 2], [1, "2/z"]], "entries[1][1]"),
    ([[1, 2], [1]], "entries[1]"),
    ([[1, False], [1]], "entries[0][1]"),
], ids=["bool", "float", "bad_string", "ragged", "bool_before_ragged"])
def test_integer_path_keeps_per_field_errors(rows, field):
    bad = {"rows": 2, "cols": 2, "mode": "exact", "entries": rows}
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "m.json")
    assert err.value.field == field


def test_sparse_form_reads_into_the_same_matrix():
    # the sparse reader fills the same lowest-terms view as the dense one
    dense = [[0, "2/6", 0], [0, 0, 0], [2**70, 0, "-1/3"]]
    sparse = [[0, 1, "1/3"], [2, 0, 2**70], [2, 2, "-3/9"]]
    shape = {"rows": 3, "cols": 3, "mode": "exact"}
    via_dense = matrix_from_json({**shape, "entries": dense}, "<m>")
    via_sparse = matrix_from_json({**shape, "nonzeros": sparse}, "<m>")
    assert via_sparse == via_dense
    assert via_sparse._scaled.nums.dtype == via_dense._scaled.nums.dtype
    assert matrix_from_json({"rows": 2, "cols": 4, "mode": "exact", "nonzeros": []},
                            "<m>") == Matrix.exact([[0] * 4] * 2)


@pytest.mark.parametrize("change, field", [
    ({"entries": [[1, 0], [0, 1]]}, "entries"),
    ({"nonzeros": None}, "entries"),
    ({"nonzeros": [[0, True, 1]]}, "nonzeros[0]"),
    ({"nonzeros": [[0, 1.0, 1]]}, "nonzeros[0]"),
    ({"nonzeros": [["0", 1, 1]]}, "nonzeros[0]"),
    ({"nonzeros": [[0, 2, 1]]}, "nonzeros[0]"),
    ({"nonzeros": [[-1, 0, 1]]}, "nonzeros[0]"),
    ({"nonzeros": [[1, 0, 1], [0, 1, 1]]}, "nonzeros[1]"),
    ({"nonzeros": [[0, 1, 1], [0, 1, 2]]}, "nonzeros[1]"),
    ({"nonzeros": [[0, 1, 0]]}, "nonzeros[0][2]"),
    ({"nonzeros": [[0, 1, "0/5"]]}, "nonzeros[0][2]"),
    ({"nonzeros": [[0, 1, "2/z"]]}, "nonzeros[0][2]"),
    ({"nonzeros": [[0, 1, 0.5]]}, "nonzeros[0][2]"),
    ({"nonzeros": [[0, 1]]}, "nonzeros[0]"),
    ({"nonzeros": {"0": 1}}, "nonzeros"),
], ids=["both", "neither", "bool_index", "float_index", "string_index", "col_out_of_range",
        "negative_row", "unsorted", "duplicate", "zero", "zero_string", "bad_value",
        "float_value", "pair", "not_a_list"])
def test_sparse_form_rejects_malformed_lists(change, field):
    bad = {"rows": 2, "cols": 2, "mode": "exact", "nonzeros": [[0, 0, 1]]}
    for key, value in change.items():  # None removes the key
        if value is None:
            del bad[key]
        else:
            bad[key] = value
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "m.json")
    assert err.value.field == field


@pytest.mark.parametrize("rows, cols", [(-1, 2), (2, -1), (1 << 12, (1 << 12) + 1)])
def test_matrix_shape_is_capped(rows, cols):
    # a sparse matrix leaves its zeros out, so its shape alone must be bounded
    bad = {"rows": rows, "cols": cols, "mode": "exact", "nonzeros": []}
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "m.json")
    assert err.value.field == "rows"


def test_basis_size_is_capped():
    # each matrix is within the cap, the two together are not
    empty = {"rows": 4096, "cols": 4096, "mode": "exact", "nonzeros": []}
    with pytest.raises(InputFormatError) as err:
        basis_from_json({"m": 4096, "n": 2, "mode": "exact", "mats": [empty, empty]}, "b.json")
    assert err.value.field == "mats"


def test_float_mode_matrix_is_rejected():
    bad = {"rows": 1, "cols": 2, "mode": "float", "entries": [[0.5, 1.25]]}
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "q.json")
    assert err.value.field == "mode"


def test_float_mode_basis_is_rejected(tmp_path):
    payload = {
        "m": 2, "n": 1, "mode": "float",
        "mats": [{"rows": 2, "cols": 2, "mode": "float", "entries": [[1.0, 0.0], [0.0, 1.0]]}],
    }
    path = _write(tmp_path, "basis.json", payload)
    with pytest.raises(InputFormatError) as err:
        basis_from_json(load_json(path), path)
    assert err.value.field == "mats[0].mode"


def test_exact_entries_reject_floats():
    bad = {"rows": 1, "cols": 1, "mode": "exact", "entries": [[0.5]]}
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "input.json")
    assert "entries[0][0]" in str(err.value)
    assert "input.json" in str(err.value)


def test_malformed_rational_is_located():
    bad = {"rows": 1, "cols": 2, "mode": "exact", "entries": [[1, "2/z"]]}
    with pytest.raises(InputFormatError) as err:
        matrix_from_json(bad, "m.json")
    assert "entries[0][1]" in str(err.value)


@pytest.mark.parametrize("scalar, value", [
    ("1e4299", 10**4299),  # 4300 digits, the most accepted
    ("1e-4299", Fraction(1, 10**4299)),
    ("2e-4300", Fraction(1, 5 * 10**4299)),  # 10**4300 / 2 has 4300 digits
    ("1" * 4300, int("1" * 4300)),
    ("1e4300", None),
    ("1e-4300", None),
    ("1e8601", None),  # refused before 10**8601 is built
    ("1e-8601", None),
    ("1/1e5000", None),
    ("1" * 4301, None),
])
def test_scalars_are_held_to_the_digit_limit(scalar, value):
    if value is not None:
        assert exact_scalar_from_json(scalar, "m.json", "x") == value
        return
    with pytest.raises(InputFormatError) as err:
        exact_scalar_from_json(scalar, "m.json", "x")
    assert "'x'" in str(err.value)


def test_missing_field_is_located(tmp_path):
    path = _write(tmp_path, "basis.json", {"m": 2, "mats": []})
    with pytest.raises(InputFormatError) as err:
        basis_from_json(load_json(path), path)
    assert "'n'" in str(err.value) or "n" in str(err.value)


def test_invalid_json_reports_root(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputFormatError) as err:
        load_json(path)
    assert "<root>" in str(err.value)


def test_basis_round_trip(complex_r4):
    back = basis_from_json(complex_r4.to_json(), "<mem>")
    assert back == complex_r4


def test_square_operator_basis_loads(quaternions_r4):
    # n == m is legitimate for operator spans and emitted representations
    back = basis_from_json(quaternions_r4.to_json(), "<mem>")
    assert back.n == back.m == 4


def test_constants_round_trip():
    from conftest import quaternion_constants

    sc = quaternion_constants()
    back = constants_from_json(sc.to_json(), "<mem>")
    assert back == sc


def test_constants_shape_errors():
    with pytest.raises(InputFormatError) as err:
        constants_from_json({"n": 2, "C": [[[1, 0], [0, 1]]]}, "c.json")
    assert "C" in str(err.value)


def test_connection_constant_and_poly():
    zero = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    conn = connection_from_json({"m": 2, "gamma": {"constant": zero}}, "<mem>")
    assert conn.constant_gamma is not None
    table = [[[[], []], [[], []]], [[[], []], [[], []]]]
    table[0][0][0] = [[1.5, [2, 0]]]
    poly = connection_from_json({"m": 2, "gamma": {"poly": table}}, "<mem>")
    assert poly.poly_gamma[0][0][0] == ((1.5, (2, 0)),)
    with pytest.raises(InputFormatError):
        connection_from_json({"m": 2, "gamma": {}}, "<mem>")


def test_curve_closed_form_parsing():
    obj = {
        "kind": "closed",
        "m": 2,
        "domain": [0.0, 1.0],
        "coords": [
            [{"type": "power", "coeff": 2.0, "exp": 3}],
            [{"type": "sin", "coeff": 1.0, "omega": 2.0}],
        ],
    }
    curve = curve_from_json(obj, "<mem>")
    assert isinstance(curve, ClosedFormCurve)
    assert curve.coords[0] == (("power", 2.0, 3.0),)
    bad = dict(obj)
    bad["coords"] = [[{"type": "exp", "coeff": 1.0}], []]
    with pytest.raises(InputFormatError) as err:
        curve_from_json(bad, "curve.json")
    assert "coords[0][0].type" in str(err.value)
    for end in (float("inf"), float("nan"), 10 ** 400, "1"):
        with pytest.raises(InputFormatError) as err:
            curve_from_json(dict(obj, domain=[0.0, end]), "curve.json")
        assert "domain[1]" in str(err.value)


def test_curve_sampled_parsing():
    ts = [0.0, 0.1, 0.2, 0.3, 0.4]
    obj = {
        "kind": "sampled",
        "m": 2,
        "t": ts,
        "values": [[t, 2 * t] for t in ts],
    }
    curve = curve_from_json(obj, "<mem>")
    assert isinstance(curve, SampledCurve)
    obj_bad = dict(obj)
    obj_bad["t"] = [0.0, 0.1, 0.15, 0.3, 0.4]
    with pytest.raises(InputFormatError):
        curve_from_json(obj_bad, "<mem>")


def test_unknown_curve_kind():
    with pytest.raises(InputFormatError) as err:
        curve_from_json({"kind": "spline", "m": 1}, "<mem>")
    assert "spline" in str(err.value)


def test_make_fixtures_reproduces_the_committed_fixtures(monkeypatch):
    # byte for byte, as ``dump`` writes them
    docs = Path(__file__).parent.parent / "docs"
    spec = importlib.util.spec_from_file_location("make_fixtures", docs / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    payloads = {}
    monkeypatch.setattr(make_fixtures, "dump", payloads.__setitem__)
    make_fixtures.main()
    committed = {p.name: p for p in (docs / "fixtures").glob("*.json")}
    assert payloads.keys() == committed.keys()
    for name, payload in payloads.items():
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text == committed[name].read_text(encoding="utf-8"), name
