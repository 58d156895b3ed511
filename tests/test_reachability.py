"""``src/`` holds what a command runs.

Runs a fixed list of commands in-process under ``sys.setprofile`` and
fails when a function or method defined in the package (dunders aside) is
never called.  A name that no command reaches either leaves the package,
with the tests that need it keeping it in ``conftest.py``, or is listed in
``ALLOWED`` with the reason it stays.
"""

import inspect
import json
import sys
from pathlib import Path

import affinor_rank
from affinor_rank import cli

FIXTURES = Path(__file__).parent.parent / "docs" / "fixtures"
PACKAGE = Path(affinor_rank.__file__).parent

ALLOWED = {
    "hullrank.pair_span_dim": "bench/tracing.py wraps it by name (ROADMAP item 4 frees it)",
    "linalg.SpanSolver.coefficients": "bench/tracing.py wraps it by name (ROADMAP item 4)",
    "planarity.geodesic_integrate": "bench/families.py builds its geodesic with it (item 4)",
    "planarity._integrate_second_order": "geodesic_integrate's RK4 step, kept with it",
    "multipoly.find_nonzero_point": "symbolic-witness branch: no small input misses a witness",
    "multipoly.Poly.substitute": "symbolic-witness branch, through find_nonzero_point",
    "multipoly.Poly.max_degree_in": "symbolic-witness branch, through find_nonzero_point",
    "linalg.Matrix.identity": "public constructor of the README example and make_fixtures.py",
}


def _defined() -> dict:
    """(file, first line, name) of every named function in the package,
    from its compiled source, mapped to ``module.qualified_name``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)]
        while stack:
            code, qualname = stack.pop()
            # the module and class bodies run once, on import; comprehensions
            # and lambdas have no name to report
            function = bool(code.co_flags & inspect.CO_NEWLOCALS)
            prefix = f"{qualname}.<locals>." if function else f"{qualname}."
            stack += [(c, prefix + c.co_name) for c in code.co_consts if hasattr(c, "co_code")]
            name = code.co_name
            if function and not name.startswith("<") and not (
                    name.startswith("__") and name.endswith("__")):
                out[(code.co_filename, code.co_firstlineno, name)] = qualname
    return out


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _unit(m: int, i: int, j: int) -> list:
    return [[int((r, c) == (i, j)) for c in range(m)] for r in range(m)]


def _basis(mats: list) -> dict:
    m = len(mats[0])
    # written as writers write it, without "mode"; the fixtures still carry it
    return {"m": m, "n": len(mats), "mats": [{"rows": m, "cols": m, "entries": e} for e in mats]}


def _commands(tmp: Path) -> list:
    """Argument lists that together reach every path a small input reaches."""
    f = {name: str(FIXTURES / f"{name}.json") for name in (
        "quaternion_r8_basis", "quaternion_r4_basis", "complex_r4_basis", "complex_r2_basis",
        "local3_constants", "dual_numbers_constants", "conjugation_q4", "flat4_connection",
        "flat2_connection", "helix_curve", "circle2_curve")}
    eye6 = [[int(r == c) for c in range(6)] for r in range(6)]
    # {E, E_12, E_21} is not closed: E_12 E_21 = E_11 leaves the span
    open_span = _write(tmp / "open.json", _basis([eye6, _unit(6, 0, 1), _unit(6, 1, 0)]))
    singular = _write(tmp / "singular.json", _basis([[[1, 0], [0, 1]], _unit(2, 0, 0)]))
    # M2(R) as {E, 2X, Y, Z} on R^4 (doubled, as n <= m): its fixed candidates
    # are invertible, and the trace form shows it is no division algebra
    m2 = _write(tmp / "m2.json", _basis([
        [r + [0, 0] for r in a] + [[0, 0] + r for r in a]
        for a in ([[1, 0], [0, 1]], [[2, 0], [0, -2]], [[0, 1], [1, 0]], [[0, -1], [1, 0]])]))
    poly = [[[[] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    poly[0][1][1] = [[0.5, [1, 0]]]
    poly_conn = _write(tmp / "poly.json", {"m": 2, "gamma": {"poly": poly}})
    ts = [k / 20 for k in range(21)]
    sampled = _write(tmp / "sampled.json", {"kind": "sampled", "m": 2, "t": ts,
                                            "values": [[t, t * t] for t in ts]})
    # local3 in the basis (1, 1 + x, y): no regular functional, and the
    # symbolic minors have nonzero terms that cancel
    mixed = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [-1, 2, 0], [0, 0, 1]],
             [[0, 0, 1], [0, 0, 1], [0, 0, 0]]]
    local3_mixed = _write(tmp / "local3_mixed.json", {"n": 3, "C": mixed})
    report = str(tmp / "report.json")
    return [
        ["rank", f["quaternion_r8_basis"], "--generic", "--probe-inversion", "--out", report],
        ["verify-report", report],
        ["rank", f["quaternion_r4_basis"], "--generic", "--format", "text"],
        ["rank", open_span, "--generic"],
        ["rank", singular, "--probe-inversion"],
        ["rank", m2, "--probe-inversion"],
        ["algebra", "verify", f["local3_constants"]],
        ["frobenius", local3_mixed],
        ["frobenius", f["dual_numbers_constants"], "--format", "text"],
        ["clifford", "--s", "1", "--t", "1", "--check-rank", "--emit", str(tmp / "cl.json"),
         "--out", str(tmp / "cl_report.json")],
        ["rank", str(tmp / "cl.json")],
        ["verify-report", str(tmp / "cl_report.json")],  # a basis in generator form
        ["distributions", "--dims", "2,2", "--conjugate", f["conjugation_q4"],
         "--emit", str(tmp / "dist.json"), "--format", "text"],
        ["distributions", "--dims", "2,2", "--conjugate", f["conjugation_q4"],
         "--out", str(tmp / "dist_report.json")],
        # "p/q" entries and a closure table, read as integer pairs
        ["verify-report", str(tmp / "dist_report.json")],
        ["planar", "--basis", f["complex_r4_basis"], "--connection", f["flat4_connection"],
         "--curve", f["helix_curve"], "--format", "text"],
        ["planar", "--basis", f["complex_r2_basis"], "--connection", poly_conn,
         "--curve", f["circle2_curve"]],
        ["planar", "--basis", f["complex_r2_basis"], "--connection", f["flat2_connection"],
         "--curve", sampled],
        ["rank"],  # a usage error
    ]


def test_every_package_function_is_reached_by_a_command(tmp_path, capsys):
    commands = _commands(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    cli.build_parser.cache_clear()  # the parser is built once per process
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert cli.EXIT_INTERNAL not in codes, codes
    defined = _defined()
    missing = {name for key, name in defined.items() if key not in called}
    # a nested function goes with the entry that allows its parent
    unreached = sorted(name for name in missing
                       if name.split(".<locals>.")[0] not in ALLOWED)
    assert not unreached, f"no command reaches {unreached}; delete them or allow them with a reason"
    stale = sorted(set(ALLOWED) - set(defined.values()))
    assert not stale, f"allowed names that are gone: {stale}"
    needless = sorted(set(ALLOWED) & {defined[key] for key in called if key in defined})
    assert not needless, f"allowed names that a command reaches: {needless}"


#: Report and --emit fields that no valid input can change, which writers dropped.
PLACEHOLDERS = {"mode", "scalar_multiples_of_identity", "index_note"}


def _keys(obj) -> set:
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    if not isinstance(obj, dict):
        return set()
    return set(obj).union(*map(_keys, obj.values()))


def test_no_command_writes_a_placeholder_field(tmp_path, capsys):
    commands = _commands(tmp_path)
    inputs = set(tmp_path.iterdir())
    written = {}
    for argv in commands:
        cli.main(argv)
        out = capsys.readouterr().out
        if out.startswith("{"):
            written[" ".join(argv)] = json.loads(out)
    for path in sorted(set(tmp_path.iterdir()) - inputs):
        written[path.name] = json.loads(path.read_text())
    assert {"report.json", "cl.json", "cl_report.json", "dist.json"} <= written.keys()
    found = {name: sorted(_keys(obj) & PLACEHOLDERS) for name, obj in written.items()}
    assert not {name: keys for name, keys in found.items() if keys}

