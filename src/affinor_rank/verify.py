"""The independent recheck of rank certificates behind ``verify-report``.

Reports embed full witnesses and bases, so a certificate is audited with
no access to the original inputs, by a re-derivation that shares no code
with the search that produced it: this module imports only the standard
library, ``errors`` and ``wire``.  It reads scalars as integer (numerator,
denominator) pairs and matrices, dense or sparse, as sparse rows of integer
numerators over a common denominator, with the readers of the input
commands (``wire``); it multiplies sparse rows in plain Python ints, and
ranks by plain integer Gaussian elimination with gcd reduction, not the
producers' fraction-free (Bareiss) one.  A basis embedded as generators
and one word per element (``clifford --check-rank``) is never multiplied
out.  A certificate whose data does not parse is rejected, not an input
error.  ``bench/tracing.py`` wraps ``_fresh_rank``, ``_matmul``,
``_mats_from_basis_json`` and ``load_json`` wherever they are bound, so
they are called here by their global names.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional

from .errors import InputFormatError, MissingCertificate
from .wire import MAX_ENTRIES, exact_pair_from_json, load_json, matrix_content


def _fresh_rank(rows: list[list[int]]) -> int:
    """Rank of integer rows by plain Gaussian elimination, separate from the search path.

    Each elimination step cross-multiplies a row with the pivot row and
    divides the result by the gcd of its entries.  This is deliberately not
    the producers' fraction-free (Bareiss) kernel.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for i in range(rank + 1, nrows):
            f = rows[i][c]
            if f:
                row = [p * u - f * v for u, v in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [u // g for u in row] if g > 1 else row
        rank += 1
        if rank == nrows:
            break
    return rank


def _integer_rows(rows, where: str, field: str) -> tuple[list[list[int]], int]:
    """Lists of JSON scalars as integer numerators over the lcm of their denominators.

    Anything but a list is refused, and lists of JSON ints alone are taken
    as they are; otherwise every scalar is read as an integer pair by
    ``wire.exact_pair_from_json``, so a malformed scalar fails there.
    """
    if not all(isinstance(row, list) for row in rows):
        raise InputFormatError(where, field, "expected a list of scalars")
    if all(set(map(type, row)) <= {int} for row in rows):
        return rows, 1
    pairs = [[exact_pair_from_json(v, where, field) for v in row] for row in rows]
    den = lcm(*{d for row in pairs for _, d in row})
    return [[p * (den // d) for p, d in row] for row in pairs], den


def _mats_from_basis_json(basis_json: dict, where: str, m: int) -> list[tuple[list, int]]:
    """Each embedded m x m matrix, of ``"mats"`` or else of ``"generators"``,
    as (sparse integer rows of (column, numerator) pairs, lcm of its
    denominators), read by ``wire.matrix_content``, which raises
    ``InputFormatError`` on a malformed one."""
    out, key = [], "mats" if "mats" in basis_json else "generators"
    for k, mj in enumerate(basis_json[key]):
        content, den = matrix_content(mj, m, m, where, f"{key}[{k}].")
        rows: list[list] = [[] for _ in range(m)]
        for i, row in content:
            rows[i] = row
        out.append((rows, den))
    return out


def _apply(mat, vec: list[int]) -> list[int]:
    return [sum([v * vec[s] for s, v in row]) for row in mat]


def _word_rows(words: list, gens, witness: list[int]) -> tuple[Optional[list], str]:
    """The hull rows of a basis in generator form, up to positive scale:
    row(w) = G[w[0]] row(w[1:]) and row([]) = the witness, with G the
    generator numerators.  None and the reason when ``words[0]`` is not
    empty, a word is not a list of generator indices, repeats an earlier
    word, or has a tail that is not an earlier word."""
    if words[0] != []:
        return None, "first basis element is not the identity"
    rows: dict = {}
    for i, word in enumerate(words):
        if not _indices_below(word, len(gens)):
            return None, f"words[{i}] is not a list of generator indices"
        key = tuple(word)
        if key in rows:
            return None, f"words[{i}] repeats an earlier word"
        if key and key[1:] not in rows:
            return None, f"the tail of words[{i}] is not an earlier word"
        rows[key] = _apply(gens[key[0]], rows[key[1:]]) if key else witness
    return list(rows.values()), ""


def _matmul(a, b) -> list[list[int]]:
    """a @ b for m x m matrices given as sparse rows; dense integer rows out."""
    m = len(b)
    out = []
    for row in a:
        acc = [0] * m
        for t, u in row:
            for s, v in b[t]:
                acc[s] += u * v
        out.append(acc)
    return out


def _combine(coeffs: list[int], mats) -> list[list[int]]:
    """sum_k coeffs[k] * mats[k] for sparse-row m x m matrices, skipping zero coefficients."""
    m = len(mats[0])
    out = [[0] * m for _ in range(m)]
    for p, mat in zip(coeffs, mats):
        if p:
            for acc, row in zip(out, mat):
                for s, v in row:
                    acc[s] += p * v
    return out


def _indices_below(idx, size: int) -> bool:
    """Whether ``idx`` is a list of ints in ``0..size-1``."""
    return isinstance(idx, list) and all(type(i) is int and 0 <= i < size for i in idx)


def _is_cube(c, n: int) -> bool:
    """Whether ``c`` is an n x n x n nested list."""
    return isinstance(c, list) and len(c) == n and all(
        isinstance(plane, list) and len(plane) == n
        and all(isinstance(row, list) and len(row) == n for row in plane) for plane in c)


def _mistyped(fields: dict) -> Optional[str]:
    """Why the first of ``fields`` that is not an int (bools excluded) is rejected."""
    return next((f"{name} must be an integer, got {value!r}"
                 for name, value in fields.items() if type(value) is not int), None)


def _verify_certificate_dict(cert: dict, where: str = "<report>") -> tuple[bool, str]:
    """Audit one embedded certificate from scratch.

    Recomputes the hull of the stored witness with fresh matrix-vector
    loops and ranks its pivot minor by plain integer Gaussian elimination,
    which proves the hull rank; for generic certificates it also rechecks
    the closure equations, the dimension inequality and the pair witness;
    last, it checks that basis element 0 is the identity.  Everything runs
    on integer numerators: the basis over one common denominator D, and the
    witness and pair vectors scaled by their own, which changes no rank and
    no minor's singularity.  A weak certificate may embed its basis as
    generators and one word per element (``_word_rows``); its matrices are
    never built, and each hull row is one product with an earlier row.
    """
    try:
        kind = cert["kind"]
        claimed = cert["claimed_rank"]
        basis_json = cert["basis"]
        words = None if "mats" in basis_json else basis_json["words"]
        key = "mats" if words is None else "generators"
        mats_json = basis_json[key]
        [witness], _ = _integer_rows([cert["witness"]], where, "witness")
        m = basis_json["m"]
        n = basis_json["n"]
    except (KeyError, TypeError) as exc:
        return False, f"malformed certificate: {exc!r}"
    mistyped = _mistyped({"basis.m": m, "basis.n": n, "claimed_rank": claimed})
    if mistyped:
        return False, mistyped
    if n < 1:
        return False, f"affinor basis has n = {n}, expected at least 1"
    elements = mats_json if words is None else words
    if not isinstance(mats_json, list) or not isinstance(elements, list) or len(
            elements) != n or len(witness) != m:
        return False, "certificate dimensions are inconsistent"
    # the labels a reader of the basis checks must agree with the entries;
    # "mode" is optional, as on input
    if basis_json.get("mode", "exact") != "exact":
        return False, f"basis.mode is {basis_json['mode']!r}, expected 'exact'"
    for k, mj in enumerate(mats_json):
        if not isinstance(mj, dict):
            return False, f"{key}[{k}] is not a matrix object"
        if mj.get("mode", "exact") != "exact":
            return False, f"{key}[{k}].mode is {mj['mode']!r}, expected 'exact'"
        for field in ("rows", "cols"):
            if type(mj.get(field)) is not int or mj[field] != m:
                return False, f"{key}[{k}].{field} is {mj.get(field)!r}, expected {m}"
    if kind not in ("weak", "generic"):
        return False, f"unknown certificate kind {kind!r}"
    if claimed != n:
        return False, f"claimed rank {claimed} differs from span rank {n}"
    # the closure recheck multiplies basis matrices, which the generator form lists not
    if words is not None and kind == "generic":
        return False, "a generic certificate must list its basis matrices"
    # a sparse basis lists no zeros, so its text does not bound n * m * m
    count = max(n, len(mats_json))
    if count * m * m > MAX_ENTRIES:
        return False, f"{count} matrices of {m}x{m} exceed {MAX_ENTRIES} entries"
    mats = _mats_from_basis_json(basis_json, where, m)
    if words is not None:
        hull_rows, problem = _word_rows(words, [mat for mat, _ in mats], witness)
        if problem:
            return False, problem
    else:  # basis matrix k is mats[k] / den
        den = lcm(*(d for _, d in mats))
        mats = [mat if d == den else [[(s, v * (den // d)) for s, v in row] for row in mat]
                for mat, d in mats]
        hull_rows = [_apply(mat, witness) for mat in mats]
    pivot_rows = cert.get("pivot_rows", [])
    pivot_cols = cert.get("pivot_cols", [])
    problem = None
    if not _indices_below(pivot_rows, n) or not _indices_below(pivot_cols, m):
        problem = "pivot indices are not integers within the hull matrix"
    elif len(pivot_rows) != claimed or len(pivot_cols) != claimed:
        problem = "pivot sets do not match the claimed rank"
    elif _fresh_rank([[hull_rows[i][j] for j in pivot_cols] for i in pivot_rows]) < claimed:
        problem = "certified pivot minor is singular"
    # a nonsingular claimed x claimed minor of the n = claimed hull rows
    # proves the hull rank; the whole hull is ranked only to name the first
    # check that fails
    if problem:
        recomputed = _fresh_rank(hull_rows)
        if recomputed != claimed:
            return False, f"hull rank of the witness is {recomputed}, claim was {claimed}"
        return False, problem
    if kind == "generic":
        try:
            closure = cert["closure"]
            c = closure["C"]
            pair = cert["pair"]
            [x], _ = _integer_rows([pair["x"]], where, "pair.x")
            [y], _ = _integer_rows([pair["y"]], where, "pair.y")
            pair_dim = pair["dim"]
            two_ell, ineq_m = cert["inequality"]["two_ell"], cert["inequality"]["m"]
        except (KeyError, TypeError) as exc:
            return False, f"generic certificate lacks closure, pair or inequality: {exc!r}"
        mistyped = _mistyped(
            {"inequality.two_ell": two_ell, "inequality.m": ineq_m, "pair.dim": pair_dim})
        if mistyped:
            return False, mistyped
        if two_ell != 2 * n or two_ell > ineq_m:
            return False, "dimension inequality record is wrong"
        if ineq_m != m:
            return False, "dimension inequality module size is wrong"
        if type(closure.get("n")) is not int or closure["n"] != n:
            return False, f"closure.n is {closure.get('n')!r}, expected {n}"
        if closure.get("mode", "exact") != "exact":
            return False, f"closure.mode is {closure['mode']!r}, expected 'exact'"
        if not _is_cube(c, n):
            return False, f"closure.C is not {n} x {n} x {n}"
        # A_i A_j == sum_k c_ijk A_k with A_k = M_k / den and c_ij = p / q
        # reads q * (M_i M_j) == den * sum_k p_k M_k
        for i in range(n):
            for j in range(n):
                prod = _matmul(mats[i], mats[j])
                [p], q = _integer_rows([c[i][j]], where, "closure")
                if q != 1:
                    prod = [[q * v for v in row] for row in prod]
                if prod != _combine([den * pk for pk in p], mats):
                    return False, f"closure equation fails at pair ({i}, {j})"
        if len(x) != m or len(y) != m:
            return False, "pair vectors do not match the module dimension"
        stacked = [_apply(mat, x) for mat in mats] + [_apply(mat, y) for mat in mats]
        pair_rank = _fresh_rank(stacked)
        if pair_rank != 2 * n or pair_dim != 2 * n:
            return False, f"pair span rank is {pair_rank}, expected {2 * n}"
    # checked last, so every earlier message stands: an affinor basis starts with E
    if words is None and mats[0] != [[(i, den)] for i in range(m)]:
        return False, "first basis element is not the identity"
    return True, "ok"


def _collect_certificates(node) -> list[dict]:
    """Every object with a certificate's four fields, depth first; none inside one."""
    if isinstance(node, dict):
        if node.keys() >= {"kind", "claimed_rank", "witness", "basis"}:
            return [node]
        node = list(node.values())
    return [c for v in node for c in _collect_certificates(v)] if isinstance(node, list) else []


def verify_certificate_detailed(report_path) -> tuple[bool, list[dict]]:
    report = load_json(report_path)
    certs = _collect_certificates(report)
    if not certs:
        raise MissingCertificate(f"{report_path}: no rank certificate found in report")
    details = []
    for idx, cert in enumerate(certs):
        try:
            ok, message = _verify_certificate_dict(cert, str(report_path))
        except InputFormatError as exc:  # a vector or a matrix that does not parse
            ok, message = False, f"malformed certificate: {exc}"
        details.append({"index": idx, "kind": cert.get("kind"), "ok": ok, "message": message})
    return all(d["ok"] for d in details), details
