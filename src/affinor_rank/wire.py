"""Wire primitives of the JSON formats: a file, an exact scalar and a
matrix's content, read alike for the input commands (``jsonio``) and for
``verify-report`` (``verify``), with the same messages and field locators.
Stdlib only.

A scalar is a JSON int or a string that ``Fraction`` reads.  A matrix
object holds exactly one of ``"entries"``, rows of scalars, and
``"nonzeros"``, ``[i, j, value]`` triples whose indices are integers (not
booleans) within the shape, in strictly increasing row-major order (so
none repeats), with no value zero.  The caller checks the object's labels
and gives the shape.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import compress
from math import lcm

from .errors import InputFormatError

#: Most entries a matrix, or a basis in all, may hold: the size of the
#: largest stack the package builds, Cl(4,4)'s 256 blades of 256 x 256.  The
#: sparse form leaves its zeros out, so without a cap a few bytes of input
#: could ask for any amount of memory.
MAX_ENTRIES = 1 << 24

#: Most digits a scalar's numerator or denominator may have: Python's
#: default limit on writing an int as text, which a report would hit.
MAX_DIGITS = sys.int_info.default_max_str_digits
_TOO_LONG = 10 ** MAX_DIGITS


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputFormatError(path, "<file>", "file not found")
    except OSError as exc:  # a directory, or no permission to read
        raise InputFormatError(path, "<file>", f"cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputFormatError(path, "<root>", f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    except ValueError as exc:  # malformed, or an integer past MAX_DIGITS
        raise InputFormatError(path, "<root>", f"invalid JSON: {exc}")
    except RecursionError:
        raise InputFormatError(path, "<root>", "JSON nested too deeply")


def exact_pair_from_json(value, path, field) -> tuple[int, int]:
    """An exact scalar as (numerator, denominator), not reduced.

    A JSON int is taken over 1, and an ASCII ``-?digits/digits`` string of
    at most ``MAX_DIGITS`` characters with a nonzero denominator is split by
    ``int()``; any other value is read by ``Fraction``, whose rules (and the
    digit limit) decide what is accepted and with which message.
    """
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= MAX_DIGITS and value.isascii():
        num, slash, den = value.partition("/")
        if slash and den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
            try:  # int() refuses more digits than a lowered interpreter limit
                num, den = int(num), int(den)
            except ValueError:
                den = 0
            if den:
                return num, den
    if isinstance(value, bool):
        raise InputFormatError(path, field, "booleans are not scalars")
    if isinstance(value, str):
        # only an exponent or a string past MAX_DIGITS can pass the limit, and an
        # exponent past 2 * MAX_DIGITS does, refused before 10**exponent is built
        exponent = value.lower().partition("e")[2] if "e" in value or "E" in value else ""
        try:
            out = None if exponent and abs(int(exponent)) > 2 * MAX_DIGITS else Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(path, field, f"not a valid rational: {value!r}")
        if out is None or (exponent or len(value) > MAX_DIGITS) and max(
                abs(out.numerator), out.denominator) >= _TOO_LONG:
            raise InputFormatError(path, field, f"more than {MAX_DIGITS} digits")
        return out.numerator, out.denominator
    if isinstance(value, float):
        raise InputFormatError(
            path, field, "floats are not accepted as exact scalars; write p/q or an integer"
        )
    raise InputFormatError(path, field, f"not a scalar: {value!r}")


def matrix_content(obj: dict, rows: int, cols: int, path, where: str = "") -> tuple[list, int]:
    """(content, den): the entries of the rows x cols matrix object ``obj`` as
    integer numerators over ``den``, the lcm of their denominators.
    ``content`` lists (i, [(j, numerator), ..]) in increasing i and j, with
    zero entries left out.  ``where`` prefixes each field locator, which is
    formatted only for a value that fails."""
    if ("entries" in obj) == ("nonzeros" in obj):
        raise InputFormatError(
            path, f"{where}entries", 'expected exactly one of "entries" and "nonzeros"')
    content, dens = (_nonzeros(obj["nonzeros"], rows, cols, path, f"{where}nonzeros")
                     if "nonzeros" in obj else
                     _entries(obj["entries"], rows, cols, path, f"{where}entries"))
    if not dens:  # every entry is a JSON int
        return content, 1
    den = lcm(*dens)
    return [(i, [(j, v * den if type(v) is int else v[0] * (den // v[1])) for j, v in row])
            for i, row in content], den


def _entries(entries, rows: int, cols: int, path, field: str) -> tuple[list, set]:
    """Each row, of ints or else of integer pairs; and the pairs' denominators."""
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputFormatError(path, field, f"expected {rows} rows")
    content, dens = [], set()
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise InputFormatError(path, f"{field}[{i}]", f"expected {cols} entries")
        if set(map(type, row)) <= {int}:  # plain JSON ints, bools excluded
            content.append((i, list(compress(enumerate(row), row))))
            continue
        try:
            row = [exact_pair_from_json(v, path, field) for v in row]
        except InputFormatError:  # read again, to name the entry that fails
            for j, v in enumerate(row):
                exact_pair_from_json(v, path, f"{field}[{i}][{j}]")
            raise
        dens.update(d for _, d in row)
        content.append((i, [(j, p) for j, p in enumerate(row) if p[0]]))
    return content, dens


def _nonzeros(items, rows: int, cols: int, path, field: str) -> tuple[list, set]:
    """The rows holding an item, each value an int or an integer pair; and
    the pairs' denominators."""
    if not isinstance(items, list):
        raise InputFormatError(path, field, "expected a list of [i, j, value] triples")
    content, dens, last, row_i = [], set(), -1, -1
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            raise InputFormatError(path, f"{field}[{k}]", "expected [i, j, value]")
        i, j, v = item
        if type(i) is not int or type(j) is not int or not (0 <= i < rows and 0 <= j < cols):
            raise InputFormatError(path, f"{field}[{k}]", f"index ({i!r}, {j!r}) is not a pair "
                                   f"of integers within {rows}x{cols}")
        if i * cols + j <= last:
            raise InputFormatError(
                path, f"{field}[{k}]", "indices are not in increasing row-major order")
        last = i * cols + j
        if type(v) is not int:
            try:
                v = exact_pair_from_json(v, path, field)
            except InputFormatError:  # read again, to name the entry that fails
                exact_pair_from_json(v, path, f"{field}[{k}][2]")
                raise
            dens.add(v[1])
        if not (v if type(v) is int else v[0]):
            raise InputFormatError(path, f"{field}[{k}][2]", "a listed entry is zero")
        if i != row_i:
            row_i, row = i, []
            content.append((i, row))
        row.append((j, v))
    return content, dens
