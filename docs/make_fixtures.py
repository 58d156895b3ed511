#!/usr/bin/env python3
"""Regenerate the example input files under docs/fixtures/."""

import json
import math
from pathlib import Path

from affinor_rank import Matrix, AffinorBasis

FIXTURES = Path(__file__).parent / "fixtures"


def rotation_block(m):
    entries = [[0] * m for _ in range(m)]
    for b in range(m // 2):
        entries[2 * b][2 * b + 1] = -1
        entries[2 * b + 1][2 * b] = 1
    return Matrix.exact(entries)


# left multiplication by 1, i, j, k on the coefficients of (1, i, j, k)
QUATERNIONS = (
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
)


def double(rows):
    """diag(rows, rows) on the doubled space."""
    m = len(rows)
    return [row + [0] * m for row in rows] + [[0] * m + row for row in rows]


def dump(name, payload):
    path = FIXTURES / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def labelled(obj):
    """``obj`` with ``"mode": "exact"`` on it and on each matrix it lists.
    Writers no longer emit the label; the fixtures keep the form older
    versions wrote, so running them shows that readers still take it."""
    out = dict(obj, mode="exact")
    if "mats" in obj:
        out["mats"] = [dict(mj, mode="exact") for mj in obj["mats"]]
    return out


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)

    e4 = Matrix.identity(4)
    dump("complex_r4_basis.json", labelled(AffinorBasis.of((e4, rotation_block(4))).to_json()))
    dump(
        "complex_r2_basis.json",
        labelled(AffinorBasis.of((Matrix.identity(2), rotation_block(2))).to_json()),
    )
    dump(
        "quaternion_r8_basis.json",
        labelled(AffinorBasis.of(tuple(Matrix.exact(double(q)) for q in QUATERNIONS)).to_json()),
    )
    dump(
        "quaternion_r4_basis.json",
        labelled(AffinorBasis.of(tuple(map(Matrix.exact, QUATERNIONS))).to_json()),
    )

    dual = {"n": 2, "C": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    dump("dual_numbers_constants.json", dual)
    n = 3
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = 1
        c[i][0][i] = 1
    dump("local3_constants.json", {"n": 3, "C": c})

    zero4 = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]
    dump("flat4_connection.json", {"m": 4, "gamma": {"constant": zero4}})
    zero2 = [[[0.0] * 2 for _ in range(2)] for _ in range(2)]
    dump("flat2_connection.json", {"m": 2, "gamma": {"constant": zero2}})

    dump(
        "helix_curve.json",
        {
            "kind": "closed",
            "m": 4,
            "domain": [0.0, 2 * math.pi],
            "coords": [
                [{"type": "cos", "coeff": 1.0, "omega": 1.0}],
                [{"type": "sin", "coeff": 1.0, "omega": 1.0}],
                [{"type": "power", "coeff": 1.0, "exp": 1}],
                [],
            ],
        },
    )
    dump(
        "circle2_curve.json",
        {
            "kind": "closed",
            "m": 2,
            "domain": [0.0, 2 * math.pi],
            "coords": [
                [{"type": "cos", "coeff": 1.0, "omega": 1.0}],
                [{"type": "sin", "coeff": 1.0, "omega": 1.0}],
            ],
        },
    )

    dump(
        "conjugation_q4.json",
        labelled(Matrix.exact([[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]]).to_json()),
    )


if __name__ == "__main__":
    main()
