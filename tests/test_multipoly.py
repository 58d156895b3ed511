"""Sparse polynomial arithmetic used by the symbolic proof paths."""

import random
from fractions import Fraction

from affinor_rank.multipoly import Poly, determinant, find_nonzero_point

from conftest import poly_eval, poly_variable


def _random_poly(rng, nvars, terms):
    p = Poly(nvars)
    for _ in range(terms):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        p = p + Poly(nvars, {mono: Fraction(rng.randint(-5, 5))})
    return p


def test_arithmetic_matches_evaluation():
    rng = random.Random(11)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars, 4)
        b = _random_poly(rng, nvars, 4)
        point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nvars))
        assert poly_eval(a + b, point) == poly_eval(a, point) + poly_eval(b, point)
        assert poly_eval(a * b, point) == poly_eval(a, point) * poly_eval(b, point)
        assert poly_eval(a + (-b), point) == poly_eval(a, point) - poly_eval(b, point)


def test_determinant_matches_numeric_evaluation():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        nvars = 2
        entries = [[_random_poly(rng, nvars, 2) for _ in range(n)] for _ in range(n)]
        d = determinant(entries)
        point = tuple(Fraction(rng.randint(-2, 2)) for _ in range(nvars))
        # numeric oracle: evaluate entries first, then expand the determinant
        values = [[poly_eval(entries[i][j], point) for j in range(n)] for i in range(n)]
        if n == 1:
            expected = values[0][0]
        elif n == 2:
            expected = values[0][0] * values[1][1] - values[0][1] * values[1][0]
        else:
            expected = (
                values[0][0] * (values[1][1] * values[2][2] - values[1][2] * values[2][1])
                - values[0][1] * (values[1][0] * values[2][2] - values[1][2] * values[2][0])
                + values[0][2] * (values[1][0] * values[2][1] - values[1][1] * values[2][0])
            )
        assert poly_eval(d, point) == expected


def test_find_nonzero_point():
    rng = random.Random(17)
    for _ in range(50):
        p = _random_poly(rng, rng.randint(1, 3), 3)
        point = find_nonzero_point(p)
        if p.is_zero:
            assert point is None
        else:
            assert poly_eval(p, point) != 0


def test_substitute_collapses_variable():
    x, y = poly_variable(2, 0), poly_variable(2, 1)
    p = x * x * y + Poly.constant(2, 3) * y
    q = p.substitute(0, 2)
    assert poly_eval(q, (Fraction(99), Fraction(1))) == 4 + 3
    assert q.max_degree_in(0) == 0
