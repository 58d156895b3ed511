"""Finite-dimensional algebras with unity given by structure constants.

Conventions, fixed once for the whole package:

* ``c[i][j][k]`` is the coefficient of the k-th basis element in the
  product of the i-th and j-th basis elements (in that order).
* The constants are one exact ``Matrix``, ``table``, n**2 x n, whose row
  ``i*n + j`` holds e_i e_j; every check reads its integer view, or the
  cube of its numerators, with the ``linalg`` kernels; there is no
  Fraction copy of them.
* Index 0 is the unity element; inputs whose first element fails the
  unity identities are reported, never silently permuted.
* ``chat(sc).c_hat`` is a stack: its row i, as an n x n matrix, has the
  left factor as its row index, entry ``[j][k] = c[j][i][k]``.  This is the
  orientation under which the multiplication-operator identity ``c_hat_j @
  c_hat_k == sum_s c[j][k][s] * c_hat_s`` holds for noncommutative
  algebras; the row-pinning unit test on the complex numbers documents it.
* Row i of ``chat(sc).c_hat_star`` has entry ``[j][k] = c[i][k][j]``; it is
  the familiar left-multiplication operator on coefficient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .errors import InvalidAlgebra, InvalidBasis, NotClosed, ShapeMismatch
from .linalg import (
    Matrix, SpanSolver, _Scaled, _int_product, _is_identity_times, _json_rows, _rows_equal,
    _view, pairwise_products, products_refused,
)

if TYPE_CHECKING:
    from .hullrank import AffinorBasis


@dataclass(frozen=True)
class StructureConstants:
    """Third-order coefficient array of an n-dimensional algebra with unity,
    n >= 1, as ``table``; constants are equal when their values are."""

    n: int
    table: Matrix

    def __post_init__(self):
        if self.n < 1 or (self.table.rows, self.table.cols) != (self.n * self.n, self.n):
            raise ShapeMismatch("structure constant array is not n x n x n with n >= 1")

    @staticmethod
    def exact(c: Sequence[Sequence[Sequence]]) -> "StructureConstants":
        n = len(c)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in c):
            raise ShapeMismatch("structure constant array is not n x n x n")
        return StructureConstants(n, Matrix.exact(row for plane in c for row in plane))

    def cube(self, axes: tuple[int, int, int] = (0, 1, 2)) -> np.ndarray:
        """The numerators of ``table``, as an n x n x n array, axes in that order."""
        return self.table._scaled.nums.reshape((self.n,) * 3).transpose(axes)

    def to_json(self) -> dict:
        rows, n = _json_rows(self.table._scaled.nums, self.table._scaled.den), self.n
        return {"n": n, "C": [rows[i * n:(i + 1) * n] for i in range(n)]}


@dataclass(frozen=True, eq=False)
class ChatMatrices:
    """Multiplication-operator matrices of structure constants, one stack per family."""

    c_hat: _Scaled
    c_hat_star: _Scaled


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of an identity check with the offending indices, if any."""

    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [list(v) for v in self.violations]}


@dataclass(frozen=True)
class AssociativityResult:
    """Associativity verdict via both operator-matrix identity families.

    ``families_agree`` is a self-check: the plain and starred identity
    families are equivalent characterizations, so a mismatch indicates an
    internal inconsistency, not a property of the input.
    """

    ok: bool
    violations: tuple = ()
    star_violations: tuple = ()
    families_agree: bool = True

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [list(v) for v in self.violations],
            "star_violations": [list(v) for v in self.star_violations],
            "families_agree": self.families_agree,
        }


def verify_unity(sc: StructureConstants) -> VerifyResult:
    """Check that index 0 multiplies as the unity element on both sides:
    the rows of e_0 e_i and of e_i e_0 in the table are den * I."""
    view, n = sc.table._scaled, sc.n
    unit = np.diag(np.array([view.den] * n, dtype=object))
    left, right = view.nums[:n] != unit, view.nums[::n] != unit
    right[0] = False  # (0, 0, k) is listed once
    bad = np.argwhere(np.stack([left, right], axis=-1)).tolist()
    return VerifyResult(not bad, tuple((i, 0, k) if side else (0, i, k) for i, k, side in bad))


def _chat_raw(sc: StructureConstants) -> ChatMatrices:
    view = sc.table._scaled  # the cube holds the table's values, so its den and bound
    return ChatMatrices(*(view._replace(nums=sc.cube(axes).reshape(sc.n, -1))
                          for axes in ((1, 0, 2), (0, 2, 1))))


def chat(sc: StructureConstants) -> ChatMatrices:
    """Operator matrices for every basis element.

    Raises InvalidAlgebra when the first operator matrix is not the
    identity, which is the matrix form of the unity identities.
    """
    mats = _chat_raw(sc)
    if not _is_identity_times(mats.c_hat.nums[0], mats.c_hat.den, sc.n):
        raise InvalidAlgebra("first operator matrix is not the identity; unity fails")
    return mats


def _violations(family: _Scaled, sc: StructureConstants) -> list[tuple[int, int]]:
    """The (j, k), row-major, with family[j] @ family[k] != sum_s c[j][k][s] family[s].

    Both sides are integer views: the n**2 products as one stacked product,
    and the structure-constant table, n**2 x n, times the same stack.
    """
    n, table = sc.n, sc.table._scaled
    combos = _view(_int_product(table, family, n), table.den * family.den)
    same = _rows_equal(pairwise_products(family, n), combos)
    return [divmod(t, n) for t, ok in enumerate(same) if not ok]


def verify_associativity(sc: StructureConstants) -> AssociativityResult:
    """Check the operator-matrix form of associativity for every index pair.

    Both the plain and starred identity families are evaluated, each as
    one comparison of integer views; they must produce the same verdict.
    """
    mats = _chat_raw(sc)
    plain, star = _violations(mats.c_hat, sc), _violations(mats.c_hat_star, sc)
    return AssociativityResult(
        not plain and not star, tuple(plain), tuple(star), families_agree=bool(plain) == bool(star)
    )


def from_affinors(basis: "AffinorBasis") -> StructureConstants:
    """Structure constants of a matrix span, when it is closed under products.

    All n**2 products come from one stacked integer product of the basis
    stack.  A span element is fixed by its values on the pivot columns of
    that stack, so ``SpanSolver`` solves every product at once against the
    inverse n x n pivot block and proves the result exactly, coordinates x
    stack == D x products over the integers; the proved coordinates, an
    integer view, are the table.  The first product, in row-major (i, j)
    order, that fails the proof raises NotClosed with that pair and its
    residual.  Closure failing is a meaningful result for callers that only
    need weak-rank arguments, so they catch NotClosed rather than treating
    it as a bug.  A basis whose products would pass
    ``MAX_PRODUCT_ENTRIES`` raises InvalidBasis first.
    """
    n = basis.n
    refused = products_refused(n, basis.m)
    if refused:
        raise InvalidBasis(refused)
    solver = SpanSolver(basis.stacked)
    products = pairwise_products(solver.generators, basis.m)
    table, proved = solver.coordinates(products)
    if not all(proved):
        t = proved.index(False)
        raise NotClosed(divmod(t, n), solver.residual_sq(products, t))
    return StructureConstants(n, Matrix.from_view(table))
