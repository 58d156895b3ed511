"""Projector systems from direct-sum splittings and their rank certificates.

A splitting of R^m into blocks of sizes r_1..r_n induces projectors
P_1..P_n (optionally conjugated by an exact change of basis Q) with the
complete-system identities: each is idempotent, distinct ones annihilate,
and they sum to the identity.  Validating Q inverts it, in the one
elimination of Q; P_i = Q D_i Q^-1, with D_i the 0/1 indicator of block i,
so all n numerator arrays are one integer product, Q's columns in block i
times Q^-1's rows, reduced to lowest terms as a whole and held as one
stack, a flattened matrix per row.  Without a frame they are the indicator
diagonals.

The projector span contains the identity only as the sum of its elements,
so for hull computations the stack is rewritten to {E, P_1, .., P_(n-1)},
which spans the same subspace; the rewrite is asserted by tests, not
assumed.  Any vector with a nonzero component in every block is a hull
witness, and such a vector is constructed outright rather than searched
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .algebra import VerifyResult
from .errors import DimensionMismatch, NotInvertible, SingularChangeOfBasis
from .hullrank import (
    AffinorBasis,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    Inapplicable,
    NoWitnessFound,
    RankCertificate,
    certificate_from_witness,
    certify_generic_rank,
    weak_rank_witness,
)
from .linalg import (_INT64_LIMIT, Matrix, _int_product, _is_identity_times, _lowest_terms,
                     _rows_equal, _Scaled, _view, combine, inverse, pairwise_products)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Splitting:
    """Block sizes summing to the ambient dimension, plus an optional frame."""

    m: int
    block_dims: tuple[int, ...]
    change_of_basis: Optional[Matrix] = None
    # the frame's inverse, computed once by the validation below
    change_of_basis_inverse: Optional[Matrix] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "block_dims", tuple(self.block_dims))
        if any(r < 1 for r in self.block_dims):
            raise DimensionMismatch("block dimensions must be positive")
        if sum(self.block_dims) != self.m:
            raise DimensionMismatch(
                f"block dimensions sum to {sum(self.block_dims)}, expected {self.m}"
            )
        q = self.change_of_basis
        if q is not None:
            if not q.is_square or q.rows != self.m:
                raise DimensionMismatch("change of basis must be m x m")
            try:
                object.__setattr__(self, "change_of_basis_inverse", inverse(q))
            except NotInvertible:
                raise SingularChangeOfBasis("change of basis is singular") from None

    @property
    def n(self) -> int:
        return len(self.block_dims)

    def block_starts(self) -> tuple[int, ...]:
        starts = []
        acc = 0
        for r in self.block_dims:
            starts.append(acc)
            acc += r
        return tuple(starts)


@dataclass(frozen=True, eq=False)
class ProjectorSystem:
    """The projector stack, an m x m matrix per row; identities are checked by the verifier op."""

    stacked: _Scaled
    m: int
    splitting: Optional[Splitting] = None
    # the identity check projectors_from_splitting ran; None otherwise
    verification: Optional[VerifyResult] = None

    def __post_init__(self):
        if not len(self.stacked.nums):
            raise DimensionMismatch("empty projector system")
        if self.stacked.nums.shape[1] != self.m * self.m:
            raise DimensionMismatch("projectors differ in shape")

    @property
    def n(self) -> int:
        return len(self.stacked.nums)

    def affinor_basis(self) -> AffinorBasis:
        """Hull basis {E, P_1, .., P_(n-1)} spanning the projector span."""
        s, m = self.stacked, self.m
        eye = np.eye(m, dtype=s.nums.dtype if s.den < _INT64_LIMIT else object) * s.den
        return AffinorBasis(_view(np.concatenate([eye.reshape(1, -1), s.nums[:-1]]), s.den), m)


def projectors_from_splitting(sp: Splitting) -> ProjectorSystem:
    """Conjugated block projectors, built as one batched product; the
    complete-system identities are verified exactly before the system is
    returned, and the result is kept on it as ``verification``."""
    ind = np.repeat(np.eye(sp.n, dtype=np.int64), sp.block_dims, axis=1)  # row i: block i
    q = sp.change_of_basis
    if q is None:  # no product: the projectors are the indicator diagonals
        diagonals = np.eye(sp.m, dtype=np.int64) * ind[:, None, :]
        projectors = _Scaled(diagonals.reshape(sp.n, -1), 1, 1)
    else:
        a, b = q._scaled, sp.change_of_basis_inverse._scaled
        nums = _int_product(a._replace(nums=a.nums * ind[:, None, :]), b, sp.m)
        projectors = _lowest_terms(nums.reshape(sp.n, sp.m * sp.m), a.den * b.den)
    system = ProjectorSystem(projectors, sp.m, sp)
    check = verify_complete_system(system)
    if not check.ok:  # pragma: no cover - construction guarantees the identities
        raise AssertionError(f"constructed projectors violate identities: {check.violations}")
    return replace(system, verification=check)


def verify_complete_system(ps: ProjectorSystem) -> VerifyResult:
    """Exact check of idempotence, mutual annihilation and sum-to-identity.

    One stacked integer product gives every P_i @ P_j: row (i, i) must
    equal P_i and every other row must vanish.  The column sum of the
    stack, one more integer product, must be den times the identity.
    """
    s, n, m = ps.stacked, ps.n, ps.m
    products = pairwise_products(s, m)
    idempotent = _rows_equal(products._replace(nums=products.nums[::n + 1]), s)
    nonzero = products.nums.any(axis=1).tolist()
    violations: list[tuple] = [("idempotent", i) for i in range(n) if not idempotent[i]]
    violations += [
        ("annihilate", i, j) for i in range(n) for j in range(n) if i != j and nonzero[i * n + j]
    ]
    if not _is_identity_times(combine([[1] * n], s).nums[0], s.den, m):
        violations.append(("sum_to_identity",))
    return VerifyResult(not violations, tuple(violations))


@dataclass(frozen=True)
class DistributionRankReport:
    """Weak certificate always; generic certificate when the inequality allows."""

    weak: RankCertificate
    generic: Union[RankCertificate, Inapplicable, NoWitnessFound]
    witness_note: str

    def to_json(self) -> dict:
        return {
            "weak": self.weak.to_json(),
            "generic": self.generic.to_json(),
            "witness_note": self.witness_note,
        }


def _block_indicator(sp: Splitting, offset: int) -> Optional[tuple[Fraction, ...]]:
    """Vector with a one at coordinate ``start + offset`` of every block."""
    vec = [_ZERO] * sp.m
    for start, size in zip(sp.block_starts(), sp.block_dims):
        if offset >= size:
            return None
        vec[start + offset] = _ONE
    return tuple(vec)


def distribution_rank_check(
    ps: ProjectorSystem,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> DistributionRankReport:
    """Certify the projector span's hull rank.

    When the system has a splitting, the weak witness is constructed, not
    searched: one nonzero coordinate per block (pushed through the change
    of basis when present) makes the hull matrix block-diagonal of full
    span rank.  A system without one is searched.  The generic pipeline
    runs on the same weak certificate, and is inapplicable when 2n > m; a
    second per-block indicator seeds its pair search when every block has
    one.
    """
    basis = ps.affinor_basis()
    sp = ps.splitting
    extra_pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...] = ()
    if sp is None:
        weak = weak_rank_witness(basis, trials, seed)
        if not isinstance(weak, RankCertificate):
            raise AssertionError("projector system lost its hull witness")
        note = "witness found by search"
    else:
        x0 = _block_indicator(sp, 0)
        y0 = _block_indicator(sp, 1)
        if sp.change_of_basis is not None:
            x0 = sp.change_of_basis.apply(x0)
            if y0 is not None:
                y0 = sp.change_of_basis.apply(y0)
        note = "witness constructed with one nonzero coordinate per block"
        weak = certificate_from_witness(basis, x0, notes=(note,))
        if y0 is not None:
            extra_pairs = ((x0, y0),)
    generic = certify_generic_rank(basis, trials=trials, seed=seed, extra_pairs=extra_pairs,
                                   weak=weak)
    return DistributionRankReport(weak=weak, generic=generic, witness_note=note)
