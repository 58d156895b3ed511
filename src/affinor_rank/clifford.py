"""Real matrix representations of Clifford algebras and their rank claims.

A signature (s, t) fixes s generators squaring to +E and t squaring to -E,
pairwise anticommuting.  The representation used everywhere is the left
regular one: each of the 2^(s+t) basis blades acts on the algebra's own
coefficient space by multiplication.  Its matrices have entries in
{-1, 0, 1} with exactly one nonzero per column, which keeps all identity
checks exact and makes the unit coefficient vector a canonical full-rank
hull witness.

Basis order is graded: the unit first, then single generators, then higher
blades grade by grade in index-lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algebra import VerifyResult
from .errors import SignatureTooLarge
from .hullrank import (
    AffinorBasis,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    RankCertificate,
    weak_rank_witness,
)
from .linalg import _Scaled, _is_identity_times, _rows_equal, pairwise_products

# Cl(4,4), 8 generators, is the largest signature built: 256 blade matrices
# of 256 x 256, one 128 MiB int64 stack, about 180 MB peak with validation;
# one more generator multiplies the stack by 8.  ``CliffordSignature``
# refuses a larger signature before anything is allocated.
_MAX_BUILD = 8


@dataclass(frozen=True)
class CliffordSignature:
    """Counts of positive-square and negative-square generators."""

    s: int
    t: int

    def __post_init__(self):
        if self.s < 0 or self.t < 0:
            raise ValueError("generator counts must be nonnegative")
        if self.s + self.t < 1:
            raise ValueError("at least one generator is required")
        if self.s + self.t > _MAX_BUILD:
            raise SignatureTooLarge(
                f"signature ({self.s},{self.t}) exceeds the {_MAX_BUILD}-generator cap"
            )

    @property
    def generators(self) -> int:
        return self.s + self.t

    @property
    def dim(self) -> int:
        return 1 << self.generators


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _blade_indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in _bits(mask))


def _blade_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i}" for i in _blade_indices(mask))


@dataclass(frozen=True)
class CliffordBasis:
    """Left regular representation, blade order and labels."""

    signature: CliffordSignature
    basis: AffinorBasis
    blades: tuple[int, ...]
    labels: tuple[str, ...]
    # the relation check build_clifford ran; None for a basis assembled by hand
    relations: Optional[VerifyResult] = None

    def to_json(self) -> dict:
        out = self.basis.to_json()
        out["signature"] = {"s": self.signature.s, "t": self.signature.t}
        out["labels"] = list(self.labels)
        return out


def _blade_order(n_gen: int) -> tuple[int, ...]:
    masks = sorted(range(1 << n_gen), key=lambda b: (b.bit_count(), _blade_indices(b)))
    return tuple(masks)


def _blade_stack(sig: CliffordSignature, blades: tuple[int, ...]) -> np.ndarray:
    """Left regular representation of every blade, as one int64 array.

    Entry [i, r, j] is the coefficient of blade r in blade i times blade j:
    (-1)^(w + q) at row position(b_i XOR b_j), zero elsewhere, with w the
    transpositions that interleave the two generator words (each generator
    of b_j passes every generator of b_i above it) and q the
    negative-square generators the two blades share.  The sign parities
    are computed for all blade pairs at once, one generator at a time.
    """
    dim = sig.dim
    index = np.arange(dim)
    masks = np.array(blades, dtype=np.int64)
    position = np.empty(dim, dtype=np.int64)
    position[masks] = index
    parity = np.zeros(dim, dtype=np.int64)  # popcount mod 2 of every mask
    for g in range(sig.generators):
        parity ^= (index >> g) & 1
    a, b = masks[:, None], masks[None, :]
    negative = (dim - 1) & ~((1 << sig.s) - 1)  # the generators squaring to -E
    flips = parity[a & b & negative]
    for g in range(sig.generators):
        # generator g of b passes every generator of a above it
        flips ^= ((b >> g) & 1) & parity[a >> (g + 1)]
    out = np.zeros((dim, dim, dim), dtype=np.int64)
    out[index[:, None], position[a ^ b], index[None, :]] = 1 - 2 * flips
    return out


def build_clifford(sig: CliffordSignature) -> CliffordBasis:
    """Left regular representation matrices for every basis blade.

    The blade stack is the basis stack, and each matrix is a view of its
    row, with no Fraction and no copy on the way.  Generator relations are
    verified before the basis is returned, and the result is kept on it as
    ``relations``.
    """
    blades = _blade_order(sig.generators)
    dim = sig.dim
    nums = _blade_stack(sig, blades).reshape(dim, dim * dim)
    cb = CliffordBasis(
        signature=sig,
        basis=AffinorBasis(_Scaled(nums, 1, 1), dim, tuple(tuple(_bits(b)) for b in blades)),
        blades=blades,
        labels=tuple(_blade_label(b) for b in blades),
    )
    check = verify_clifford_relations(cb)
    if not check.ok:
        raise AssertionError(f"construction violates generator relations: {check.violations}")
    return replace(cb, relations=check)


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


def _signed_perm(flat: np.ndarray, m: int) -> Optional[list[int]]:
    """Per column, +-(row + 1) of its one nonzero entry when the m x m
    numerators ``flat``, row-major, are a signed permutation (entries +-1),
    else None."""
    nums = flat.reshape(m, m)
    nonzero = nums != 0
    if (nonzero.sum(axis=0) != 1).any() or (np.abs(nums) > 1).any():
        return None
    rows = np.argmax(nonzero, axis=0)
    if len(set(rows.tolist())) != m:
        return None
    return ((rows + 1) * nums[rows, np.arange(m)]).tolist()


def _compose(f: list[int], g: list[int]) -> list[int]:
    """f @ g for signed permutations in ``_signed_perm`` form."""
    return [f[v - 1] if v > 0 else -f[-v - 1] for v in g]


def verify_clifford_relations(cb: CliffordBasis) -> VerifyResult:
    """Exact check of generator squares and pairwise anticommutation.

    The generators are rows 1..k of the basis stack, k from the signature;
    each one the basis lacks is a violation ("missing", i), and the others
    are checked among themselves.  Generator matrices from the builder are
    signed permutations and are checked structurally in linear time;
    anything else (tampered inputs) falls back to one stacked integer
    product of all generator pairs.
    """
    sig, s, m = cb.signature, cb.basis.stacked, cb.basis.m
    k = min(sig.generators, cb.basis.n - 1)
    gens = s._replace(nums=s.nums[1:1 + k])
    wants = [1 if i < sig.s else -1 for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    # a signed permutation has integer entries, so a stack over den > 1 has none
    structural = [_signed_perm(g, m) for g in gens.nums] if s.den == 1 else [None]
    if None not in structural:
        squares = [
            _compose(sp, sp) == [w * (r + 1) for r in range(m)]
            for sp, w in zip(structural, wants)
        ]
        anticommute = [
            _compose(structural[i], structural[j])
            == [-v for v in _compose(structural[j], structural[i])]
            for i, j in pairs
        ]
    else:
        products = pairwise_products(gens, m)
        nums = products.nums
        squares = [_is_identity_times(nums[i * (k + 1)], w * products.den, m)
                   for i, w in enumerate(wants)]
        # row (i, j) against minus row (j, i)
        anticommute = _rows_equal(
            products._replace(nums=nums[[i * k + j for i, j in pairs]]),
            products._replace(nums=-nums[[j * k + i for i, j in pairs]]),
        )
    violations = [("missing", i + 1) for i in range(k, sig.generators)]
    violations += [("square", i + 1, w) for i, w in enumerate(wants) if not squares[i]]
    violations += [
        ("anticommute", i + 1, j + 1) for (i, j), ok in zip(pairs, anticommute) if not ok
    ]
    return VerifyResult(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Rank checks
# ---------------------------------------------------------------------------


def clifford_rank_theorem_check(
    cb: CliffordBasis,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> RankCertificate:
    """Witness that the blade images of one vector span the whole space.

    The search tries the unit coefficient vector e_0 first; the regular
    representation acts freely on it, so its hull is everything.
    """
    result = weak_rank_witness(cb.basis, trials, seed)
    if isinstance(result, RankCertificate):
        return result
    raise AssertionError("no witness found for a regular representation")
