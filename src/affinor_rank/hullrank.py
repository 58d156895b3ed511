"""Hulls of vectors under an affinor span, and rank certification.

An affinor basis is one stack of square matrices, a flattened matrix per
row, whose first element is the identity.  The hull of a vector X is the
subspace swept out by applying every element of the span to X; its
dimension is the rank of the matrix whose rows are the basis images of X.

Two levels of claim are certified:

* weak generic rank n: some vector's hull has dimension n.  One exact
  witness settles this, because the witness set is the complement of a
  proper algebraic subset.
* generic rank n: hull pairs generically span dimension 2n.  This is
  certified through the closure-of-products pipeline (span is an algebra,
  weak witness exists, 2n <= m) and corroborated by an explicit pair
  witness, which is mandatory: there are spans satisfying the first three
  conditions whose pair spans never reach 2n (for example two mutually
  annihilating projectors, one of rank 1, on R^4), so a certificate is
  only emitted once a concrete pair achieves the claimed dimension.

Witness searches are deterministic first (standard basis vectors, then the
all-ones vector), then draw seeded random integer vectors with a doubling
coefficient bound, so identical seeds reproduce identical certificates.
The hull, pair and inversion searches walk that order in batches doubling
from 1, each one integer product with the basis; every candidate is then
decided in order by exact Bareiss elimination of its own rows, so the hit,
its pivots and the count tried are those of a one-at-a-time search.
Failure to find a witness is reported as evidence, never as a proof of
absence; a definitive negative is only emitted when every maximal minor of
the symbolic hull matrix vanishes identically (expanded for small sizes).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from . import algebra as _algebra
from .errors import DimensionMismatch, InvalidBasis, NotClosed
from .linalg import (
    ExactVector,
    Matrix,
    RankResult,
    _Scaled,
    _bareiss_rank,
    _int_product,
    _is_identity_times,
    _lowest_terms,
    _scale,
    combine,
    exact_vector,
    has_full_row_rank,
    matrices_json,
    rank,
    scalar_to_json,
    stack,
    unstack,
)
from .multipoly import Poly, determinant, find_nonzero_point

DEFAULT_TRIALS = 64
DEFAULT_SEED = 0

_RANDOM_ROUND = 8
_INITIAL_BOUND = 4

# A batch holds at most this many candidates and multiplications (candidates
# x basis entries): a basis past 2**18 entries goes one candidate at a time.
_BATCH_CANDIDATES = 64
_BATCH_PRODUCT = 1 << 18

# Symbolic minor expansion is attempted only below these sizes.
_SYMBOLIC_MAX_ROWS = 6
_SYMBOLIC_MAX_MINORS = 100


@dataclass(frozen=True, eq=False)
class AffinorBasis:
    """Validated ordered span of affinors with the identity first.

    ``stacked`` holds the m x m matrices flattened as its rows, and ``mats``
    are made from it on first read.  Validation happens once, here: the
    first row must be the identity exactly, the rows must be linearly
    independent, and the span rank n must be at most the module dimension
    m (n == m for multiplication-operator modules and full matrix-algebra
    representations, which act on a space of their own dimension).

    A basis built from generators (a Clifford one) knows its ``words``:
    element i is the ordered product of the generators ``words[i]`` names,
    and every generator g is the element of the word (g,).
    """

    stacked: _Scaled
    m: int
    words: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        s, m = self.stacked, self.m
        if not len(s.nums):
            raise InvalidBasis("empty affinor basis")
        if s.nums.shape[1] != m * m:
            raise InvalidBasis(f"stack rows are not {m}x{m} matrices")
        if not _is_identity_times(s.nums[0], s.den, m):
            raise InvalidBasis("first basis element must be the identity")
        if self.n > m:
            raise InvalidBasis(f"span rank {self.n} exceeds module dimension {m}")
        if not has_full_row_rank(s):
            raise InvalidBasis("basis elements are linearly dependent")

    @staticmethod
    def of(mats: Sequence[Matrix]) -> "AffinorBasis":
        """The basis of equally shaped square matrices, validated as any other."""
        if not mats:
            raise InvalidBasis("empty affinor basis")
        m = mats[0].rows
        if not mats[0].is_square:
            raise InvalidBasis("affinors must be square")
        if any((mat.rows, mat.cols) != (m, m) for mat in mats):
            raise InvalidBasis("affinors differ in shape")
        return AffinorBasis(stack(mats), m)

    @property
    def n(self) -> int:
        return len(self.stacked.nums)

    @cached_property
    def mats(self) -> tuple[Matrix, ...]:
        return unstack(self.stacked, self.m)

    def __eq__(self, other) -> bool:
        return isinstance(other, AffinorBasis) and self.mats == other.mats

    def __hash__(self) -> int:
        return hash(self.mats)

    def to_json(self, generators: bool = False) -> dict:
        """Every element matrix under ``"mats"``; with ``generators`` and
        known words, the generator matrices and the words instead (a weak
        certificate's form: the closure recheck needs every element)."""
        out = {"m": self.m, "n": self.n}
        if not generators or self.words is None:
            out["mats"] = matrices_json(self.stacked, self.m, self.m)
            return out
        letters = sum(len(w) == 1 for w in self.words)
        rows = [self.words.index((g,)) for g in range(letters)]
        out["generators"] = matrices_json(
            self.stacked._replace(nums=self.stacked.nums[rows]), self.m, self.m)
        out["words"] = [list(w) for w in self.words]
        return out


@dataclass(frozen=True)
class Hull:
    """Image of one vector under every basis affinor, with its dimension."""

    base_vector: ExactVector
    matrix: Matrix
    rank_result: RankResult

    @property
    def dim(self) -> int:
        return self.rank_result.rank


def _images(s: _Scaled, m: int, vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Row k * n + i: matrix i of the stack ``s`` of m x m matrices applied
    to ``vectors[k]``.

    One integer product of the stack, reshaped to (n * m) x m, with the
    vectors as columns; the result is in lowest terms, the same view the
    rows would have if built one ``apply`` at a time.
    """
    n = s.nums.shape[0]
    if any(len(vec) != m for vec in vectors):
        raise DimensionMismatch(f"vectors must have the module dimension {m}")
    x = _scale([v for vec in vectors for v in vec], (len(vectors), m))
    prod = _int_product(_Scaled(s.nums.reshape(n * m, m), s.den, s.bound),
                        x._replace(nums=x.nums.T), m)
    rows = prod.reshape(n, m, len(vectors)).transpose(2, 0, 1).reshape(len(vectors) * n, m)
    return Matrix.from_view(_lowest_terms(rows, s.den * x.den))


def hull(basis: AffinorBasis, x: Sequence[Fraction]) -> Hull:
    """Hull of ``x``: rows are the basis images, in basis order."""
    x = tuple(x)
    mat = _images(basis.stacked, basis.m, [x])
    return Hull(x, mat, rank(mat))


# No command calls this; bench/tracing.py wraps it by name (ROADMAP item 4 frees it).
def pair_span_dim(basis: AffinorBasis, x: Sequence[Fraction], y: Sequence[Fraction]) -> int:
    """Dimension of the sum of the hulls of two vectors."""
    return rank(_images(basis.stacked, basis.m, [x, y])).rank


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankCertificate:
    """Self-contained, re-verifiable witness for a rank claim.

    The basis is embedded so the certificate can be audited without the
    original input: recompute the hull of the witness, recheck the pivot
    minor, and (for the generic kind) recheck the closure equations, the
    dimension inequality and the pair witness.
    """

    kind: str  # "weak" | "generic"
    claimed_rank: int
    witness: ExactVector
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]
    basis: AffinorBasis
    closure: Optional[_algebra.StructureConstants] = None
    pair: Optional[tuple[ExactVector, ExactVector, int]] = None
    inequality: Optional[tuple[int, int]] = None  # (2n, m)
    notes: tuple[str, ...] = ()
    # candidates weak_rank_witness tried (0 for certificates built any
    # other way); evidence, not part of the JSON
    trials: int = 0

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "claimed_rank": self.claimed_rank,
            "witness": [scalar_to_json(v) for v in self.witness],
            "pivot_rows": list(self.pivot_rows),
            "pivot_cols": list(self.pivot_cols),
            "basis": self.basis.to_json(generators=self.kind == "weak"),
        }
        if self.closure is not None:
            out["closure"] = self.closure.to_json()
        if self.pair is not None:
            x, y, d = self.pair
            out["pair"] = {
                "x": [scalar_to_json(v) for v in x],
                "y": [scalar_to_json(v) for v in y],
                "dim": d,
            }
        if self.inequality is not None:
            out["inequality"] = {"two_ell": self.inequality[0], "m": self.inequality[1]}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class NoWitnessFound:
    """Search exhausted without a witness.

    Inconclusive unless ``definitive`` is set, which only happens when the
    symbolic minor expansion proved that no witness exists anywhere.
    """

    target_rank: int
    stage: str  # "hull" | "pair"
    max_dim_seen: int
    trials: int
    definitive: bool = False
    note: str = ""

    def to_json(self) -> dict:
        return {
            "outcome": "no_witness_found",
            "target_rank": self.target_rank,
            "stage": self.stage,
            "max_dim_seen": self.max_dim_seen,
            "trials": self.trials,
            "definitive": self.definitive,
            "note": self.note,
        }


@dataclass(frozen=True)
class Inapplicable:
    """The generic-rank pipeline's hypotheses fail for this basis."""

    reason: str  # "DimensionTooSmall" | "NotAnAlgebra"
    detail: str = ""

    def to_json(self) -> dict:
        return {"outcome": "inapplicable", "reason": self.reason, "detail": self.detail}


@dataclass(frozen=True)
class AllSampledInvertible:
    """No candidate span element was singular; ``samples`` counts the n + 1
    fixed and ``trials`` random candidates this covers.  A closed division
    algebra holds no singular one, and its random ones are not drawn;
    otherwise each was decided by elimination: evidence, not proof."""

    samples: int
    implied_weak_rank: int
    note: str = (
        "sampling evidence only; if every nonzero element is invertible the "
        "span has weak generic rank equal to its dimension"
    )

    def to_json(self) -> dict:
        return {
            "outcome": "all_sampled_invertible",
            "samples": self.samples,
            "implied_weak_rank": self.implied_weak_rank,
            "note": self.note,
        }


@dataclass(frozen=True)
class CounterexampleFound:
    """A singular element of the span, refuting invertibility."""

    coeffs: ExactVector
    det: Fraction

    def to_json(self) -> dict:
        return {
            "outcome": "counterexample_found",
            "coeffs": [scalar_to_json(v) for v in self.coeffs],
            "det": scalar_to_json(self.det),
        }


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def _unit(m: int, i: int) -> tuple[int, ...]:
    return (0,) * i + (1,) + (0,) * (m - i - 1)


def _deterministic_candidates(m: int) -> Iterator[tuple[int, ...]]:
    """The unit vectors, then the all-ones vector, each made when reached."""
    for i in range(m):
        yield _unit(m, i)
    yield (1,) * m


def _random_candidates(rng: random.Random, m: int, trials: int):
    bound = _INITIAL_BOUND
    for k in range(trials):
        if k and k % _RANDOM_ROUND == 0:
            bound *= 2
        vec = (0,) * m
        while not any(vec):  # never the zero vector; randint(a, b) is randrange(a, b + 1)
            vec = tuple([rng.randrange(-bound, bound + 1) for _ in range(m)])
        yield vec


def _first_hit(candidates, evaluate, rows: int, cost: int, full: bool):
    """Decide ``candidates`` in order, a batch at a time: ``evaluate(batch)``
    is one integer product, ``rows`` integer rows per candidate in batch
    order, and ``cost`` the multiplications one candidate adds to it.  A
    candidate hits when the Bareiss rank of its rows equals ``rows``
    (``full``) or falls below it.  Returns the first hit and its
    RankResult, or None twice, then the number tried and the best rank
    before the hit.
    """
    candidates = iter(candidates)
    cap = max(1, min(_BATCH_CANDIDATES, _BATCH_PRODUCT // cost))
    size, tried, best = 1, 0, 0
    while batch := list(itertools.islice(candidates, size)):
        flat = evaluate(batch)
        for k, cand in enumerate(batch):
            rk, prows, pcols, _, _ = _bareiss_rank(flat[k * rows:(k + 1) * rows])
            tried += 1
            if (rk == rows) == full:
                return cand, RankResult(rk, tuple(prows), tuple(pcols)), tried, best
            best = max(best, rk)
        size = min(2 * size, cap)
    return None, None, tried, best


def _symbolic_hull_entries(basis: AffinorBasis) -> list[list[Poly]]:
    m, s = basis.m, basis.stacked
    units = [tuple(1 if t == k else 0 for t in range(m)) for k in range(m)]
    return [[Poly(m, {units[k]: Fraction(v, s.den) for k, v in enumerate(nums) if v != 0})
             for nums in mat.tolist()] for mat in s.nums.reshape(-1, m, m)]


def _symbolic_minor_scan(basis: AffinorBasis):
    """Expand all maximal minors of the symbolic hull matrix.

    Returns ("vanish", None) when every minor is the zero polynomial,
    ("witness", point) with an exact point where some minor is nonzero,
    or ("too_large", None) when the expansion is out of budget.
    """
    m, n = basis.m, basis.n
    if n > _SYMBOLIC_MAX_ROWS or math.comb(m, n) > _SYMBOLIC_MAX_MINORS:
        return "too_large", None
    entries = _symbolic_hull_entries(basis)
    for cols in itertools.combinations(range(m), n):
        sub = [[entries[i][j] for j in cols] for i in range(n)]
        d = determinant(sub)
        if not d.is_zero:
            return "witness", find_nonzero_point(d)
    return "vanish", None


def certificate_from_witness(
    basis: AffinorBasis, x: Sequence, notes: tuple[str, ...] = ()
) -> RankCertificate:
    """Build a weak-rank certificate from a known witness vector."""
    h = hull(basis, exact_vector(x))
    if h.dim != basis.n:
        raise ValueError(f"vector is not a witness: hull dimension {h.dim}, expected {basis.n}")
    return _weak_certificate(basis, h.base_vector, h.rank_result, notes=notes)


def _weak_certificate(basis: AffinorBasis, x: Sequence, pivots: RankResult,
                      **fields) -> RankCertificate:
    return RankCertificate(kind="weak", claimed_rank=basis.n, witness=exact_vector(x),
                           pivot_rows=pivots.pivot_rows, pivot_cols=pivots.pivot_cols,
                           basis=basis, **fields)


def weak_rank_witness(
    basis: AffinorBasis,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> Union[RankCertificate, NoWitnessFound]:
    """Search for a vector whose hull has full span dimension.

    The first witness in the fixed candidate order is returned, so results
    are reproducible for a given seed.  When the search fails and the
    symbolic expansion is affordable, the outcome is upgraded: either a
    definitive "no witness exists" or a witness extracted from a nonzero
    minor.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, m = basis.n, basis.m
    candidates = itertools.chain(
        _deterministic_candidates(m), _random_candidates(random.Random(seed), m, trials))
    x, pivots, tried, max_seen = _first_hit(
        candidates, lambda batch: _images(basis.stacked, m, batch)._scaled.nums.tolist(),
        n, n * m * m, True)
    if x is not None:
        return _weak_certificate(basis, x, pivots, trials=tried)
    outcome, point = _symbolic_minor_scan(basis)
    if outcome == "witness" and point is not None:
        cert = certificate_from_witness(
            basis, point, notes=("witness extracted from a nonzero symbolic minor",)
        )
        return replace(cert, trials=tried)
    vanish = outcome == "vanish"
    return NoWitnessFound(
        target_rank=n,
        stage="hull",
        max_dim_seen=max_seen,
        trials=tried,
        definitive=vanish,
        note="every maximal minor of the symbolic hull matrix vanishes identically" if vanish
        else "search exhausted; absence of a witness was not proved",
    )


def certify_generic_rank(
    basis: AffinorBasis,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    extra_pairs: Sequence[tuple[Sequence, Sequence]] = (),
    weak: Optional[RankCertificate] = None,
) -> Union[RankCertificate, Inapplicable, NoWitnessFound]:
    """Full generic-rank pipeline.

    Steps: dimension inequality 2n <= m, closure of the span under
    composition, weak witness search, then a pair witness reaching
    dimension 2n.  The pair witness is required; without it no generic
    certificate is produced.  A weak certificate of ``basis`` already in
    hand is passed as ``weak``, and the search is skipped.
    """
    n, m = basis.n, basis.m
    if 2 * n > m:
        return Inapplicable(
            "DimensionTooSmall", f"2*{n} = {2 * n} exceeds module dimension {m}"
        )
    try:
        closure = _algebra.from_affinors(basis)
    except NotClosed as exc:
        return Inapplicable("NotAnAlgebra", str(exc))
    if weak is None:
        weak = weak_rank_witness(basis, trials, seed)
        if isinstance(weak, NoWitnessFound):
            return weak

    # Both random streams draw from this one rng in turn (x_k, then y_k),
    # so the seed fixes every pair and the two bounds double in step.
    rng = random.Random(seed)
    pair_candidates = itertools.chain(
        ((exact_vector(a), exact_vector(b)) for a, b in extra_pairs),
        ((_unit(m, i), _unit(m, j)) for i in range(m) for j in range(i + 1, m)),
        ((weak.witness, _unit(m, i)) for i in range(m)),
        zip(_random_candidates(rng, m, trials), _random_candidates(rng, m, trials)),
    )
    pair, _, tried, best_dim = _first_hit(
        pair_candidates,
        lambda batch: _images(basis.stacked, m, [v for xy in batch for v in xy])._scaled.nums.tolist(),
        2 * n, 2 * n * m * m, True)
    if pair is not None:
        return RankCertificate(
            kind="generic",
            claimed_rank=n,
            witness=weak.witness,
            pivot_rows=weak.pivot_rows,
            pivot_cols=weak.pivot_cols,
            basis=basis,
            closure=closure,
            pair=(*map(exact_vector, pair), 2 * n),
            inequality=(2 * n, m),
        )
    return NoWitnessFound(
        target_rank=2 * n,
        stage="pair",
        max_dim_seen=best_dim,
        trials=tried,
        definitive=False,
        note=(
            "closure, dimension inequality and weak witness hold, but no pair "
            "reached the doubled dimension; no generic certificate emitted"
        ),
    )


# ---------------------------------------------------------------------------
# Side checks
# ---------------------------------------------------------------------------


def _is_division_algebra(basis: AffinorBasis) -> bool:
    """Whether the span is closed and every nonzero element of it invertible.

    A closed span is a real algebra acting on R^m, so by Frobenius's
    theorem (1878; Palais, Amer. Math. Monthly 75, 1968) that makes it R, C
    or H (n = 1, 2 or 4), and holds exactly when tr(a^2) < 0 for every
    nonzero a in it with tr a = 0.  With N_i the stack's numerators, those
    a are spanned by m N_i - tr(N_i) E for i >= 1, whose trace form is m
    times G_ij = m tr(N_i N_j) - tr N_i tr N_j: negative definite exactly
    when every leading principal minor of -G is positive (Sylvester).
    """
    n, m, s = basis.n, basis.m, basis.stacked
    if n not in (1, 2, 4):
        return False
    try:
        _algebra.from_affinors(basis)
    except (NotClosed, InvalidBasis):
        return False
    squares = s.nums.reshape(n, m, m)
    # row (a, b) holds entry [b][a] of each N_j, so the product's [i][j] is tr(N_i N_j)
    flipped = _Scaled(squares.transpose(2, 1, 0).reshape(m * m, n), s.den, s.bound)
    traces = _int_product(s, flipped, m * m).tolist()
    t = squares.trace(axis1=1, axis2=2).tolist()
    neg = [[t[i] * t[j] - m * traces[i][j] for j in range(1, n)] for i in range(1, n)]
    for k in range(1, n):
        rk, _, _, sign, last = _bareiss_rank([row[:k] for row in neg[:k]])
        if rk < k or sign * last < 0:
            return False
    return True


def inversion_probe(
    basis: AffinorBasis,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> Union[AllSampledInvertible, CounterexampleFound]:
    """Test span elements for invertibility.

    A singular candidate refutes "every nonzero element is invertible"
    definitively.  Basis elements themselves and the all-ones combination
    are tried first; past them, a closed division algebra
    (``_is_division_algebra``) draws no random candidate, as none can be
    singular, and for any other span an all-pass is probabilistic evidence
    only and says so.  A batch of candidates is one integer product of
    their coefficients with the stacked basis, and a candidate is singular
    exactly when fraction-free elimination of its numerators drops rank.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, m = basis.n, basis.m

    def candidates():
        yield from _deterministic_candidates(n)
        if not _is_division_algebra(basis):
            yield from _random_candidates(random.Random(seed), n, trials)

    coeffs, _, _, _ = _first_hit(
        candidates(), lambda batch: combine(batch, basis.stacked).nums.reshape(-1, m).tolist(),
        m, n * m * m, False)
    if coeffs is not None:
        return CounterexampleFound(coeffs=exact_vector(coeffs), det=Fraction(0))
    return AllSampledInvertible(samples=n + 1 + trials, implied_weak_rank=n)
