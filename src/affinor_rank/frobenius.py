"""Frobenius form detection and its equivalence with module rank.

A linear functional on an algebra is determined by its coefficient vector
lambda; it is a Frobenius form exactly when the induced bilinear form
``g_ij = sum_s c[i][j][s] * lambda_s`` is nondegenerate.  One regular
evaluation certifies existence (exact arithmetic, no probabilistic
caveat); nonexistence requires the symbolic determinant of the pencil to
vanish identically, which is only attempted below a size threshold.

The same pencil drives the module-rank side: stacking the images of
lambda under the multiplication-operator matrices reproduces the bilinear
form's transpose, so "some lambda is regular" and "some vector has a
full-dimensional hull under the operator span" are the same condition.
``frobenius_iff_generic_rank`` runs both sides independently and reports
whether they agree, along with which operator orientation realizes the
identification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import (
    ChatMatrices,
    StructureConstants,
    chat,
    verify_associativity,
    verify_unity,
)
from .errors import DimensionMismatch, InvalidAlgebra
from .hullrank import (
    AffinorBasis,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    NoWitnessFound,
    RankCertificate,
    weak_rank_witness,
)
from .linalg import ExactVector, Matrix, det, exact_vector, scalar_to_json
from .multipoly import Poly, determinant, find_nonzero_point

DEFAULT_SYMBOLIC_THRESHOLD = 6

_RANDOM_ROUND = 8


@dataclass(frozen=True)
class FrobeniusCandidate:
    """One functional's bilinear form, its determinant and regularity."""

    lam: ExactVector
    gram: Matrix
    det: Fraction
    regular: bool

    def to_json(self) -> dict:
        return {
            "lambda": [scalar_to_json(v) for v in self.lam],
            "gram": self.gram.to_json(),
            "det": scalar_to_json(self.det),
            "regular": self.regular,
        }


@dataclass(frozen=True)
class FrobeniusVerdict:
    """Outcome of the Frobenius-form search.

    ``not_frobenius`` always carries the symbolic identically-zero proof;
    ``undetermined`` exists because the symbolic expansion is skipped for
    large algebras.
    """

    status: str  # "frobenius" | "not_frobenius" | "undetermined"
    witness: Optional[FrobeniusCandidate] = None
    form: Optional[str] = None
    proof: Optional[dict] = None
    trials: int = 0
    note: str = ""

    def to_json(self) -> dict:
        out = {"status": self.status, "trials": self.trials, "note": self.note}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.form is not None:
            out["form"] = self.form
        if self.proof is not None:
            out["proof"] = self.proof
        return out


def gram(sc: StructureConstants, lam) -> FrobeniusCandidate:
    """Bilinear form of the functional with coefficient vector ``lam``."""
    lam = exact_vector(lam)
    if len(lam) != sc.n:
        raise DimensionMismatch("functional length does not match algebra dimension")
    rows = []
    for i in range(sc.n):
        row = []
        for j in range(sc.n):
            row.append(sum(sc.c[i][j][s] * lam[s] for s in range(sc.n)))
        rows.append(row)
    g = Matrix.exact(rows)
    d = det(g)
    return FrobeniusCandidate(lam, g, d, d != 0)


def _require_valid(sc: StructureConstants):
    u = verify_unity(sc)
    if not u.ok:
        raise InvalidAlgebra("unity identities fail", u.violations)
    a = verify_associativity(sc)
    if not a.ok:
        raise InvalidAlgebra("associativity identities fail", a.violations)


def _lambda_candidates(n: int, rng: random.Random, trials: int):
    for i in range(n):
        yield tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
    yield tuple(Fraction(1) for _ in range(n))
    bound = 10 * n * n
    for k in range(trials):
        if k and k % _RANDOM_ROUND == 0:
            bound *= 2
        while True:
            vec = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            if any(v != 0 for v in vec):
                break
        yield vec


def _symbolic_gram_det(sc: StructureConstants) -> Poly:
    n = sc.n
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for s in range(n):
                v = sc.c[i][j][s]
                if v != 0:
                    mono = tuple(1 if t == s else 0 for t in range(n))
                    terms[mono] = Fraction(v)
            row.append(Poly(n, terms))
        entries.append(row)
    return determinant(entries)


def _form_string(lam: ExactVector) -> str:
    coeffs = ", ".join(str(v) for v in lam)
    return f"eps(sum a_i F_i) = sum a_i * lambda_i with lambda = ({coeffs})"


def find_frobenius_form(
    sc: StructureConstants,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    symbolic_threshold: int = DEFAULT_SYMBOLIC_THRESHOLD,
) -> FrobeniusVerdict:
    """Search for a functional whose bilinear form is regular.

    Unit vectors and the all-ones vector are tried first, then seeded
    random integer vectors with a doubling bound.  On exhaustion, small
    algebras get the symbolic treatment: the determinant of the pencil is
    expanded as a polynomial, an identically zero result is a proof of
    nonexistence, and a nonzero one yields a constructive witness.
    """
    _require_valid(sc)
    rng = random.Random(seed)
    tried = 0
    for lam in _lambda_candidates(sc.n, rng, trials):
        tried += 1
        cand = gram(sc, lam)
        if cand.regular:
            return FrobeniusVerdict(
                status="frobenius",
                witness=cand,
                form=_form_string(cand.lam),
                trials=tried,
            )
    if sc.n <= symbolic_threshold:
        poly = _symbolic_gram_det(sc)
        if poly.is_zero:
            return FrobeniusVerdict(
                status="not_frobenius",
                proof={
                    "kind": "symbolic_zero_determinant",
                    "nvars": sc.n,
                    "statement": (
                        "the determinant of the bilinear-form pencil is the "
                        "zero polynomial, so no functional is regular"
                    ),
                },
                trials=tried,
            )
        point = find_nonzero_point(poly)
        cand = gram(sc, point)
        return FrobeniusVerdict(
            status="frobenius",
            witness=cand,
            form=_form_string(cand.lam),
            trials=tried,
            note="witness extracted from the symbolic determinant expansion",
        )
    return FrobeniusVerdict(
        status="undetermined",
        trials=tried,
        note=(
            f"no regular functional found in {tried} candidates and the "
            f"dimension {sc.n} exceeds the symbolic threshold {symbolic_threshold}"
        ),
    )


# ---------------------------------------------------------------------------
# Equivalence with module rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement record between the Frobenius search and the module rank.

    ``identification`` states, for each operator orientation, whether the
    stacked images of a functional literally reproduce its bilinear form
    (up to transpose); this is checked on random exact vectors, not
    assumed.  Disagreement between the two verdicts is a hard failure for
    callers: with exact arithmetic it can only mean a bug or an unlucky
    undetermined search, and the report distinguishes the two.
    """

    frobenius: FrobeniusVerdict
    module_rank: Union[RankCertificate, NoWitnessFound]
    frobenius_positive: Optional[bool]
    rank_positive: Optional[bool]
    agree: Optional[bool]
    identification: dict
    cross_check_witness_regular: Optional[bool]
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "frobenius": self.frobenius.to_json(),
            "module_rank": self.module_rank.to_json(),
            "frobenius_positive": self.frobenius_positive,
            "rank_positive": self.rank_positive,
            "agree": self.agree,
            "identification": dict(self.identification),
            "cross_check_witness_regular": self.cross_check_witness_regular,
            "notes": list(self.notes),
        }


def _identification(sc: StructureConstants, mats: ChatMatrices, seed: int) -> dict:
    """Check which operator orientation realizes the bilinear form."""
    rng = random.Random(seed)
    plain, star = True, True
    for _ in range(3):
        lam = tuple(Fraction(rng.randint(-9, 9)) for _ in range(sc.n))
        g = gram(sc, lam).gram
        if tuple(m.apply(lam) for m in mats.c_hat) != g.transpose().entries:
            plain = False
        if tuple(m.apply(lam) for m in mats.c_hat_star) != g.entries:
            star = False
    return {
        "multiplier_rows_match_gram_transpose": plain,
        "star_rows_match_gram": star,
    }


def frobenius_iff_generic_rank(
    sc: StructureConstants,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    symbolic_threshold: int = DEFAULT_SYMBOLIC_THRESHOLD,
) -> EquivalenceReport:
    """Run the Frobenius search and the operator-module rank side by side.

    The operator module acts on a space of the algebra's own dimension,
    which is the one place the "span rank below module dimension"
    restriction is deliberately lifted.  "Generic rank" for this module is
    read as witness existence: the doubled-dimension pair condition cannot
    even be posed when the span fills the matrix space's dimension.
    """
    _require_valid(sc)
    mats = chat(sc)
    basis = AffinorBasis(mats.c_hat, allow_equal_dim=True)
    module_rank = weak_rank_witness(basis, trials=trials, seed=seed)
    verdict = find_frobenius_form(sc, trials, seed, symbolic_threshold)

    if verdict.status == "frobenius":
        frob_pos: Optional[bool] = True
    elif verdict.status == "not_frobenius":
        frob_pos = False
    else:
        frob_pos = None

    cross = None
    if isinstance(module_rank, RankCertificate):
        rank_pos: Optional[bool] = True
        cross = gram(sc, module_rank.witness).regular
    elif module_rank.definitive:
        rank_pos = False
    else:
        rank_pos = None

    agree = None if frob_pos is None or rank_pos is None else frob_pos == rank_pos
    notes = []
    if agree is None:
        notes.append("one side is undetermined; rerun with more trials")
    elif not agree:
        notes.append(
            "verdicts disagree: exact/symbolic paths cannot both be right, "
            "treat as an internal failure"
        )
    return EquivalenceReport(
        frobenius=verdict,
        module_rank=module_rank,
        frobenius_positive=frob_pos,
        rank_positive=rank_pos,
        agree=agree,
        identification=_identification(sc, mats, seed),
        cross_check_witness_regular=cross,
        notes=tuple(notes),
    )
