"""Frobenius form detection and its equivalence with module rank.

A linear functional on an algebra is determined by its coefficient vector
lambda; it is a Frobenius form exactly when the induced bilinear form
``g_ij = sum_s c[i][j][s] * lambda_s`` is nondegenerate.

Stacking the images of lambda under the multiplication-operator matrices
``c_hat`` reproduces the bilinear form's transpose row for row, so "some
lambda is regular" and "some vector has a full-dimensional hull under the
operator span" are one condition on one linear pencil, and there is one
search: the module-rank witness search on ``c_hat``.  A hull witness is a
regular functional (exact arithmetic, no probabilistic caveat); an
identically vanishing symbolic hull minor is the zero determinant of the
pencil, a proof of nonexistence, which is only attempted up to the hull
search's symbolic size limit.  ``frobenius_iff_generic_rank`` reads both
verdicts off that one outcome and checks it against the structure
constants: the identification runs the search's hull product on the unit
vectors and compares it with the table exactly, and the witness's Gram
determinant is recomputed from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import ChatMatrices, StructureConstants, chat, verify_associativity, verify_unity
from .errors import DimensionMismatch, InvalidAlgebra
from .hullrank import (
    _SYMBOLIC_MAX_ROWS, AffinorBasis, DEFAULT_SEED, DEFAULT_TRIALS, NoWitnessFound,
    RankCertificate, _images, weak_rank_witness,
)
from .linalg import ExactVector, Matrix, _rows_equal, det, exact_vector, scalar_to_json


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
    large algebras.  ``search`` is the module-rank outcome the verdict was
    read from; it is not part of the JSON.
    """

    status: str  # "frobenius" | "not_frobenius" | "undetermined"
    witness: Optional[FrobeniusCandidate] = None
    form: Optional[str] = None
    proof: Optional[dict] = None
    trials: int = 0
    note: str = ""
    search: Union[RankCertificate, NoWitnessFound, None] = None

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
    """Bilinear form of the functional with coefficient vector ``lam``: the
    table, n**2 x n, times lambda is the form's rows laid end to end."""
    lam = exact_vector(lam)
    if len(lam) != sc.n:
        raise DimensionMismatch("functional length does not match algebra dimension")
    view = (sc.table @ Matrix(sc.n, 1, [[v] for v in lam]))._scaled
    g = Matrix.from_view(view._replace(nums=view.nums.reshape(sc.n, sc.n)))
    d = det(g)
    return FrobeniusCandidate(lam, g, d, d != 0)


def _require_valid(sc: StructureConstants):
    u = verify_unity(sc)
    if not u.ok:
        raise InvalidAlgebra("unity identities fail", u.violations)
    a = verify_associativity(sc)
    if not a.ok:
        raise InvalidAlgebra("associativity identities fail", a.violations)


def _form_string(lam: ExactVector) -> str:
    coeffs = ", ".join(str(v) for v in lam)
    return f"eps(sum a_i F_i) = sum a_i * lambda_i with lambda = ({coeffs})"


def find_frobenius_form(
    sc: StructureConstants,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> FrobeniusVerdict:
    """Search for a functional whose bilinear form is regular.

    This is the weak-rank witness search on the multiplication operators
    ``c_hat``, with its candidate order, bounds and symbolic size limit:
    a hull witness is a regular functional, and a definitive absence of
    witnesses means the determinant of the pencil is the zero polynomial.
    """
    _require_valid(sc)
    basis = AffinorBasis(chat(sc).c_hat, sc.n)
    outcome = weak_rank_witness(basis, trials=trials, seed=seed)
    if isinstance(outcome, RankCertificate):
        cand = gram(sc, outcome.witness)
        return FrobeniusVerdict(
            status="frobenius",
            witness=cand,
            form=_form_string(cand.lam),
            trials=outcome.trials,
            note="; ".join(outcome.notes),
            search=outcome,
        )
    if outcome.definitive:
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
            trials=outcome.trials,
            search=outcome,
        )
    return FrobeniusVerdict(
        status="undetermined",
        trials=outcome.trials,
        note=(
            f"no regular functional found in {outcome.trials} candidates and the "
            f"dimension {sc.n} exceeds the symbolic limit {_SYMBOLIC_MAX_ROWS}"
        ),
        search=outcome,
    )


# ---------------------------------------------------------------------------
# Equivalence with module rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement record between the Frobenius verdict and the module rank.

    Both verdicts are read off one hull search.  ``identification`` states,
    for each operator orientation, whether the stacked images of a
    functional reproduce its bilinear form (up to transpose); it is proved
    on the unit vectors, not assumed.  ``agree`` is false when the search
    outcome is not confirmed by the identification or by the witness's
    Gram determinant, which with exact arithmetic can only mean a bug, and
    callers treat it as a hard failure; it is None when the search is
    undetermined.
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


def _identification(sc: StructureConstants, mats: ChatMatrices) -> dict:
    """Check which operator orientation realizes the bilinear form.

    Both sides are linear in the functional, so agreement on the n unit
    vectors proves the identity for every functional.  For ``c_hat`` the
    hull rows come from the search's own kernel, ``_images`` of every unit
    functional e_k, whose row k * n + i has entry j = c[j][i][k], and are
    compared with the table's cube, axes in the order (2, 1, 0); so a fault
    in the hull product shows here.  ``c_hat_star`` is compared, operator
    by operator, with the cube as it is.
    """
    n, view = sc.n, sc.table._scaled
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    hull_rows = _images(mats.c_hat, n, units)._scaled
    plain = all(_rows_equal(hull_rows, view._replace(nums=sc.cube((2, 1, 0)).reshape(n * n, n))))
    star = all(_rows_equal(mats.c_hat_star, view._replace(nums=sc.cube().reshape(n, -1))))
    return {
        "multiplier_rows_match_gram_transpose": plain,
        "star_rows_match_gram": star,
    }


def frobenius_iff_generic_rank(
    sc: StructureConstants,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> EquivalenceReport:
    """Read the Frobenius verdict and the operator-module rank off one search.

    The operator module acts on a space of the algebra's own dimension, so
    its span rank equals the module dimension.  "Generic rank" for this module is
    read as witness existence: the doubled-dimension pair condition cannot
    even be posed when the span fills the matrix space's dimension.
    """
    verdict = find_frobenius_form(sc, trials, seed)
    identification = _identification(sc, chat(sc))
    positive = {"frobenius": True, "not_frobenius": False}.get(verdict.status)
    cross = None if verdict.witness is None else verdict.witness.regular
    notes = []
    if positive is None:
        agree = None
        notes.append("the search is undetermined; rerun with more trials")
    else:
        agree = identification["multiplier_rows_match_gram_transpose"] and cross is not False
        if not agree:
            notes.append(
                "the search verdict is not confirmed by the identification or "
                "the witness's Gram determinant; treat as an internal failure"
            )
    return EquivalenceReport(
        frobenius=verdict,
        module_rank=verdict.search,
        frobenius_positive=positive,
        rank_positive=positive,
        agree=agree,
        identification=identification,
        cross_check_witness_regular=cross,
        notes=tuple(notes),
    )
