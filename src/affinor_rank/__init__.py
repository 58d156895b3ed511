"""Certification toolkit for affinor spans: hull ranks, Frobenius forms,
Clifford representations, projector systems and curve planarity.

Exact rational arithmetic backs every certificate; floating point is used
only for curve numerics.  All public values are immutable and all
operations are pure functions, so the library is safe to drive from
multiple threads.
"""

__version__ = "0.1.0"

from .algebra import (
    AssociativityResult,
    ChatMatrices,
    StructureConstants,
    VerifyResult,
    chat,
    from_affinors,
    verify_associativity,
    verify_unity,
)
from .clifford import (
    CliffordBasis,
    CliffordSignature,
    build_clifford,
    clifford_rank_theorem_check,
    verify_clifford_relations,
)
from .distributions import (
    DistributionRankReport,
    ProjectorSystem,
    Splitting,
    distribution_rank_check,
    projectors_from_splitting,
    verify_complete_system,
)
from .errors import (
    AffinorRankError,
    DimensionMismatch,
    InputFormatError,
    InsufficientSamples,
    InvalidAlgebra,
    InvalidBasis,
    MissingCertificate,
    NonFiniteState,
    NotClosed,
    NotInvertible,
    NotSquare,
    OutOfDomain,
    ShapeMismatch,
    SignatureTooLarge,
    SingularChangeOfBasis,
)
from .frobenius import (
    EquivalenceReport,
    FrobeniusCandidate,
    FrobeniusVerdict,
    find_frobenius_form,
    frobenius_iff_generic_rank,
    gram,
)
from .hullrank import (
    AffinorBasis,
    AllSampledInvertible,
    CounterexampleFound,
    Hull,
    Inapplicable,
    NoWitnessFound,
    RankCertificate,
    certificate_from_witness,
    certify_generic_rank,
    hull,
    inversion_probe,
    pair_span_dim,
    weak_rank_witness,
)
from .linalg import (
    Matrix,
    RankResult,
    det,
    inverse,
    rank,
)
from .planarity import (
    ClosedFormCurve,
    ConnectionSpec,
    CurveSpec,
    PlanarityReport,
    SampledCurve,
    geodesic_integrate,
    planarity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
