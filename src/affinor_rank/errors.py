"""Exception types shared across the package."""

from __future__ import annotations


class AffinorRankError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(AffinorRankError):
    """Matrix shapes are incompatible for the requested operation."""


class DimensionMismatch(AffinorRankError):
    """Vector or algebra dimensions do not match."""


class NotSquare(AffinorRankError):
    """A square matrix was required."""


class NotInvertible(AffinorRankError):
    """A matrix that must be invertible is singular."""


class InvalidBasis(AffinorRankError):
    """Affinor basis construction failed (identity, independence or size)."""


class NotClosed(AffinorRankError):
    """A matrix span is not closed under composition.

    Attributes:
        pair: index pair (i, j) of the first product that leaves the span.
        residual: exact squared norm of that product minus the span
            element agreeing with it on the pivot columns; it bounds the
            squared distance from the span (diag(1, 0) over {E}: 1, not 1/2).
    """

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"product of basis elements {pair[0]} and {pair[1]} is outside "
            f"the span (residual^2 = {residual})"
        )


class InvalidAlgebra(AffinorRankError):
    """Structure constants violate unity or associativity."""

    def __init__(self, message, violations=()):
        self.violations = tuple(violations)
        super().__init__(message)


class SignatureTooLarge(AffinorRankError):
    """Clifford signature exceeds the supported size."""


class SingularChangeOfBasis(AffinorRankError):
    """The change-of-basis matrix of a splitting is singular."""


class OutOfDomain(AffinorRankError):
    """Curve parameter lies outside the curve's domain."""


class InsufficientSamples(AffinorRankError):
    """A sampled curve has too few samples for the requested operation."""


class NonFiniteState(AffinorRankError):
    """Numerical integration blew up, or a curve sample is not finite."""


class MissingCertificate(AffinorRankError):
    """A report does not contain a rank certificate."""


class InputFormatError(AffinorRankError):
    """A JSON input file is malformed.

    Carries the offending path and field so command-line errors can point
    at the exact location.
    """

    def __init__(self, path, field, message):
        self.path = str(path)
        self.field = field
        super().__init__(f"{path}: field {field!r}: {message}")
