"""Exception types raised by the library.

All errors derive from :class:`CtqError` so callers can catch broadly.
"""


class CtqError(ValueError):
    """Base class for all library errors."""


class NonSquare(CtqError):
    """Matrix expected to be square."""


class NotHermitian(CtqError):
    """Matrix deviates from its adjoint beyond tolerance."""


class DimensionMismatch(CtqError):
    """Array shape inconsistent with the subsystem dimension signature."""


class EmptyKeepSet(CtqError):
    """Partial trace asked to keep no subsystem."""


class ZeroVector(CtqError):
    """Amplitude vector has (near-)zero norm."""


class NotNormalized(CtqError):
    """State vector or coefficient list is not normalized."""


class FidelityOutOfRange(CtqError):
    """Isotropic fidelity parameter outside [0, 1]."""


class ParameterOutOfRange(CtqError):
    """Mixing parameter outside its admissible interval."""


class RankTooLarge(CtqError):
    """Requested rank exceeds the matrix dimension."""


class BadExponent(CtqError):
    """Measure exponent outside its admissible range."""


class BadDimension(CtqError):
    """Dimension argument invalid for the requested operation."""


class NotADistribution(CtqError):
    """Vector is not a probability distribution."""


class DomainError(CtqError):
    """Scalar argument outside the function domain."""


class WrongDimensions(CtqError):
    """Operation defined only for a specific subsystem signature."""


class ExponentOutsideTheoremRange(CtqError):
    """Exponent outside the range in which a closed form or bound holds."""


class UnequalLocalDims(CtqError):
    """Bound requires equal local dimensions."""


class ExponentOrderViolated(CtqError):
    """Exponent-monotonicity bound called with exponents out of order."""


class RootNotBracketed(CtqError):
    """Bisection bracket does not straddle a sign change."""


class FidelityBelowSeparableBoundary(CtqError):
    """Fidelity below 1/d, where the two-level parameters are undefined."""


class GridTooCoarse(CtqError):
    """Sampled curve has too few points for envelope construction."""


class InfeasibleConstraint(CtqError):
    """Constrained minimization has an empty feasible set."""


class NotAllQubits(CtqError):
    """Monogamy check requires every local dimension to be 2."""


class ParseError(CtqError):
    """State file could not be parsed."""


class UnsupportedState(CtqError):
    """No exact formula available for this state; use bounds instead."""
