"""Exception and warning types shared across the lab."""


class LoewnerLabError(Exception):
    """Base class for all lab-specific failures."""


class DomainError(LoewnerLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedError(LoewnerLabError):
    """The requested computation needs data the object does not carry."""


class NumericalInstabilityError(LoewnerLabError, FloatingPointError):
    """Independent internal estimates disagree beyond the acceptable tolerance."""


class FlowInstabilityError(NumericalInstabilityError):
    """The flow integrator failed: the trajectory left the ball or stopped
    contracting, or the step size underflowed."""


class DegenerateFunctionalError(LoewnerLabError):
    """Support-functional extraction hit a degenerate singular value.

    The extreme points of the supporting set form a continuum there; callers
    are expected to resample instead of enumerating it.
    """


class ReducedPrecisionWarning(UserWarning):
    """Cross-checked estimates agree, but only to reduced precision."""
