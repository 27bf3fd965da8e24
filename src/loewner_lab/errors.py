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


class DegenerateFunctionalError(NumericalInstabilityError):
    """Support-functional extraction hit a spectral point whose two singular
    values agree to within ``ball_geometry._DEGENERATE_TOL`` of its norm.

    Its extreme functionals form a continuum there, which is not enumerated,
    so a run that meets such a point ends as a numerical instability.
    """


class ReducedPrecisionWarning(UserWarning):
    """Cross-checked estimates agree, but only to reduced precision."""
