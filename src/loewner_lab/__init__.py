"""Numerical laboratory for extremal problems of univalent mappings on the
unit balls of small matrix-norm geometries (Euclidean ball, polydisc, 2x2
spectral ball).

Submodules
----------
disc_functions   catalog of convex disc functions g, distances d1/a0, membership
ball_geometry    the three unit-ball realizations, norms and support functionals
carath           holomorphic maps, second-order coefficients, shearing, certification
loewner_flow     the flow ODE, parametric limits, the radial b-transform
extremal_lab     coefficient functionals, sampling of the parametric family, scans
cli_reports      batch experiment front end
"""

__version__ = "0.1.0"

import os as _os

# LOEWNER_LAB_THREADS caps numeric-backend parallelism; it must reach the
# BLAS layer before numpy is first imported.
_threads = _os.environ.get("LOEWNER_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import ball_geometry, carath, cli_reports, disc_functions, extremal_lab, loewner_flow
from .errors import (
    DegenerateFunctionalError,
    DomainError,
    FlowInstabilityError,
    LoewnerLabError,
    NumericalInstabilityError,
    ReducedPrecisionWarning,
    UnsupportedError,
)

__all__ = [
    "__version__",
    "ball_geometry",
    "carath",
    "cli_reports",
    "disc_functions",
    "extremal_lab",
    "loewner_flow",
    "LoewnerLabError",
    "DomainError",
    "UnsupportedError",
    "NumericalInstabilityError",
    "FlowInstabilityError",
    "DegenerateFunctionalError",
    "ReducedPrecisionWarning",
]
