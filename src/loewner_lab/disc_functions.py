"""Catalog of convex disc functions g with g(0) = 1 and their image geometry.

Four closed-form families are supported: the Moebius map (1-z)/(1+z) onto the
right half-plane, the starlike-of-order-alpha maps onto discs/half-planes, the
almost-starlike maps onto shifted half-planes, and the strongly-starlike power
maps onto sectors.  Each family carries exact formulas for the derivative at
the origin, the distance ``d1`` from 1 to the image boundary, and the signed
distance from a point to that boundary, the one metric of membership in the
image (``boundary_margin``; ``classify`` turns given margins into verdicts).
The catalog is closed: no other g is supported.  Boundary-grid scans refined
by zooming around the best grid points (``d1_grid``, ``a0``) stay as
independent numeric cross-checks of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

MOEBIUS = "moebius"
STARLIKE_ORDER = "starlike_order"
ALMOST_STARLIKE = "almost_starlike"
STRONGLY_STARLIKE = "strongly_starlike"

FAMILIES = (MOEBIUS, STARLIKE_ORDER, ALMOST_STARLIKE, STRONGLY_STARLIKE)

#: number of boundary/radial grid points used by the numeric scans
GRID_SIZE = 4096
#: zoom passes and points per pass of the grid-minimum refinement
_ZOOMS = 6
_ZOOM_POINTS = 65


@dataclass(frozen=True)
class DiscFunction:
    """A univalent holomorphic function on the unit disc with g(0) = 1.

    ``alpha`` is required for the three parametric families: in [0, 1) for
    ``starlike_order`` and ``almost_starlike``, in (0, 1] for
    ``strongly_starlike``.
    """

    family: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown disc-function family {self.family!r}")
        if self.family == MOEBIUS and self.alpha is not None:
            raise DomainError("moebius takes no alpha parameter")
        if self.family in (STARLIKE_ORDER, ALMOST_STARLIKE):
            if self.alpha is None or not 0.0 <= self.alpha < 1.0:
                raise DomainError(f"{self.family} needs alpha in [0, 1)")
        if self.family == STRONGLY_STARLIKE:
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise DomainError("strongly_starlike needs alpha in (0, 1]")


def describe(g: DiscFunction) -> str:
    if g.alpha is None:
        return g.family
    return f"{g.family}({g.alpha:g})"


def moebius() -> DiscFunction:
    return DiscFunction(MOEBIUS)


def starlike_order(alpha: float) -> DiscFunction:
    return DiscFunction(STARLIKE_ORDER, alpha)


def almost_starlike(alpha: float) -> DiscFunction:
    return DiscFunction(ALMOST_STARLIKE, alpha)


def strongly_starlike(alpha: float) -> DiscFunction:
    return DiscFunction(STRONGLY_STARLIKE, alpha)


# ---------------------------------------------------------------------------
# evaluation


def _beta(g: DiscFunction) -> float:
    """1 - 2 alpha; moebius is starlike of order 0 and shares its formulas."""
    return 1.0 - 2.0 * (g.alpha or 0.0)


def _eval_raw(g: DiscFunction, zeta):
    """Evaluate g without domain checks (the formulas extend past |z| = 1)."""
    z = np.asarray(zeta, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if g.family in (MOEBIUS, STARLIKE_ORDER):
            return (1.0 - z) / (1.0 + _beta(g) * z)
        if g.family == ALMOST_STARLIKE:
            return (1.0 - _beta(g) * z) / (1.0 + z)
        # strongly_starlike: principal branch; (1-z)/(1+z) has positive real
        # part on the disc, so the principal log never crosses its cut there
        w = (1.0 - z) / (1.0 + z)
        return np.exp(g.alpha * np.log(w))


@np.errstate(divide="ignore", invalid="ignore")
def minus_one(g: DiscFunction, zeta):
    """g(zeta) - 1 in closed forms without cancellation as zeta -> 0; strongly
    starlike uses (1-z)/(1+z) = e^{-2 artanh z}, since numpy's complex log1p
    loses the real part of tiny arguments."""
    return _minus_one(g, zeta)


def _minus_one(g: DiscFunction, zeta):
    """``minus_one`` under the caller's error state (the flow sets it per segment)."""
    z = np.asarray(zeta)
    if g.family in (MOEBIUS, STARLIKE_ORDER):
        beta = _beta(g)
        return -(1.0 + beta) * z / (1.0 + beta * z)
    if g.family == ALMOST_STARLIKE:
        return -(1.0 + _beta(g)) * z / (1.0 + z)
    return np.expm1(-2.0 * g.alpha * np.arctanh(z))


def evaluate(g: DiscFunction, zeta):
    """Value of g at a point (or array of points) of the open unit disc."""
    z = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("disc function evaluated at |zeta| >= 1")
    out = _eval_raw(g, z)
    return out if out.shape else complex(out)


def derivative(g: DiscFunction, zeta):
    """g'(zeta) in closed form."""
    z = np.asarray(zeta, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if g.family in (MOEBIUS, STARLIKE_ORDER):
            beta = _beta(g)
            out = -(1.0 + beta) / (1.0 + beta * z) ** 2
        elif g.family == ALMOST_STARLIKE:
            out = -(_beta(g) + 1.0) / (1.0 + z) ** 2
        else:
            out = _eval_raw(g, z) * g.alpha * (-2.0) / (1.0 - z * z)
    return out if out.shape else complex(out)


def g_prime0(g: DiscFunction) -> complex:
    """Derivative of g at the origin, in closed form."""
    if g.family == STRONGLY_STARLIKE:
        return complex(-2.0 * g.alpha)
    return complex(-2.0 * (1.0 - (g.alpha or 0.0)))


# ---------------------------------------------------------------------------
# boundary distance d1 and the radial infimum a0


def _grid_minimum(objective, grid, periodic: bool = False) -> float:
    """Smallest value of a vectorized ``objective`` (non-finite values skipped).

    The grid minimum is refined around the three best finite grid points:
    each of ``_ZOOMS`` passes evaluates ``_ZOOM_POINTS`` points spanning one
    spacing on either side of the current best point, then shrinks the
    spacing to that of the pass.  Brackets stay inside [grid[0], grid[-1]]
    unless the variable is ``periodic`` (an angle), where they wrap.
    """
    def finite(x):
        out = objective(x)
        return np.where(np.isfinite(out), out, np.inf)

    vals = finite(grid)
    best = float(np.min(vals))
    for idx in np.argsort(vals)[:3]:
        if not np.isfinite(vals[idx]):
            continue
        x, half = grid[idx], grid[1] - grid[0]
        for _ in range(_ZOOMS):
            xs = np.linspace(x - half, x + half, _ZOOM_POINTS)
            if not periodic:
                xs = np.clip(xs, grid[0], grid[-1])
            v = finite(xs)
            k = int(np.argmin(v))
            x, half, best = xs[k], 2.0 * half / (_ZOOM_POINTS - 1), min(best, float(v[k]))
    return best


def d1(g: DiscFunction) -> float:
    """Distance from 1 = g(0) to the boundary of the image g(U).

    Closed forms: 1 for moebius; 1 or (1-a)/a for starlike of order a; 1-a
    for almost starlike; sin(a*pi/2) for strongly starlike.  ``d1_grid`` is
    the numeric cross-check.
    """
    if g.family in (MOEBIUS, STARLIKE_ORDER):
        alpha = g.alpha or 0.0
        return 1.0 if alpha <= 0.5 else (1.0 - alpha) / alpha
    if g.family == ALMOST_STARLIKE:
        return 1.0 - g.alpha
    return math.sin(g.alpha * math.pi / 2.0)


def d1_grid(g: DiscFunction) -> float:
    """Numeric boundary distance: grid scan of |g(e^{i theta}) - 1| refined
    around the three best grid points (``_grid_minimum``).

    Poles / infinite boundary points cannot be nearest points to 1 and are
    skipped.
    """
    theta = 2.0 * np.pi * np.arange(GRID_SIZE) / GRID_SIZE
    return _grid_minimum(lambda t: np.abs(_eval_raw(g, np.exp(1j * t)) - 1.0), theta,
                         periodic=True)


def _a0_objective(g: DiscFunction, rho):
    rho = np.asarray(rho, dtype=float)
    return np.minimum(np.abs(minus_one(g, rho)), np.abs(minus_one(g, -rho))) / rho


def a0(g: DiscFunction) -> float:
    """Radial infimum over rho in (0,1) of min(|1-g(rho)|, |g(-rho)-1|)/rho.

    The scan combines a refined grid minimum (``_grid_minimum``), the
    rho -> 0 limit |g'(0)|, and a linear-in-(1-rho) extrapolation of the
    rho -> 1 endpoint (the objective extends continuously whenever g does).
    """
    grid = np.linspace(1e-6, 1.0 - 1e-6, GRID_SIZE)
    candidates = [_grid_minimum(lambda r: _a0_objective(g, r), grid), abs(g_prime0(g))]
    tail = _a0_objective(g, 1.0 - np.power(10.0, -np.arange(2.0, 7.0)))
    if np.all(np.isfinite(tail)):
        f5, f6 = tail[-2], tail[-1]
        candidates.append(float(f6 - (f5 - f6) / 9.0))  # extrapolate to rho = 1
        candidates.append(float(f6))
    return min(candidates)


# ---------------------------------------------------------------------------
# membership of a point in g(U): the signed distance to its boundary


def boundary_margin(g: DiscFunction, w):
    """Signed Euclidean distance from w to the boundary of g(U).

    Positive inside the image, negative outside, and -inf at a non-finite
    w.  Closed forms: half-planes, discs and sectors.
    """
    w = np.asarray(w, dtype=complex)
    if g.family == MOEBIUS or (g.family == STARLIKE_ORDER and g.alpha == 0.0):
        out = w.real
    elif g.family == STARLIKE_ORDER:
        c = 1.0 / (2.0 * g.alpha)
        out = c - np.abs(w - c)
    elif g.family == ALMOST_STARLIKE:
        out = w.real - g.alpha
    else:
        out = _sector_margin(w, g.alpha * np.pi / 2.0)
    out = np.where(np.isfinite(w), out, -np.inf)
    return out if out.shape else float(out)


def _sector_margin(w, beta):
    """Signed distance to the boundary of the sector |arg w| < beta."""
    m = np.abs(w)
    phi = np.abs(np.angle(w))
    half_pi = np.pi / 2.0
    up = np.where(beta - phi < half_pi, m * np.sin(np.abs(beta - phi)), m)
    down = np.where(beta + phi < half_pi, m * np.sin(beta + phi), m)
    inside = np.minimum(up, down)
    delta = phi - beta
    outside = -np.where(delta < half_pi, m * np.sin(np.minimum(delta, half_pi)), m)
    return np.where(phi < beta, inside, outside)


def classify(w, margins, eps: float):
    """Vectorized membership verdicts of values w from their signed boundary
    margins m (``boundary_margin``, computed once by the caller): +1 inside
    (m > eps*max(1, |w|)), -1 outside (m < -eps*max(1, |w|)) and 0
    indeterminate in the band between; a non-finite w is outside."""
    if not 0 < eps < np.inf:
        raise DomainError("eps must be finite and positive")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    band = eps * np.maximum(1.0, np.abs(w))
    m = np.atleast_1d(margins)
    out = np.zeros(w.shape, dtype=np.int8)
    out[m > band] = 1
    out[m < -band] = -1
    out[~np.isfinite(w)] = -1
    return out


# ---------------------------------------------------------------------------
# config payloads (``cli_reports.ExperimentConfig.validate``)


def from_json(payload: dict) -> DiscFunction:
    alpha = payload.get("alpha")
    if alpha is not None and (not isinstance(alpha, (int, float)) or isinstance(alpha, bool)):
        raise DomainError(f"alpha must be a number, not {alpha!r}")
    return DiscFunction(payload["family"], alpha)
