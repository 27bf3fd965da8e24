"""The contraction flow dv/dt = -h(v, t), its parametric limits, starlikeness
and chain checks, and the radial transform b with zeta*b'/b = 1/g.

Time-dependent generator schedules are piecewise constant: measurability is
then trivial, breakpoints integrate exactly (they are forced step
boundaries), and convex combinations inside each segment already give a rich
sampling family.  The integrator is the embedded Dormand-Prince 8(5,3) pair
(DOP853), controlled at a relative tolerance, with the step size carried
across breakpoints.  A flow on [s, t] runs in compactified time
d = e^{-(tau - s)}, from 1 down to e^{-(t - s)}, on w = e^{tau - s} v:
dw/dd = R(d w)/d^2 with R = h - id, evaluated as (R(d w)/d)/d so that d^2
never underflows.  For a normalized h, R(x) = O(|x|^2) (``carath.remainder_map``,
free of cancellation), so the right-hand side stays bounded down to d = 0 and
the parametric limit lim e^t v is the endpoint of one flow over a finite
d-interval.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import ball_geometry as bg
from . import carath
from . import disc_functions as df
from .errors import DomainError, FlowInstabilityError

_NORM_GROWTH_TOL = 1e-9
#: smallest step, as a time step: a step ds in d at d spans ds/d in time
_MIN_STEP = 1e-12
#: longest span [s, t] ``flow`` integrates in one call: d = e^{-(t - s)} must
#: stay a normal double (it underflows past t - s ~ 708)
MAX_SEGMENT = 700.0
#: length of each ``make_field`` segment
SEGMENT_DT = 0.5
#: step in d the first attempt of a flow tries
FIRST_STEP = 0.1
#: ``parametric_map`` scales the flow to t = HORIZON by e^HORIZON; the tail
#: beyond it is O(e^-HORIZON) = 4e-18 relative
HORIZON = 40.0

#: Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, sec.
#: II.10; Prince & Dormand 1981): nodes c, stage rows a (row i holds
#: a[i, :i]), 8th-order weights b, and the 5th- and 3rd-order error rows
_DOP_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 1 / 3, 0.25, 4 / 13, 0.6512820512820513, 0.6, 6 / 7, 1.0])
_DOP_A = [np.array(row) for row in ([], [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636])]
_DOP_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259])
_DOP_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    _DOP_B - np.array([31 / 127, 0, 0, 0, 0, 0, 0, 0, 1 - 31 / 127 - 3 / 136, 0, 0, 3 / 136])])


@dataclass(frozen=True)
class HerglotzField:
    """Piecewise-constant-in-time schedule of normalized generators.

    ``maps[k]`` acts on [times[k], times[k+1]) and the last segment extends
    as an autonomous field for all later times.  Generators must act on
    ``domain``, have an array form (a ``PolynomialMap`` or ``CompositeMap``),
    be flagged normalized and have Dh(0) = I within 1e-12, read off the
    form; a map known only by its values is refused, since nothing checks
    its normalization.  Membership of the generators in M_g is the caller's:
    sampled ones are M_g members by construction
    (``carath.random_Mg_member``).
    """

    times: Tuple[float, ...]
    maps: Tuple[carath.HolMap, ...]
    domain: bg.BallGeometry

    def __post_init__(self):
        if len(self.times) != len(self.maps) or not self.maps:
            raise DomainError("schedule needs matching, nonempty times and maps")
        if self.times[0] != 0.0 or any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise DomainError("breakpoints must strictly increase from 0")
        if any(m.domain != self.domain for m in self.maps):
            raise DomainError("every scheduled generator must act on the schedule's domain")
        if any(m.form is None for m in self.maps):
            raise DomainError("every scheduled generator must have an array form "
                              "(a PolynomialMap or CompositeMap)")
        if any(not m.normalized or carath.linear_defect(m) > 1e-12 for m in self.maps):
            raise DomainError("every scheduled generator must be normalized, "
                              "with Dh(0) = I within 1e-12")

    def segment(self, t: float) -> int:
        return max(bisect_right(self.times, t) - 1, 0)


def autonomous_field(h: carath.HolMap, dom: bg.BallGeometry) -> HerglotzField:
    return HerglotzField((0.0,), (h,), dom)


def make_field(maps: Sequence[carath.HolMap], dom: bg.BallGeometry) -> HerglotzField:
    """Schedule the given generators on consecutive intervals of length
    SEGMENT_DT."""
    times = tuple(SEGMENT_DT * k for k in range(len(maps)))
    return HerglotzField(times, tuple(maps), dom)


@dataclass
class FlowResult:
    """Endpoint of a flow or parametric limit, and the time it reached."""

    endpoint: np.ndarray
    horizon_used: float


def _stage_sum(a: np.ndarray, K: np.ndarray, shape) -> np.ndarray:
    """sum_i a_i k_i for a real coefficient row (or rows) over the first stages
    of the flat stage array K, viewed as reals."""
    return (a @ K[:a.shape[-1]].view(float)).view(complex).reshape(shape)


def _integrate_segment(rem, dom, w, d0, d1, tol, step):
    """Flow w from d = d0 down to d1 under dw/dd = (R(d w)/d)/d, R = ``rem``,
    trying ``step`` first; returns w(d1) and the controller's next step.

    The remaining distance r = d - d1 is tracked instead of d, so the last
    stage lands on d1 exactly (d1 may sit far below the rounding of d0).
    """
    if not w.size:
        return w, step
    r = d0 - d1
    norms_prev = np.asarray(bg.norm(dom, d0 * w))
    K = np.empty((12, w.size), dtype=complex)
    need_first = True
    # K holds dw/d(-d), the stages of a flow in the increasing variable d0 - d
    while r > 0.0:
        ds = min(step, r)
        # an accepted step ends at the next step's first stage, and a
        # rejected attempt keeps its own
        if need_first:
            d = d1 + r
            K[0] = -(rem.values(d * w) / d / d).ravel()
            need_first = False
        for i in range(1, 12):
            d = d1 + (r - _DOP_C[i] * ds)
            x = d * (w + ds * _stage_sum(_DOP_A[i], K, w.shape))
            K[i] = -(rem.values(x) / d / d).ravel()
        # per-row relative error of w (so of v = d w); DOP853 damps the
        # 5th-order estimate by the 3rd-order one, e5^2 / sqrt(e5^2 + 0.01 e3^2)
        row_scale = np.maximum(np.max(np.abs(w), axis=-1), 1e-30)
        e5, e3 = np.max(np.abs(_stage_sum(_DOP_E, K, (2, *w.shape))), axis=-1) / row_scale
        denom = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        rel = ds * float(np.max(np.divide(e5 * e5, denom, out=np.zeros_like(e5),
                                          where=denom > 0)))
        if rel <= tol:
            w = w + ds * _stage_sum(_DOP_B, K, w.shape)
            need_first = True
            r = r - ds
            d = d1 + r
            norms = np.asarray(bg.norm(dom, d * w))
            if np.any(norms > norms_prev + _NORM_GROWTH_TOL) or np.any(norms >= 1.0):
                raise FlowInstabilityError(
                    "trajectory norm increased beyond tolerance (ball exit)"
                )
            norms_prev = norms
        factor = 0.9 * (tol / max(rel, 1e-300)) ** 0.125
        step = ds * min(5.0, max(0.2, factor))
        # an accepted step that ended the segment is never too small
        if r > 0.0 and step < _MIN_STEP * (d1 + r):
            raise FlowInstabilityError("step size underflow in the flow integrator")
    return w, step


def flow(field: HerglotzField, z, s: float, t: float, tol: float = 1e-10) -> FlowResult:
    """Solution v(z, s, t) of dv/dtau = -h(v, tau), v(z, s, s) = z.

    Adaptive Dormand-Prince 8(5,3) at relative tolerance ``tol``, applied to
    w = e^{tau - s} v in d = e^{-(tau - s)} (module docstring); schedule
    breakpoints are forced step boundaries, and the step size goes on across
    them.  The trajectory must stay in the open ball with nonincreasing norm (up to
    1e-9 per step), else the integrator aborts with ``FlowInstabilityError``,
    as it does on step-size underflow.  A span t - s longer than MAX_SEGMENT
    raises ``DomainError`` before any step.  An empty (0, n) batch returns
    at once.
    """
    if t < s or s < 0.0:
        raise DomainError("flow needs 0 <= s <= t")
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    w = z[None, :].copy() if single else z.copy()
    if np.any(np.asarray(bg.norm(field.domain, w)) >= 1.0):
        raise DomainError("initial point outside the open unit ball")
    if t - s > MAX_SEGMENT:
        raise DomainError(f"flow span of length {t - s:g} exceeds the limit {MAX_SEGMENT:g} "
                          "(e^-(t-s) must stay a normal double); flow in shorter calls")

    bounds = [s, *(tau for tau in field.times if s < tau < t), t]
    step = FIRST_STEP
    for a, b in zip(bounds, bounds[1:]):
        rem = carath.remainder_map(field.maps[field.segment(a)])
        w, step = _integrate_segment(rem, field.domain, w, math.exp(s - a), math.exp(s - b),
                                     tol, step)
    v = math.exp(s - t) * w
    return FlowResult(v[0] if single else v, t)


def parametric_map(field: HerglotzField, z, ode_tol: float = 1e-10) -> FlowResult:
    """Limit e^t v(z, 0, t) of the flow: one ``flow`` to HORIZON, scaled by
    e^HORIZON.  In d = e^{-t} the limit is the endpoint at d = 0 of a flow
    whose right-hand side is bounded, and stopping at d = e^-HORIZON instead
    moves it by O(e^-HORIZON |z|^2), below rounding."""
    res = flow(field, z, 0.0, HORIZON, tol=ode_tol)
    return FlowResult(math.exp(HORIZON) * res.endpoint, HORIZON)


def parametric_quadratic(field: HerglotzField) -> np.ndarray:
    """Exact degree-2 part of the parametric limit f = lim e^t v(., 0, t), as
    the (n, n, n) array of ``carath.FlatForm.quadratic``.

    With h = z + Q_k(z) on [t_k, t_{k+1}) (the last segment runs to
    infinity), v = e^{-t} z + w with (e^t w)' = -e^{-t} Q_k(z) + O(|z|^3), so

        Q_f = -sum_k (e^{-t_k} - e^{-t_{k+1}}) Q_k.
    """
    n = field.domain.n
    decay = np.exp(-np.asarray(field.times))
    weights = decay - np.append(decay[1:], 0.0)
    Q = np.zeros((n, n, n), dtype=complex)
    for w, h in zip(weights, field.maps):
        Q -= w * h.form.quadratic(n)
    return Q


def parametric_holmap(field: HerglotzField, ode_tol: float = 1e-10,
                      label: str = "") -> carath.BlackBoxMap:
    """The parametric-limit map as a black-box HolMap (normalized by
    construction: the remainder vanishes at 0, so the origin flows to 0
    exactly); evaluation raises ``FlowInstabilityError`` when the flow
    fails."""
    return carath.BlackBoxMap(lambda Z: parametric_map(field, Z, ode_tol=ode_tol).endpoint,
                              field.domain, normalized=True, label=label or "parametric_limit")


# ---------------------------------------------------------------------------
# starlikeness and chain checks


def check_starlike_chain(F: carath.HolMap, g: df.DiscFunction, dom: bg.BallGeometry,
                         N: int, rng: Optional[np.random.Generator] = None,
                         eps: float = 1e-9) -> carath.MgCertificate:
    """Certify that t -> e^t F is a valid chain: h = [DF]^{-1} F must generate
    values in g(U).  ``certify_Mg`` streams h block by block; h is NaN where
    DF is singular (|det| < 1e-12), which fails with margin -inf, so the
    earliest such point is the witness."""
    if not F.normalized:
        raise DomainError("starlikeness check needs a normalized map")

    def generator(Z):
        J = F.jacobian_batch(Z)
        singular = np.abs(np.linalg.det(J)) < 1e-12
        J = np.where(singular[:, None, None], np.eye(dom.n), J)
        H = np.linalg.solve(J, F.values(Z)[..., None])[..., 0]
        H[singular] = np.nan
        return H

    h = carath.BlackBoxMap(generator, dom, normalized=True)
    return carath.certify_Mg(h, g, dom, N, eps=eps, rng=rng)


# ---------------------------------------------------------------------------
# the radial transform b and the unbounded support map


def radial_beta(g: df.DiscFunction) -> float:
    """The beta of the radial transform: the one admissibility test of the
    unbounded support map.

    The radial construction needs a real-symmetric catalog g with
    g(rho) = O(1-rho) as rho -> 1.  Those are g(z) = (1-z)/(1+beta z):
    moebius (beta = 1), starlike_order(alpha) (beta = 1 - 2 alpha), and
    almost_starlike(0) and strongly_starlike(1), which equal moebius.
    Raises ``DomainError`` for any other g.
    """
    if g.family in (df.MOEBIUS, df.STARLIKE_ORDER):
        return df._beta(g)
    if (g.family, g.alpha) in ((df.ALMOST_STARLIKE, 0.0), (df.STRONGLY_STARLIKE, 1.0)):
        return 1.0
    raise DomainError(
        f"{df.describe(g)} violates the decay hypothesis g(rho) = O(1-rho) as rho -> 1")


def _koebe_factor(beta: float, z: np.ndarray) -> np.ndarray:
    """b(z)/z = (1-z)^{-(1+beta)}."""
    return (1.0 - z) ** -(1.0 + beta)


def koebe_transform(g: df.DiscFunction, zeta):
    """The normalized solution b of zeta b'/b = 1/g, b(0) = b'(0) - 1 = 0.

    For g(z) = (1-z)/(1+beta z) (``radial_beta``), zeta b'/b = 1/g integrates
    to b(z) = z (1-z)^{-(1+beta)}, the Koebe function at beta = 1.
    """
    beta = radial_beta(g)
    z = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("b is defined on the open unit disc")
    out = z * _koebe_factor(beta, z)
    return out if out.shape else complex(out)


def koebe_ode_residual(g: df.DiscFunction, zeta) -> float:
    """max |zeta b'/b - 1/g| over a 1-D array of points zeta.  b' comes from a
    32-node Cauchy circle of radius min((1 - |zeta|)/2, 0.02), not from b's
    closed form; the circle keeps within half the distance to b's singularity
    at 1, so its error is about 2^-32 relative at most, whatever the draw."""
    zeta = np.asarray(zeta, dtype=complex)
    r = np.minimum(0.5 * (1.0 - np.abs(zeta)), 0.02)
    ring = np.exp(2j * np.pi * np.arange(32) / 32)
    bp = (koebe_transform(g, zeta[:, None] + r[:, None] * ring) * ring.conj()).mean(axis=1) / r
    return float(np.max(np.abs(zeta * bp / koebe_transform(g, zeta) - 1.0 / df._eval_raw(g, zeta))))


def growth_constant(g: df.DiscFunction) -> float:
    """Largest C with 1/(rho g(rho)) >= C/(1-rho) on (1/2, 1): there
    (1-rho)/(rho g(rho)) = beta + 1/rho decreases to 1 + beta."""
    return 1.0 + radial_beta(g)


class KoebeRadialMap(carath.HolMap):
    """The normalized map z -> (b(z_1)/z_1) * z built on the radial transform;
    an inadmissible g raises as in ``radial_beta``."""

    def __init__(self, g: df.DiscFunction, domain: bg.BallGeometry):
        self.beta = radial_beta(g)
        self.g = g
        self.domain = domain
        self.normalized = True

    def values(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return _koebe_factor(self.beta, Z[:, 0])[:, None] * Z

    def jacobian_batch(self, Z):
        Z = np.asarray(Z, dtype=complex)
        zeta = Z[:, 0]
        factor = _koebe_factor(self.beta, zeta)
        # d/dzeta (b/zeta) = (1+beta) (b/zeta) / (1-zeta)
        slope = (1.0 + self.beta) * factor / (1.0 - zeta)
        J = factor[:, None, None] * np.eye(self.domain.n, dtype=complex)
        J[:, :, 0] += slope[:, None] * Z
        return J

    def describe(self):
        return f"(b(z_1)/z_1)*z for {df.describe(self.g)}"


def unbounded_support_map(g: df.DiscFunction, dom: bg.BallGeometry) -> KoebeRadialMap:
    """The radial map z -> (b(z_1)/z_1) z; it maximizes the diagonal
    second-coefficient functional yet is unbounded near z_1 = 1.

    Requires an admissible g (``radial_beta``).
    """
    return KoebeRadialMap(g, dom)

