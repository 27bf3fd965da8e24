"""The contraction flow dv/dt = -h(v, t), its parametric limits, starlikeness
and chain checks, and the radial transform b with zeta*b'/b = 1/g.

Time-dependent generator schedules are piecewise constant: measurability is
then trivial, breakpoints integrate exactly (they are forced step
boundaries), and convex combinations inside each segment already give a rich
sampling family.  The integrator is classical RK4 with step doubling and
local extrapolation, controlled at a relative tolerance.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import ball_geometry as bg
from . import carath
from . import disc_functions as df
from .errors import DomainError, FlowInstabilityError, UnsupportedError

_NORM_GROWTH_TOL = 1e-9
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class HerglotzField:
    """Piecewise-constant-in-time schedule of certified generators.

    ``maps[k]`` acts on [times[k], times[k+1]) and the last segment extends
    as an autonomous field beyond ``horizon``.
    """

    times: Tuple[float, ...]
    maps: Tuple[carath.HolMap, ...]
    g: df.DiscFunction
    domain: bg.BallGeometry
    horizon: float
    certificates: Optional[Tuple[carath.MgCertificate, ...]] = None

    def __post_init__(self):
        if len(self.times) != len(self.maps) or not self.maps:
            raise DomainError("schedule needs matching, nonempty times and maps")
        if self.times[0] != 0.0 or any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise DomainError("breakpoints must strictly increase from 0")
        if any(not m.normalized for m in self.maps):
            raise DomainError("every scheduled generator must be normalized")

    def segment(self, t: float) -> int:
        return max(bisect_right(self.times, t) - 1, 0)

    def field_values(self, Z: np.ndarray, t: float) -> np.ndarray:
        return self.maps[self.segment(t)].values(Z)


def autonomous_field(h: carath.HolMap, g: df.DiscFunction, dom: bg.BallGeometry,
                     horizon: float = 1.0,
                     certificate: Optional[carath.MgCertificate] = None) -> HerglotzField:
    certs = (certificate,) if certificate is not None else None
    return HerglotzField((0.0,), (h,), g, dom, horizon, certs)


def make_field(maps: Sequence[carath.HolMap], g: df.DiscFunction, dom: bg.BallGeometry,
               dt: float = 0.5, certify_n: int = 160,
               rng: Optional[np.random.Generator] = None) -> HerglotzField:
    """Schedule the given generators on consecutive intervals of length dt,
    attaching a quick sampling certificate to each segment."""
    rng = np.random.default_rng(0) if rng is None else rng
    certs = tuple(
        carath.certify_Mg(m, g, dom, certify_n, rng=rng, structured=False) for m in maps
    )
    times = tuple(dt * k for k in range(len(maps)))
    return HerglotzField(times, tuple(maps), g, dom, dt * len(maps), certs)


@dataclass
class FlowResult:
    """Endpoint of a flow or parametric limit.

    ``error_estimate`` is the sum of the accepted steps' relative local
    error estimates (step doubling), a diagnostic rather than an error
    bound.  ``flow`` always returns ``converged=True`` and raises
    ``FlowInstabilityError`` instead of failing; ``parametric_map`` returns
    ``converged=False`` when its horizon runs out.
    """

    endpoint: np.ndarray
    trajectory: Optional[List[Tuple[float, np.ndarray]]]
    error_estimate: float
    horizon_used: float
    converged: bool


def _rk4(h_map: carath.HolMap, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical RK4 step from y, given its first stage k1 = -h(y)."""
    k2 = -h_map.values(y + 0.5 * dt * k1)
    k3 = -h_map.values(y + 0.5 * dt * k2)
    k4 = -h_map.values(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_segment(h_map, dom, y, t0, t1, tol, record, trajectory):
    t = t0
    err_total = 0.0
    norms_prev = np.asarray(bg.norm(dom, y))
    step = min(0.1, t1 - t0)
    k1 = None
    while t < t1 - 1e-14:
        step = min(step, t1 - t)
        # the full step and the first half step start at y, and so does a
        # retry after a rejected step: one first stage serves them all
        if k1 is None:
            k1 = -h_map.values(y)
        y_full = _rk4(h_map, y, step, k1)
        y_mid = _rk4(h_map, y, 0.5 * step, k1)
        y_half = _rk4(h_map, y_mid, 0.5 * step, -h_map.values(y_mid))
        # per-row relative error: the flow contracts to 0, so accuracy has to
        # follow the solution scale rather than an absolute floor
        row_scale = np.maximum(np.max(np.abs(y), axis=-1), 1e-30)
        row_err = np.max(np.abs(y_half - y_full), axis=-1) / 15.0
        rel = float(np.max(row_err / row_scale))
        if rel <= tol:
            y = y_half + (y_half - y_full) / 15.0
            k1 = None
            t += step
            err_total += rel
            norms = np.asarray(bg.norm(dom, y))
            if np.any(norms > norms_prev + _NORM_GROWTH_TOL) or np.any(norms >= 1.0):
                raise FlowInstabilityError(
                    "trajectory norm increased beyond tolerance (ball exit)"
                )
            norms_prev = norms
            if record:
                trajectory.append((t, y.copy()))
        factor = 0.9 * (tol / max(rel, 1e-300)) ** 0.2
        step *= min(5.0, max(0.2, factor))
        if step < _MIN_STEP:
            raise FlowInstabilityError("step size underflow in the flow integrator")
    return y, err_total


def flow(field: HerglotzField, z, s: float, t: float, tol: float = 1e-10,
         record_trajectory: bool = False) -> FlowResult:
    """Solution v(z, s, t) of dv/dtau = -h(v, tau), v(z, s, s) = z.

    Adaptive RK4 with step doubling at relative tolerance ``tol``; schedule
    breakpoints are forced step boundaries.  The trajectory must stay in the
    open ball with nonincreasing norm (up to 1e-9 per step), else the
    integrator aborts with ``FlowInstabilityError``, as it does on step-size
    underflow; the result is never ``converged=False``.
    """
    if t < s or s < 0.0:
        raise DomainError("flow needs 0 <= s <= t")
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    y = z[None, :].copy() if single else z.copy()
    if np.any(np.asarray(bg.norm(field.domain, y)) >= 1.0):
        raise DomainError("initial point outside the open unit ball")

    cuts = [tau for tau in field.times if s < tau < t]
    bounds = [s, *cuts, t]
    trajectory: List[Tuple[float, np.ndarray]] = [(s, y.copy())] if record_trajectory else []
    err_total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        h_map = field.maps[field.segment(a)]
        y, err = _integrate_segment(h_map, field.domain, y, a, b, tol,
                                    record_trajectory, trajectory)
        err_total += err
    endpoint = y[0] if single else y
    return FlowResult(endpoint, trajectory or None, err_total, t, True)


def parametric_map(field: HerglotzField, z, tol: float = 1e-8, ode_tol: float = 1e-10,
                   horizon: float = 40.0, checkpoint: float = 5.0) -> FlowResult:
    """Limit e^t v(z, 0, t) of the flow, evaluated at checkpoints t = 5, 10, ...

    Convergence is declared when successive checkpoint values differ by less
    than ``tol``; the horizon caps at 40 and a miss returns converged=False
    with the best estimate.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    y = z[None, :].copy() if single else z.copy()
    if np.any(np.asarray(bg.norm(field.domain, y)) >= 1.0):
        raise DomainError("initial point outside the open unit ball")
    prev = None
    est = y
    err_total = 0.0
    t_cur = 0.0
    converged = False
    while t_cur < horizon - 1e-12:
        t_next = min(t_cur + checkpoint, horizon)
        res = flow(field, y, t_cur, t_next, tol=ode_tol)
        y = res.endpoint
        err_total += res.error_estimate
        t_cur = t_next
        est = math.exp(t_cur) * y
        if prev is not None and float(np.max(np.abs(est - prev))) < tol:
            converged = True
            break
        prev = est
    endpoint = est[0] if single else est
    return FlowResult(endpoint, None, err_total, t_cur, converged)


def parametric_holmap(field: HerglotzField, tol: float = 1e-8, ode_tol: float = 1e-10,
                      label: str = "") -> carath.BlackBoxMap:
    """The parametric-limit map as a black-box HolMap (normalized by
    construction); evaluation raises ``FlowInstabilityError`` on a
    non-converged limit."""

    def fn(Z):
        Z = np.asarray(Z, dtype=complex)
        out = np.empty_like(Z)
        nonzero = np.any(Z != 0, axis=1)
        out[~nonzero] = 0.0
        if np.any(nonzero):
            res = parametric_map(field, Z[nonzero], tol=tol, ode_tol=ode_tol)
            if not res.converged:
                raise FlowInstabilityError("parametric limit did not converge")
            out[nonzero] = res.endpoint
        return out

    return carath.BlackBoxMap(fn, field.domain, normalized=True,
                              label=label or "parametric_limit", provenance=field)


# ---------------------------------------------------------------------------
# starlikeness and chain checks


def check_starlike_chain(F: carath.HolMap, g: df.DiscFunction, dom: bg.BallGeometry,
                         N: int, rng: Optional[np.random.Generator] = None,
                         eps: float = 1e-9) -> carath.MgCertificate:
    """Certify that t -> e^t F is a valid chain: h = [DF]^{-1} F must generate
    values in g(U).  A singular Jacobian at a sample point fails the
    certificate with that point as witness."""
    if not F.normalized:
        raise DomainError("starlikeness check needs a normalized map")
    rng = np.random.default_rng(0) if rng is None else rng
    Z = carath.certification_points(dom, N, rng, structured=True)
    J = F.jacobian_batch(Z)
    vals = F.values(Z)
    dets = np.linalg.det(J)
    singular = np.abs(dets) < 1e-12
    if np.any(singular):
        k = int(np.argmax(singular))
        return carath.MgCertificate(
            passed=False, samples_used=Z.shape[0], worst_margin=-np.inf, eps=eps,
            witness={"z": Z[k], "value": complex(dets[k]), "margin": -np.inf},
        )
    H = np.linalg.solve(J, vals[..., None])[..., 0]
    return carath.certify_values(lambda _: H, g, dom, Z, eps=eps)


def check_pde(F: carath.HolMap, field: HerglotzField, samples: int,
              rng: Optional[np.random.Generator] = None) -> float:
    """Max residual of the chain equation df/dt = Df h for f(z,t) = e^t F(z).

    For that chain form df/dt = e^t F(z), so the residual at (z, t) is
    e^t * ||F(z) - DF(z) h(z, t)||.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    Z = bg.sample_sphere(field.domain, rng, samples)
    Z = Z * rng.uniform(0.1, 0.8, samples)[:, None]
    ts = rng.uniform(0.0, field.horizon, samples)
    Fz = F.values(Z)
    J = F.jacobian_batch(Z)
    worst = 0.0
    for seg in set(field.segment(t) for t in ts):
        mask = np.array([field.segment(t) == seg for t in ts])
        hvals = field.maps[seg].values(Z[mask])
        mismatch = Fz[mask] - np.einsum("mij,mj->mi", J[mask], hvals)
        res = np.asarray(bg.norm(field.domain, mismatch)) * np.exp(ts[mask])
        worst = max(worst, float(np.max(res)))
    return worst


# ---------------------------------------------------------------------------
# the radial transform b and the unbounded support map


def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _koebe_integral(g: df.DiscFunction, z: np.ndarray, quad_points: int) -> np.ndarray:
    """Gauss-Legendre value of int_0^1 (1/g(s z) - 1)/s ds (vectorized in z)."""
    s, w = _gl_nodes(quad_points)
    u = z[..., None] * s
    gv = df._eval_raw(g, u)
    integrand = (1.0 / gv - 1.0) / s
    # removable singularity at s = 0: switch to the derivative of 1/g at the
    # midpoint.  Only the tiniest nodes need it; at larger s the O(s^2) bias
    # of the limit formula would exceed the direct round-off.
    small = s < 1e-8
    if np.any(small):
        mid = 0.5 * u[..., small]
        fallback = -z[..., None] * df.derivative(g, mid) / df._eval_raw(g, mid) ** 2
        integrand[..., small] = fallback
    return integrand @ w


def _koebe_factor(g: df.DiscFunction, z: np.ndarray, quad_points: int = 0) -> np.ndarray:
    """b(z)/z = exp(integral); quad_points = 0 doubles nodes adaptively."""
    if quad_points:
        return np.exp(_koebe_integral(g, z, quad_points))
    n = 64
    val = _koebe_integral(g, z, n)
    while n < 1024:
        n *= 2
        nxt = _koebe_integral(g, z, n)
        if np.max(np.abs(nxt - val)) < 1e-12:
            return np.exp(nxt)
        val = nxt
    return np.exp(val)


def koebe_transform(g: df.DiscFunction, zeta, quad_points: Optional[int] = None):
    """The normalized solution b of zeta b'/b = 1/g, b(0) = b'(0) - 1 = 0,
    computed by radial Gauss-Legendre quadrature.

    An explicit ``quad_points`` fixes the node count; by default the count
    doubles from 64 until the quadrature value is stable to 1e-12 (the fixed
    64-node rule loses a digit too much near the unit circle).
    """
    z = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("b is defined on the open unit disc")
    out = z * _koebe_factor(g, z, quad_points or 0)
    return out if out.shape else complex(out)


def growth_constant(g: df.DiscFunction) -> float:
    """Largest C with 1/(rho g(rho)) >= C/(1-rho) on (1/2, 1), i.e. the
    infimum of (1-rho)/(rho g(rho)) there."""
    rho = np.linspace(0.5 + 1e-9, 1.0 - 1e-12, 4001)
    vals = (1.0 - rho) / (rho * df._eval_raw(g, rho.astype(complex)).real)
    idx = int(np.argmin(vals))
    best = float(vals[idx])
    if 0 < idx < len(rho) - 1:
        refine = df._golden_refine(
            lambda r: float((1.0 - r) / (r * df._eval_raw(g, complex(r)).real)),
            rho[idx - 1], rho[idx], rho[idx + 1],
        )
        best = min(best, refine)
    return best


class KoebeRadialMap(carath.HolMap):
    """The normalized map z -> (b(z_1)/z_1) * z built on the radial transform."""

    def __init__(self, g: df.DiscFunction, domain: bg.BallGeometry):
        self.g = g
        self.domain = domain
        self.normalized = True

    def values(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return _koebe_factor(self.g, Z[:, 0])[:, None] * Z

    def jacobian_batch(self, Z):
        Z = np.asarray(Z, dtype=complex)
        zeta = Z[:, 0]
        factor = _koebe_factor(self.g, zeta)
        gv = df._eval_raw(self.g, zeta)
        small = np.abs(zeta) < 1e-6
        safe = np.where(small, 1.0, zeta)
        slope = factor * (1.0 - gv) / (safe * gv)
        slope = np.where(small, -df.g_prime0(self.g) * factor, slope)
        J = factor[:, None, None] * np.eye(self.domain.n, dtype=complex)
        J[:, :, 0] += slope[:, None] * Z
        return J

    def describe(self):
        return f"(b(z_1)/z_1)*z for {df.describe(self.g)}"


def unbounded_support_map(g: df.DiscFunction, dom: bg.BallGeometry) -> KoebeRadialMap:
    """The radial map z -> (b(z_1)/z_1) z; it maximizes the diagonal
    second-coefficient functional yet is unbounded near z_1 = 1.

    Requires a real-symmetric catalog g with g(rho) = O(1-rho) as rho -> 1;
    of the catalog that means moebius and starlike_order (plus the parameter
    values where the other families reduce to them).
    """
    decays = (
        g.family == df.MOEBIUS
        or g.family == df.STARLIKE_ORDER
        or (g.family == df.ALMOST_STARLIKE and g.alpha == 0.0)
        or (g.family == df.STRONGLY_STARLIKE and g.alpha == 1.0)
    )
    if not g.is_catalog:
        raise UnsupportedError("the radial construction needs a catalog g")
    if not decays:
        raise DomainError(
            f"{df.describe(g)} violates the decay hypothesis g(rho) = O(1-rho) as rho -> 1"
        )
    return KoebeRadialMap(g, dom)


# ---------------------------------------------------------------------------
# map and schedule wire formats, trajectory export


def _cplx(values) -> list:
    return [{"re": float(v.real), "im": float(v.imag)} for v in values]


def _uncplx(payload: list) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in payload], dtype=complex)


def map_to_json(f: carath.HolMap) -> dict:
    """Wire format of polynomial, composite and radial maps: polynomial
    terms, the arrays of a composite form, or the g of the radial map (black
    boxes do not serialize)."""
    if isinstance(f, carath.PolynomialMap):
        return {"representation": "polynomial", "terms": carath.poly_to_json(f),
                "normalized": f.normalized, "label": f.label}
    if isinstance(f, KoebeRadialMap):
        return {"representation": "koebe_radial", "g": df.to_json(f.g)}
    if not isinstance(f, carath.CompositeMap):
        raise UnsupportedError(f"{f.describe()} has no serializable representation")
    form = f.form
    return {
        "representation": "composite",
        "w0": None if form.w0 is None else _cplx([form.w0])[0],
        "lin": None if form.lin is None else [_cplx(row) for row in form.lin],
        "disc": [{"g": df.to_json(g), "functionals": [_cplx(row) for row in lmat],
                  "weights": _cplx(w)} for g, lmat, w in form.disc],
        "monomials": [{"indices": idx.tolist(),
                       "coefficients": _cplx(coef), "components": list(comp)}
                      for idx, coef, comp in form.monomials],
        "normalized": f.normalized,
        "label": f.label,
    }


def map_from_json(payload: dict, dom: bg.BallGeometry) -> carath.HolMap:
    rep = payload["representation"]
    if rep == "polynomial":
        f = carath.poly_from_json(payload["terms"], dom)
        f.label = payload.get("label", "")
        return f
    if rep == "koebe_radial":
        return KoebeRadialMap(df.from_json(payload["g"]), dom)
    if rep != "composite":
        raise UnsupportedError(f"unknown map representation {rep!r}")
    w0 = payload["w0"]
    disc = tuple((df.from_json(block["g"]),
                  np.array([_uncplx(row) for row in block["functionals"]]),
                  _uncplx(block["weights"])) for block in payload["disc"])
    monomials = tuple((np.array(group["indices"], dtype=int), _uncplx(group["coefficients"]),
                       tuple(group["components"])) for group in payload["monomials"])
    form = carath.FlatForm(None if w0 is None else complex(w0["re"], w0["im"]),
                           None if payload["lin"] is None
                           else np.array([_uncplx(row) for row in payload["lin"]]),
                           disc, monomials)
    return carath.CompositeMap(form, dom, normalized=bool(payload.get("normalized", False)),
                               label=payload.get("label", ""))


def field_to_json(field: HerglotzField) -> dict:
    """Wire format of a schedule: breakpoints plus map payloads."""
    out = {
        "times": [float(t) for t in field.times],
        "maps": [map_to_json(m) for m in field.maps],
        "g": df.to_json(field.g),
        "domain": bg.to_json(field.domain),
        "horizon": float(field.horizon),
    }
    if field.certificates is not None:
        out["certificates"] = [c.to_json() for c in field.certificates]
    return out


def field_from_json(payload: dict) -> HerglotzField:
    dom = bg.from_json(payload["domain"])
    maps = tuple(map_from_json(m, dom) for m in payload["maps"])
    return HerglotzField(
        tuple(float(t) for t in payload["times"]),
        maps,
        df.from_json(payload["g"]),
        dom,
        float(payload["horizon"]),
    )


def trajectory_to_csv(result: FlowResult, path) -> None:
    """Write a recorded single-point trajectory as CSV rows
    (t, re_1, im_1, ..., re_n, im_n)."""
    if result.trajectory is None:
        raise UnsupportedError("flow result carries no recorded trajectory")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        n = result.trajectory[0][1].shape[-1]
        writer.writerow(["t"] + [f"{part}_{k+1}" for k in range(n) for part in ("re", "im")])
        for t, y in result.trajectory:
            row = np.atleast_2d(y)[0]
            writer.writerow([f"{t:.17g}"] + [f"{val:.17g}" for z in row for val in (z.real, z.imag)])
