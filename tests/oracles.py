"""What only the tests use: a difference Jacobian for maps known only by
their values and the normalization check f(0) = 0, Df(0) = I (the two
oracles), a normalized form whose flow leaves the ball, one random M_g
member of a chosen number of blocks, one sampled schedule, four catalog g,
the DOP853 segment kernel in plain complex arithmetic, whose floats the
in-place kernel of ``loewner_flow`` must return, and the support values and
image margins of a map on a complex line, computed without
``ball_geometry`` and ``disc_functions``."""

import numpy as np

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import disc_functions as df
from loewner_lab import extremal_lab as el
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import DomainError, FlowInstabilityError

_FD_STEP = 1e-5
#: one g of each ``disc_functions`` family
CATALOG = (df.moebius(), df.starlike_order(0.7), df.almost_starlike(0.4),
           df.strongly_starlike(0.5))


def fd_jacobian(f, Z):
    """Jacobians of f at the rows of Z from 4th-order differences of
    ``f.values``."""
    Z = np.asarray(Z, dtype=complex)
    m, n = Z.shape
    h = _FD_STEP
    offsets = np.array([2 * h, h, -h, -2 * h])
    pts = np.repeat(Z[:, None, None, :], n, axis=1).repeat(4, axis=2)
    for k in range(n):
        pts[:, k, :, k] += offsets
    vals = f.values(pts.reshape(-1, n)).reshape(m, n, 4, n)
    # d/dz_k along the real direction equals the complex derivative
    deriv = (-vals[:, :, 0] + 8 * vals[:, :, 1] - 8 * vals[:, :, 2] + vals[:, :, 3]) / (12 * h)
    return np.swapaxes(deriv, 1, 2)


def assert_normalized(f, tol_value: float = 1e-12, tol_jac: float = 1e-8):
    """Check f(0) = 0 and Df(0) = I within the stated tolerances."""
    zero = np.zeros((1, f.domain.n), dtype=complex)
    v0 = np.linalg.norm(f.values(zero)[0])
    if v0 >= tol_value:
        raise DomainError(f"map is not normalized: |f(0)| = {v0:.3e}")
    j0 = f.jacobian_batch(zero)[0]
    dev = np.abs(j0 - np.eye(f.domain.n)).max()
    if dev >= tol_jac:
        raise DomainError(f"map is not normalized: |Df(0) - I| = {dev:.3e}")


def leaving_form(dom: bg.BallGeometry, k: int) -> carath.PolynomialMap:
    """The normalized form z + 4 z_k^2 e_k.  Its flow has z_k' = -(z_k + 4 z_k^2),
    which carries every real z_k < -1/4 out of the ball (at (-0.5, 0.2i) on
    the bidisc, k = 1, and at z_k = -0.4 on a DFT circle of radius 0.4)."""
    return carath._quadratic_field(dom, k, k, 4.0, f"z + 4 z_{k}^2 e_{k}")


def random_member(g, dom: bg.BallGeometry, rng: np.random.Generator,
                  k: int) -> carath.CompositeMap:
    """A random convex combination of k building blocks, drawn and lowered as
    ``extremal_lab.sample_Sg0`` draws and lowers one schedule piece."""
    points = []
    spec = carath.draw_Mg_member(dom, rng, k, points)
    L, owner = bg.support_functionals(dom, np.concatenate([np.empty((0, dom.n)), *points]))
    rows = L[np.unique(owner, return_index=True)[1]]
    return carath.random_Mg_member(g, dom, spec, rows)


def sampled_schedule(g, dom: bg.BallGeometry, rng: np.random.Generator, pieces: int):
    """One draw of ``extremal_lab.sample_Sg0``."""
    return el.sample_Sg0(g, dom, rng, pieces, 1)[0]


def _stage_sum(a: np.ndarray, K: np.ndarray, shape) -> np.ndarray:
    """sum_i a_i k_i for a real coefficient row (or rows) over the first stages
    of the flat stage array K, viewed as reals."""
    return (a @ K[:a.shape[-1]].view(float)).view(complex).reshape(shape)


def reference_segment(rem, dom, w, d0, d1, tol, step):
    """``loewner_flow._integrate_segment`` in complex arithmetic: a fresh
    array per operation, K holding dw/d(-d), the stages of a flow in the
    increasing variable d0 - d."""
    if not w.size:
        return w, step
    r = d0 - d1
    norms_prev = np.asarray(bg.norm(dom, d0 * w))
    K = np.empty((12, w.size), dtype=complex)
    need_first, last = True, None
    while r > 0.0:
        ds = min(step, r)
        if need_first:
            d = d1 + r
            K[0] = -(rem.values(d * w) / d / d).ravel()
            need_first = False
        for i in range(1, 12):
            d = d1 + (r - lf._DOP_C[i] * ds)
            x = d * (w + ds * _stage_sum(lf._DOP_A[i], K, w.shape))
            K[i] = -(rem.values(x) / d / d).ravel()
        row_scale = np.maximum(np.max(np.abs(w), axis=-1), 1e-30)
        e5, e3 = np.max(np.abs(_stage_sum(lf._DOP_E, K, (2, *w.shape))), axis=-1) / row_scale
        denom = np.sqrt(e5 * e5 + 0.01 * e3 * e3)
        rel = ds * float(np.max(np.divide(e5 * e5, denom, out=np.zeros_like(e5),
                                          where=denom > 0)))
        factor = 0.9 * (tol / max(rel, 1e-300)) ** 0.125
        if rel <= tol:
            w = w + ds * _stage_sum(lf._DOP_B, K, w.shape)
            need_first = True
            r = r - ds
            d = d1 + r
            norms = np.asarray(bg.norm(dom, d * w))
            if np.any(norms > norms_prev + lf._NORM_GROWTH_TOL) or np.any(norms >= 1.0):
                raise FlowInstabilityError(
                    "trajectory norm increased beyond tolerance (ball exit)"
                )
            norms_prev = norms
            # the predictive factor from the segment's second accepted step on
            err = rel / tol
            if last is not None:
                factor = min(factor, 0.9 * (ds / last[0])
                             * (last[1] / max(err, 1e-10) ** 2) ** 0.125)
            last = ds, max(err, 1e-2)
        step = ds * min(5.0, max(0.2, factor))
        if r > 0.0 and step < lf._MIN_STEP * (d1 + r):
            raise FlowInstabilityError("step size underflow in the flow integrator")
    return w, step


# ---------------------------------------------------------------------------
# support values on a complex line


def _matrix(z):
    """A spectral2 point as its 2x2 matrix (coordinates E11, E22, E12, E21)."""
    return np.array([[z[0], z[2]], [z[3], z[1]]])


def domain_norm(dom: bg.BallGeometry, z) -> float:
    """||z||: np.linalg.norm, the largest modulus, or the top singular value
    of np.linalg.svd."""
    if dom.kind == bg.EUCLIDEAN:
        return float(np.linalg.norm(z))
    if dom.kind == bg.POLYDISC:
        return float(np.max(np.abs(z)))
    return float(np.linalg.svd(_matrix(z), compute_uv=False)[0])


def line_functional(dom: bg.BallGeometry, u) -> np.ndarray:
    """The coefficient row of a norm-one functional l with l(u) = ||u|| = 1:
    conj(u) on the Euclidean ball, the conjugate phase of the largest
    coordinate on the polydisc, and W -> x^H W y for the top singular pair
    (x, y) of np.linalg.svd on spectral2."""
    if dom.kind == bg.EUCLIDEAN:
        return np.conj(u)
    if dom.kind == bg.POLYDISC:
        row = np.zeros(dom.n, dtype=complex)
        k = int(np.argmax(np.abs(u)))
        row[k] = np.conj(u[k]) / abs(u[k])
        return row
    left, _, right = np.linalg.svd(_matrix(u))
    m = np.outer(np.conj(left[:, 0]), np.conj(right[0]))
    return np.array([m[0, 0], m[1, 1], m[0, 1], m[1, 0]])


def image_margin(g, w) -> np.ndarray:
    """Signed distance from w to the boundary of g(U), positive inside: the
    half-plane Re w > 0 (moebius) or Re w > alpha (almost_starlike), the disc
    |w - c| < c with c = 1/(2 alpha) (starlike_order), and for
    strongly_starlike the sector |arg w| < alpha pi/2, through the distance
    to its nearer boundary ray."""
    w = np.asarray(w, dtype=complex)
    if g.family == df.MOEBIUS:
        return w.real
    if g.family == df.ALMOST_STARLIKE:
        return w.real - g.alpha
    if g.family == df.STARLIKE_ORDER:
        c = 1.0 / (2.0 * g.alpha)
        return c - np.abs(w - c)
    half = g.alpha * np.pi / 2.0
    to_ray = []
    for side in (1.0, -1.0):
        turned = w * np.exp(-1j * side * half)  # the ray along the positive axis
        to_ray.append(np.where(turned.real > 0.0, np.abs(turned.imag), np.abs(turned)))
    inside = np.abs(np.angle(w)) < half
    return np.where(inside, 1.0, -1.0) * np.minimum(*to_ray)


def circle_margins(g, h, u, row, radii, phases: int = 64) -> np.ndarray:
    """The least margin of p(zeta) = l(h(zeta u))/zeta, l the functional of
    ``row``, over ``phases`` equally spaced points of each circle
    |zeta| = r, one per radius."""
    zeta = np.multiply.outer(np.asarray(radii), np.exp(2j * np.pi * np.arange(phases) / phases))
    p = (h.values(zeta.reshape(-1, 1) * u) @ row) / zeta.ravel()
    return image_margin(g, p).reshape(zeta.shape).min(axis=1)
