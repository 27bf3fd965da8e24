"""What only the tests use: a difference Jacobian for maps known only by
their values and the normalization check f(0) = 0, Df(0) = I (the two
oracles), a normalized form whose flow leaves the ball, one random M_g
member of a chosen number of blocks and one sampled schedule."""

import numpy as np

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import extremal_lab as el
from loewner_lab.errors import DomainError

_FD_STEP = 1e-5


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
