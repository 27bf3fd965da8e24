"""The three unit-ball realizations and their supporting linear functionals.

Supported geometries: the Euclidean ball of C^n (rank 1), the polydisc U^n
under the sup norm (rank n), and the 2x2 spectral ball (matrices of operator
norm < 1, rank 2).  Coordinates of the spectral ball follow the basis order
(E11, E22, E12, E21), so the two frame coordinates are the diagonal entries.

For a batch of nonzero points, ``support_functionals`` returns the
coefficient rows of finitely many norm-one functionals l per point, with
l(z) = ||z||, and the point each row belongs to; ``support_values`` applies
those rows to map values.  Because l -> l(h(z)) is affine and the image
regions used by the certification code are convex, testing every extreme
functional of a point would suffice for its membership check.  On the
polydisc and the Euclidean ball the rows are all of them.  On the spectral
ball they are not at a point with equal singular values, a scaled unitary
rho V: its extreme functionals are l_x(W) = x^H W V^H x for every unit x in
C^2, and a frame-diagonal point gets only its two coordinate rows (x = e1,
e2), while any other point whose singular values agree to within
``_DEGENERATE_TOL`` of its norm raises ``DegenerateFunctionalError``, a
numerical instability.  So spectral2 certification does not test those
faces and can pass a map outside M_g.  The canonical fields are unaffected:
their face values lie on a segment between two tested values, so the
certify reports on them stand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFunctionalError, DomainError

EUCLIDEAN = "euclidean"
POLYDISC = "polydisc"
SPECTRAL2 = "spectral2"

KINDS = (EUCLIDEAN, POLYDISC, SPECTRAL2)

#: Sharp constant multiplying d1(g) in the second-coefficient bounds: 1 on the
#: rank >= 2 frame geometries, 3*sqrt(3)/2 on the Euclidean ball.
EUCLIDEAN_SHEAR_FACTOR = 3.0 * np.sqrt(3.0) / 2.0

_TIE_TOL = 1e-12
_DEGENERATE_TOL = 1e-10


@dataclass(frozen=True)
class BallGeometry:
    """One of the three unit-ball realizations."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown ball geometry {self.kind!r}")
        if self.kind == EUCLIDEAN and self.n < 1:
            raise DomainError("euclidean ball needs n >= 1")
        if self.kind == POLYDISC and self.n < 2:
            raise DomainError("polydisc needs n >= 2")
        if self.kind == SPECTRAL2 and self.n != 4:
            raise DomainError("spectral2 is the 2x2 matrix ball, n = 4")

    @property
    def rank(self) -> int:
        if self.kind == EUCLIDEAN:
            return 1
        if self.kind == POLYDISC:
            return self.n
        return 2

    @property
    def frame_coords(self) -> tuple:
        """1-based coordinate indices carrying the frame (empty for rank 1)."""
        if self.kind == EUCLIDEAN:
            return ()
        if self.kind == POLYDISC:
            return tuple(range(1, self.n + 1))
        return (1, 2)

    @property
    def shear_factor(self) -> float:
        return EUCLIDEAN_SHEAR_FACTOR if self.kind == EUCLIDEAN else 1.0


def euclidean(n: int) -> BallGeometry:
    return BallGeometry(EUCLIDEAN, n)


def polydisc(n: int) -> BallGeometry:
    return BallGeometry(POLYDISC, n)


def spectral2() -> BallGeometry:
    return BallGeometry(SPECTRAL2, 4)


def _check_dim(dom: BallGeometry, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != dom.n:
        raise DomainError(f"expected vectors of length {dom.n}, got shape {z.shape}")
    return z


# The spectral ball in closed form.  Only real products and sums appear
# (numpy rounds complex products differently in a batch), so a point rounds
# alone as it does inside a batch.


def _parts(z):
    """Real and imaginary parts of the matrix entries (a, b, c, d) of z."""
    z = np.asarray(z, dtype=complex)
    return np.moveaxis(z.real, -1, 0), np.moveaxis(z.imag, -1, 0)


def _conj_mul(xr, xi, yr, yi):
    """conj(x) * y from real and imaginary parts."""
    return xr * yr + xi * yi, xr * yi - xi * yr


def _row_gram(z):
    """Row Gram matrix [[p, r], [conj(r), q]] of the 2x2 matrix [[a, c], [d, b]]
    of z: p = |a|^2 + |c|^2, q = |d|^2 + |b|^2, r = a conj(d) + c conj(b) =
    re + i im.  Returns ``p, q, re, im, disc`` with disc = sqrt((p - q)^2 +
    4|r|^2) = lambda_1 - lambda_2, a sum of nonnegative terms."""
    (xa, xb, xc, xd), (ya, yb, yc, yd) = _parts(z)
    p = (xa * xa + ya * ya) + (xc * xc + yc * yc)
    q = (xd * xd + yd * yd) + (xb * xb + yb * yb)
    re = xa * xd + ya * yd + xc * xb + yc * yb
    im = ya * xd - xa * yd + yc * xb - xc * yb
    disc = np.sqrt((p - q) * (p - q) + 4.0 * (re * re + im * im))
    return p, q, re, im, disc


def _top_singular(gram) -> np.ndarray:
    """Largest singular value s1 = sqrt((p + q + disc) / 2) from the parts
    ``_row_gram`` returns: no cancellation when the singular values nearly
    agree."""
    p, q, _, _, disc = gram
    return np.sqrt(0.5 * (p + q + disc))


def _singular_gap(z, s1, disc) -> np.ndarray:
    """s1 - s2 = disc / (s1 + s2) with s2 = |det| / s1, so that no
    difference of nearby numbers is taken."""
    (xa, xb, xc, xd), (ya, yb, yc, yd) = _parts(z)
    det_re = (xa * xb - ya * yb) - (xc * xd - yc * yd)
    det_im = (xa * yb + ya * xb) - (xc * yd + yc * xd)
    s2 = np.sqrt(det_re * det_re + det_im * det_im) / s1
    return disc / (s1 + s2)


def _top_functionals(z, s1, gram) -> np.ndarray:
    """Rows of l(W) = u1^H W v1 from the top singular pair of each z (norms
    ``s1``, row Gram parts ``gram`` from ``_row_gram``); a gap s1 - s2 below
    ``_DEGENERATE_TOL`` times s1 raises ``DegenerateFunctionalError`` before
    any division by it.

    u1 is the top eigenvector of the row Gram matrix: (lambda_1 - q, conj(r))
    when p >= q, else (r, lambda_1 - p), so its large entry is a sum of
    nonnegative terms; then v1 = M^H u1 / s1."""
    p, q, re, im, disc = gram
    if np.any(_singular_gap(z, s1, disc) < _DEGENERATE_TOL * s1):
        raise DegenerateFunctionalError(
            "spectral point with equal singular values: its extreme functionals form a "
            "face, which is not enumerated")
    (xa, xb, xc, xd), (ya, yb, yc, yd) = _parts(z)
    top = 0.5 * (np.abs(p - q) + disc)
    first = p >= q
    size = np.sqrt(top * top + (re * re + im * im))
    u = ((np.where(first, top, re) / size, np.where(first, 0.0, im) / size),
         (np.where(first, re, top) / size, np.where(first, -im, 0.0) / size))
    # M^H u1 = (conj(a) u0 + conj(d) u1, conj(c) u0 + conj(b) u1)
    v = []
    for (xr, xi), (yr, yi) in (((xa, ya), (xd, yd)), ((xc, yc), (xb, yb))):
        r0, i0 = _conj_mul(xr, xi, *u[0])
        r1, i1 = _conj_mul(yr, yi, *u[1])
        v.append(((r0 + r1) / s1, (i0 + i1) / s1))
    # (E11, E22, E12, E21) coordinates: conj(u0) v0, conj(u1) v1, conj(u0) v1, conj(u1) v0
    L = np.empty(top.shape + (4,), dtype=complex)
    for k, (i, j) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):
        L.real[..., k], L.imag[..., k] = _conj_mul(*u[i], *v[j])
    return L


def norm(dom: BallGeometry, z):
    """Domain norm of z; accepts a single vector or a batch (..., n)."""
    z = _check_dim(dom, z)
    if dom.kind == EUCLIDEAN:
        out = np.linalg.norm(z, axis=-1)
    elif dom.kind == POLYDISC:
        out = _row_max(np.abs(z))
    else:
        out = _top_singular(_row_gram(z))
    return out if out.shape else float(out)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry along the last axis, taken column by column: the same
    values as ``a.max(axis=-1)``, which on a short axis costs about 30 times
    more (a certify block of 8192 rows of three moduli: 14 us against 450 us)."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., k])
    return out


def support_functionals(dom: BallGeometry, Z):
    """Extreme supporting functionals at each row of an (m, n) batch Z.

    Returns ``(L, owner)``: a (K, n) array of norm-one coefficient rows and
    the row of ``Z`` each belongs to, with ``L[k] @ Z[owner[k]]`` equal to
    ``||Z[owner[k]]||``.  Euclidean: conj(z)/||z||, one row per point, in
    point order.  Polydisc: one coordinate row per norm-attaining coordinate
    (ties within ``_TIE_TOL`` of the norm), grouped by coordinate.  Spectral
    ball: coordinate rows for frame-diagonal points (ties within
    ``_DEGENERATE_TOL`` of the norm), then one row u1^H W v1 per other point
    from its top singular pair in closed form (``_top_functionals``); a gap
    s1 - s2 below ``_DEGENERATE_TOL`` of the norm among those raises
    ``DegenerateFunctionalError``.  Every tolerance is relative, so a point
    gets the same rows at any nonzero scale.
    """
    Z, norms, coord, owner, phase, generic, gram = _attaining(dom, Z)
    if coord is None:
        return np.conj(Z) / norms[:, None], np.arange(Z.shape[0])
    L = np.zeros((coord.size + generic.size, dom.n), dtype=complex)
    L[np.arange(coord.size), coord] = phase
    if generic.size:
        L[coord.size:] = _top_functionals(_rows(Z, generic), _rows(norms, generic), gram)
        owner = np.concatenate([owner, generic])
    return L, owner


def _attaining(dom: BallGeometry, Z):
    """Shared prologue of ``support_functionals`` and ``support_values``:
    ``(Z, norms, coord, owner, phase, generic, gram)``.  ``norms`` are
    ``norm``'s, except that a frame-diagonal spectral point takes its larger
    diagonal modulus.  Coordinate row k is ``phase[k]`` = |z_c|/z_c at
    c = ``coord[k]`` of point ``owner[k]``, grouped by coordinate; the
    ``generic`` spectral points take top-pair rows from their ``gram`` parts.
    The Euclidean ball has neither (all five None).

    The polydisc takes its moduli once, for the norms and the tie test.  A
    spectral point is frame-diagonal when both off-diagonal moduli are below
    1e-14 of its larger diagonal modulus; a block takes the row Gram of its
    other rows only, and a sampled block has no frame-diagonal row, so
    ``_rows`` hands it over without a copy."""
    Z = _check_dim(dom, Z)
    if Z.ndim != 2:
        raise DomainError(f"support functionals take an (m, n) batch, got shape {Z.shape}")
    generic, gram = np.empty(0, dtype=np.intp), None
    if dom.kind == EUCLIDEAN:
        norms = np.asarray(norm(dom, Z))
    elif dom.kind == POLYDISC:
        absz = np.abs(Z)
        norms = _row_max(absz)
        attains = absz >= norms[:, None] * (1.0 - _TIE_TOL)
    else:
        absz = np.abs(Z[:, :2])
        norms = _row_max(absz)
        diagonal = _row_max(np.abs(Z[:, 2:])) < 1e-14 * norms
        generic = np.flatnonzero(~diagonal)
        gram = _row_gram(_rows(Z, generic))
        attains = diagonal[:, None] & (absz >= norms[:, None] * (1.0 - _DEGENERATE_TOL))
        norms[generic] = _top_singular(gram)
    if np.any(norms == 0.0):
        raise DomainError("support functionals are undefined at z = 0")
    if dom.kind == EUCLIDEAN:
        return Z, norms, None, None, None, None, None
    coord, owner = np.divmod(np.flatnonzero(attains.T), len(Z))
    return Z, norms, coord, owner, absz[owner, coord] / Z[owner, coord], generic, gram


def _rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` for sorted distinct row indices, without a copy when they
    are all the rows."""
    return a if len(index) == len(a) else a[index]


def support_values(dom: BallGeometry, Z, H):
    """Batched values l_z(h(z)) / ||z|| over all extreme functionals.

    ``Z`` and ``H`` are (m, n) arrays of points and of map values at those
    points.  Returns ``(values, owner)`` where ``owner[k]`` is the row of
    ``Z`` that produced ``values[k]``, in the row order of
    ``support_functionals``; points with several extreme functionals
    contribute several values.  Only generic spectral points build rows; a
    coordinate row is a gather of H (einsum rounds as a dense row would).
    """
    Z, norms, coord, owner, phase, generic, gram = _attaining(dom, Z)
    H = np.asarray(H, dtype=complex)
    if coord is None:
        return np.einsum("kn,kn->k", np.conj(Z) / norms[:, None], H) / norms, np.arange(len(Z))
    values = np.einsum("k,k->k", phase, H[owner, coord]) / norms[owner]
    if generic.size:
        scale = _rows(norms, generic)
        top = np.einsum("kn,kn->k", _top_functionals(_rows(Z, generic), scale, gram),
                        _rows(H, generic)) / scale
        values = np.concatenate([values, top])
        owner = np.concatenate([owner, generic])
    return values, owner


def sample_sphere(dom: BallGeometry, rng: np.random.Generator, count: int) -> np.ndarray:
    """A ``(count, n)`` batch of points of the unit sphere of the domain,
    deterministic under seed: ``sphere_blocks`` taken in one block.

    Polydisc samples put exactly one coordinate on the unit circle and cap
    the others at modulus 0.999, so ties in the sup norm have probability 0.
    """
    batches = list(sphere_blocks(dom, rng, count, max(count, 1)))
    return batches[0] if batches else np.empty((0, dom.n), dtype=complex)


def sphere_blocks(dom: BallGeometry, rng: np.random.Generator, count: int, block: int):
    """``count`` points of the unit sphere of the domain, drawn and yielded
    in consecutive batches of at most ``block`` rows.

    Whatever the block size, the batches hold the rows of one
    ``sample_sphere(dom, rng, count)`` call bit for bit and leave ``rng`` in
    the same state: doubles and normals continue from one draw to the next,
    and each row is computed from its own draws alone.  Integer draws do not
    continue across calls, so the polydisc draws the indices of all
    ``count`` rows before the first batch (see ``_polydisc_blocks``).
    """
    if dom.kind == POLYDISC:
        yield from _polydisc_blocks(dom.n, rng, count, 1, block)
        return
    shape = (2, dom.n) if dom.kind == EUCLIDEAN else (2, 2, 2)
    for start in range(0, count, block):
        yield _unit_rows(dom, rng.standard_normal((min(block, count - start),) + shape))


def _unit_rows(dom: BallGeometry, draws: np.ndarray) -> np.ndarray:
    """Sphere points from normal draws, each row divided by its norm s: a
    Euclidean row draws (2, n) real and imaginary parts of a vector, a
    spectral row (2, 2, 2) parts of a 2x2 matrix.  The rows are filled part
    by part (no complex product)."""
    if dom.kind == EUCLIDEAN:
        z = np.empty(draws.shape[:1] + draws.shape[2:], dtype=complex)
        z.real, z.imag = draws[:, 0], draws[:, 1]
        # one BLAS ddot per row and part, as np.linalg.norm does on one
        # point (einsum rounds differently)
        s = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    else:
        z = np.empty((len(draws), 4), dtype=complex)
        for k, (i, j) in enumerate(((0, 0), (1, 1), (0, 1), (1, 0))):  # E11, E22, E12, E21
            z.real[:, k], z.imag[:, k] = draws[:, 0, i, j], draws[:, 1, i, j]
        s = _top_singular(_row_gram(z))
    # z / s in place: numpy divides a complex by a real as both parts times
    # its reciprocal
    parts = z.view(np.float64)
    parts *= (1.0 / s)[:, None]
    return z


def _polydisc_blocks(n: int, rng: np.random.Generator, count: int, on_circle: int,
                     block: int):
    """``count`` points uniform in the polydisc of radius 0.999, with
    ``on_circle`` (1 or 2) distinct coordinates moved to the unit circle,
    in batches of at most ``block`` rows.

    Draws the indices of all rows first (for two, the second is the first
    plus a uniform shift on [1, n - 1], so every ordered pair is equally
    likely), then per batch one (rows, 2n + on_circle) block of doubles
    whose rows hold n radii, n phases and the phases of the unit-circle
    coordinates."""
    index = [rng.integers(n, size=count)]
    if on_circle == 2:
        index.append((index[0] + rng.integers(1, n, size=count)) % n)
    for start in range(0, count, block):
        m = min(block, count - start)
        yield _polydisc_rows(n, rng.random((m, 2 * n + on_circle)),
                             [k[start:start + m] for k in index])


def _polydisc_rows(n: int, u: np.ndarray, index: list) -> np.ndarray:
    """The points of one batch of ``_polydisc_blocks`` from its doubles
    ``u`` and the unit-circle coordinates ``index`` of its rows: radius 1
    and the circle phase are set first, then each coordinate takes one
    complex exponential (1.0 times it keeps its bits)."""
    radius, phase = 0.999 * np.sqrt(u[:, :n]), u[:, n:2 * n].copy()
    rows = np.arange(len(u))
    for c, k in enumerate(index):
        radius[rows, k] = 1.0
        phase[rows, k] = u[:, 2 * n + c]
    return radius * np.exp(2j * np.pi * phase)


def polydisc_edge_blocks(dom: BallGeometry, rng: np.random.Generator, count: int, block: int):
    """``count`` polydisc sphere points with two coordinates of modulus 1
    (tie stress), in batches of at most ``block`` rows, drawn as they are
    taken: as for ``sphere_blocks``, the rows and the state ``rng`` is left
    in do not depend on the block size."""
    if dom.kind != POLYDISC:
        raise DomainError("edge sampler is specific to the polydisc")
    return _polydisc_blocks(dom.n, rng, count, 2, block)


def from_json(payload: dict) -> BallGeometry:
    """The ``domain`` entry of an experiment config: ``n`` is an int (not a
    bool) or an integer string such as "3"."""
    n = payload["n"]
    if isinstance(n, str):
        try:
            n = int(n)
        except ValueError:
            pass
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, not {payload['n']!r}")
    return BallGeometry(payload["kind"], n)
