"""The three unit-ball realizations and their supporting linear functionals.

Supported geometries: the Euclidean ball of C^n (rank 1), the polydisc U^n
under the sup norm (rank n), and the 2x2 spectral ball (matrices of operator
norm < 1, rank 2).  Coordinates of the spectral ball follow the basis order
(E11, E22, E12, E21), so the two frame coordinates are the diagonal entries.

For a batch of nonzero points, ``support_functionals`` returns the
coefficient rows of finitely many norm-one functionals l per point, with
l(z) = ||z||, and the point each row belongs to; ``support_values`` applies
those rows to map values.  Because l -> l(h(z)) is affine and the image
regions used by the certification code are convex, testing these extreme
functionals suffices for membership checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def to_matrices(z) -> np.ndarray:
    """Spectral-ball coordinates -> stacked 2x2 matrices [[z1, z3], [z4, z2]]."""
    z = np.asarray(z, dtype=complex)
    m = np.empty(z.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = z[..., 0]
    m[..., 1, 1] = z[..., 1]
    m[..., 0, 1] = z[..., 2]
    m[..., 1, 0] = z[..., 3]
    return m


def from_matrices(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return np.stack([m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 1, 0]], axis=-1)


def _spectral_norms(z) -> np.ndarray:
    """Largest singular value of the 2x2 matrix [[a, c], [d, b]] of z.

    With p = |a|^2 + |c|^2, q = |d|^2 + |b|^2 and r = a conj(d) + c conj(b)
    (the Gram matrix of the rows), s_1^2 = (p + q + sqrt((p - q)^2 + 4|r|^2))
    / 2 sums nonnegative terms only, so it keeps full precision when the
    singular values nearly agree.  Only real products and sums appear (numpy
    rounds complex products differently in a batch), so a point rounds alone
    as it does inside a batch.
    """
    z = np.asarray(z, dtype=complex)
    xa, xb, xc, xd = np.moveaxis(z.real, -1, 0)
    ya, yb, yc, yd = np.moveaxis(z.imag, -1, 0)
    p = (xa * xa + ya * ya) + (xc * xc + yc * yc)
    q = (xd * xd + yd * yd) + (xb * xb + yb * yb)
    re = xa * xd + ya * yd + xc * xb + yc * yb
    im = ya * xd - xa * yd + yc * xb - xc * yb
    disc = np.sqrt((p - q) * (p - q) + 4.0 * (re * re + im * im))
    return np.sqrt(0.5 * (p + q + disc))


def norm(dom: BallGeometry, z):
    """Domain norm of z; accepts a single vector or a batch (..., n)."""
    z = _check_dim(dom, z)
    if dom.kind == EUCLIDEAN:
        out = np.linalg.norm(z, axis=-1)
    elif dom.kind == POLYDISC:
        out = np.max(np.abs(z), axis=-1)
    else:
        out = _spectral_norms(z)
    return out if out.shape else float(out)


def support_functionals(dom: BallGeometry, Z):
    """Extreme supporting functionals at each row of an (m, n) batch Z.

    Returns ``(L, owner)``: a (K, n) array of norm-one coefficient rows and
    the row of ``Z`` each belongs to, with ``L[k] @ Z[owner[k]]`` equal to
    ``||Z[owner[k]]||``.  Euclidean: conj(z)/||z||, one row per point, in
    point order.  Polydisc: one coordinate row per norm-attaining coordinate
    (ties within ``_TIE_TOL``), grouped by coordinate.  Spectral ball:
    coordinate rows for frame-diagonal points (ties within
    ``_DEGENERATE_TOL``), then one row u1^H W v1 per other point from its top
    singular pair; a degenerate top singular value among those raises
    ``DegenerateFunctionalError`` so the caller can resample.
    """
    L, owner, _ = _support_rows(dom, Z)
    return L, owner


def _support_rows(dom: BallGeometry, Z):
    """``support_functionals`` plus the norms of the rows of Z.  On the
    spectral ball these come from the diagonal or the SVD, the same numbers
    the functional rows are built from."""
    Z = _check_dim(dom, Z)
    if Z.ndim != 2:
        raise DomainError(f"support functionals take an (m, n) batch, got shape {Z.shape}")
    norms = np.asarray(norm(dom, Z))
    if np.any(norms == 0.0):
        raise DomainError("support functionals are undefined at z = 0")
    if dom.kind == EUCLIDEAN:
        return np.conj(Z) / norms[:, None], np.arange(Z.shape[0]), norms

    absz = np.abs(Z)
    if dom.kind == POLYDISC:
        attains = absz >= norms[:, None] - _TIE_TOL
        generic = np.empty(0, dtype=np.intp)
    else:
        diagonal = (absz[:, 2] < 1e-14) & (absz[:, 3] < 1e-14)
        norms = np.where(diagonal, absz[:, :2].max(axis=1), norms)
        attains = diagonal[:, None] & (absz[:, :2] >= norms[:, None] - _DEGENERATE_TOL)
        generic = np.flatnonzero(~diagonal)
    # coordinate rows, grouped by coordinate and in point order within a group
    coord, owner = np.nonzero(attains.T)
    L = np.zeros((coord.size + generic.size, dom.n), dtype=complex)
    L[np.arange(coord.size), coord] = absz[owner, coord] / Z[owner, coord]
    if generic.size:
        u, s, vh = np.linalg.svd(to_matrices(Z[generic]))
        if np.any(s[:, 0] - s[:, 1] < _DEGENERATE_TOL):
            raise DegenerateFunctionalError("degenerate top singular value; resample")
        norms[generic] = s[:, 0]
        u1, v1 = np.conj(u[:, :, 0]), np.conj(vh[:, 0, :])
        # l(w) = u1^H W v1 in the (E11, E22, E12, E21) coordinates
        L[coord.size:] = u1[:, [0, 1, 0, 1]]
        L[coord.size:] *= v1[:, [0, 1, 1, 0]]
        owner = np.concatenate([owner, generic])
    return L, owner, norms


def support_values(dom: BallGeometry, Z, H):
    """Batched values l_z(h(z)) / ||z|| over all extreme functionals.

    ``Z`` and ``H`` are (m, n) arrays of points and of map values at those
    points.  Returns ``(values, owner)`` where ``owner[k]`` is the row of
    ``Z`` that produced ``values[k]``, in the row order of
    ``support_functionals``; points with several extreme functionals
    contribute several values.
    """
    L, owner, norms = _support_rows(dom, Z)
    H = np.asarray(H, dtype=complex)
    return np.einsum("kn,kn->k", L, H[owner]) / norms[owner], owner


def sample_sphere(dom: BallGeometry, rng: np.random.Generator,
                  count: Optional[int] = None) -> np.ndarray:
    """Points of the unit sphere of the domain, deterministic under seed.

    Returns a ``(count, n)`` batch, or one point of shape ``(n,)`` when
    ``count`` is None.  Stream contract: a batch of k points equals k
    one-point calls on the same generator bit for bit, and leaves the
    generator in the same state (PCG64's cached 32-bit half included), so a
    caller may batch its draws without changing any seeded result.

    Polydisc samples put exactly one coordinate on the unit circle and cap
    the others at modulus 0.999, so ties in the sup norm have probability 0.
    """
    k = 1 if count is None else int(count)
    if dom.kind == EUCLIDEAN:
        draws = rng.standard_normal((k, 2, dom.n))
        v = draws[:, 0] + 1j * draws[:, 1]
        # one BLAS ddot per row and part, as np.linalg.norm does on one point
        # (einsum rounds differently)
        norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        out = v / norms[:, None]
    elif dom.kind == POLYDISC:
        out = _polydisc_sphere(dom.n, rng, k)
    else:
        draws = rng.standard_normal((k, 2, 2, 2))
        z = from_matrices(draws[:, 0] + 1j * draws[:, 1])
        out = z / _spectral_norms(z)[:, None]
    return out[0] if count is None else out


#: PCG64 doubles are (word >> 11) * 2**-53
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def _polydisc_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """One polydisc sphere point drawn call by call; ``_polydisc_sphere``
    reproduces this stream and falls back to it where it cannot."""
    k = int(rng.integers(n))
    z = _disc_uniform(rng, n, 0.999)
    z[k] = np.exp(2j * np.pi * rng.random())
    return z


def _polydisc_sphere(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` calls of ``_polydisc_point`` from one block of raw PCG64 words.

    Each point takes its coordinate index from a 32-bit half (Lemire's
    method, as ``rng.integers``): the low half of a fresh word, whose high
    half PCG64 caches for the next point, or that cached half.  Then come
    2n + 1 doubles.  A Lemire rejection (probability about n / 2**32) is
    replayed call by call after a rewind.
    """
    bitgen = rng.bit_generator
    if count == 0 or not isinstance(bitgen, np.random.PCG64):
        return np.array([_polydisc_point(n, rng) for _ in range(count)],
                        dtype=complex).reshape(count, n)
    saved = bitgen.state
    fresh = (np.arange(count) + saved["has_uint32"]) % 2 == 0
    per = 2 * n + 1
    start = np.arange(count) * per + np.cumsum(fresh) - fresh
    raw = bitgen.random_raw(int(fresh.sum()) + count * per)
    low, high = raw[start] & 0xFFFFFFFF, raw[start] >> 32
    half = np.where(fresh, low, np.roll(high, 1))
    if not fresh[0]:
        half[0] = saved["uinteger"]
    scaled = half * np.uint64(n)
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < (2**32 - n) % n)
    if rejected.size:
        r = int(rejected[0])
        bitgen.state = saved
        head = _polydisc_sphere(n, rng, r)
        point = _polydisc_point(n, rng)
        return np.vstack([head, point, _polydisc_sphere(n, rng, count - r - 1)])
    state = bitgen.state
    state["has_uint32"] = int(fresh[-1])
    state["uinteger"] = int(high[-1] if fresh[-1] else half[-1])
    bitgen.state = state
    u = (raw[(start + fresh)[:, None] + np.arange(per)] >> 11) * _DOUBLE_SCALE
    z = 0.999 * np.sqrt(u[:, :n]) * np.exp(2j * np.pi * u[:, n:2 * n])
    z[np.arange(count), (scaled >> 32).astype(np.intp)] = np.exp(2j * np.pi * u[:, 2 * n])
    return z


def sample_polydisc_edge(dom: BallGeometry, rng: np.random.Generator) -> np.ndarray:
    """Polydisc sphere point with two coordinates of modulus 1 (tie stress)."""
    if dom.kind != POLYDISC:
        raise DomainError("edge sampler is specific to the polydisc")
    i, j = rng.choice(dom.n, size=2, replace=False)
    z = _disc_uniform(rng, dom.n, 0.999)
    z[i] = np.exp(2j * np.pi * rng.random())
    z[j] = np.exp(2j * np.pi * rng.random())
    return z


def _disc_uniform(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def to_json(dom: BallGeometry) -> dict:
    return {"kind": dom.kind, "n": dom.n}


def from_json(payload: dict) -> BallGeometry:
    return BallGeometry(payload["kind"], int(payload["n"]))
