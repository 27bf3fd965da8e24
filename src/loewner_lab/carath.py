"""Holomorphic self-maps of the ball and the image-constraint certifier.

Maps come in three representations: sparse polynomial tables, composite
generators and black-box evaluators.  All evaluators are batched: ``values``
takes an (m, n) array of points.

A composite generator is held as a ``FlatForm``: a linear part (``w0``
times the identity, or a matrix ``lin``), one block of g(l(z))*z terms per
disc function (weights ``W``, functionals ``Lmat``) and monomials grouped
by degree, so one evaluation is a few array operations however many terms
the map has.  ``identity_map`` and ``disc_multiple_map`` build the forms of
the building blocks, and ``convex_combination`` sums forms part by part.  A
polynomial table is evaluated through the form it lowers to.

``second_coeff`` extracts the second-order Taylor data at the origin through
Cauchy integrals discretized as 64-point DFTs on circles (a mixed coefficient
from the two circles through e_p + e_q and e_p - e_q), with a dual-radius
consistency check.  ``certify_Mg`` tests, by structured and Monte-Carlo
sampling, that all supporting values l_z(h(z))/||z|| of a normalized map lie
in the image g(U).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import ball_geometry as bg
from . import disc_functions as df
from .errors import (
    DegenerateFunctionalError,
    DomainError,
    NumericalInstabilityError,
    ReducedPrecisionWarning,
    UnsupportedError,
)

PURE = "pure"
MIXED = "mixed"

#: radii used for the random certification samples
RADIUS_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
#: radii and per-axis phase count of the structured certification tori
TORUS_RADII = (0.9, 0.99, 0.999)
TORUS_PHASES = 64
#: smallest gap between the two singular values of a spectral sphere sample;
#: it must survive scaling by the smallest ladder radius (0.1) and stay above
#: the 1e-10 at which ``support_values`` calls a point degenerate
SPECTRAL_GAP = 1e-8

_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# the array form of polynomial and composite maps


def _products(Z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(m, T) array whose column t is prod_p Z[:, idx[t, p]] (ones for an
    empty product)."""
    if idx.shape[1] == 0:
        return np.ones((Z.shape[0], idx.shape[0]), dtype=complex)
    out = Z[:, idx[:, 0]]
    for p in range(1, idx.shape[1]):
        out = out * Z[:, idx[:, p]]
    return out


def _add(out: Optional[np.ndarray], part: np.ndarray) -> np.ndarray:
    """out + part, in place; the first part present starts the sum rather
    than a zero array."""
    if out is None:
        return part
    out += part
    return out


@dataclass(frozen=True, eq=False)
class FlatForm:
    """A map as arrays:

        w0 * Z  (or Z @ lin.T)  + sum_g (g(Z @ Lmat.T) @ W)[:, None] * Z
        + monomials(Z)

    A linear part that is a multiple of the identity, as in every generator
    the scans sample, is kept as the scalar ``w0``: an elementwise product
    is cheaper than a complex matmul at every batch size, and never wakes
    a multi-threaded BLAS on large certification batches.
    ``disc`` holds one (g, Lmat (k, n), W (k,)) block per disc function.
    ``monomials`` holds the terms of degree != 1, one group per degree d:
    (idx (T, d) variable indices, coef (T,), comp (T,) output components).
    Absent parts are skipped; every temporary is O(m * (n + T)).
    """

    w0: Optional[complex]
    lin: Optional[np.ndarray]
    disc: Tuple[Tuple[df.DiscFunction, np.ndarray, np.ndarray], ...]
    monomials: Tuple[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]], ...]

    def values(self, Z: np.ndarray) -> np.ndarray:
        out = None
        if self.w0 is not None:
            out = self.w0 * Z
        elif self.lin is not None:
            out = Z @ self.lin.T
        for g, lmat, w in self.disc:
            out = _add(out, (df._eval_raw(g, Z @ lmat.T) @ w)[:, None] * Z)
        for idx, coef, comp in self.monomials:
            terms = _products(Z, idx) * coef
            if out is None:
                out = np.zeros_like(Z)
            # column by column: a scatter matmul would add an (m, n) temporary
            for t, c in enumerate(comp):
                out[:, c] += terms[:, t]
        return np.zeros_like(Z) if out is None else out

    def jacobian_batch(self, Z: np.ndarray) -> np.ndarray:
        m, n = Z.shape
        J = np.zeros((m, n, n), dtype=complex)
        if self.w0 is not None:
            J += self.w0 * np.eye(n)
        elif self.lin is not None:
            J += self.lin
        for g, lmat, w in self.disc:
            lz = Z @ lmat.T
            gp = df.derivative(g, lz.ravel()).reshape(lz.shape)
            J += (df._eval_raw(g, lz) @ w)[:, None, None] * np.eye(n)
            J += Z[:, :, None] * ((gp * w) @ lmat)[:, None, :]
        flat = J.reshape(m, n * n)
        for idx, coef, comp in self.monomials:
            comp = np.asarray(comp, dtype=int)
            # d/dz of a product: drop one factor at a time
            for p in range(idx.shape[1]):
                part = _products(Z, np.delete(idx, p, axis=1)) * coef
                flat += part @ np.eye(n * n, dtype=complex)[comp * n + idx[:, p]]
        return J


class _Lowering:
    """Sums weighted polynomial tables and forms into the parts of one
    FlatForm, term by term in the order they are added."""

    def __init__(self, n: int):
        self.n = n
        self.lin = np.zeros((n, n), dtype=complex)
        self.disc: dict = {}    # g -> [(functional rows, weights)]
        self.terms: dict = {}   # (component, sorted variable indices) -> coefficient

    def add_term(self, comp: int, idx: Tuple[int, ...], c: complex) -> None:
        if len(idx) == 1:
            self.lin[comp, idx[0]] += c
        else:
            self.terms[(comp, idx)] = self.terms.get((comp, idx), 0.0) + c

    def add_table(self, terms: dict, w: complex) -> None:
        for (comp, exps), c in terms.items():
            idx = tuple(k for k, e in enumerate(exps) for _ in range(e))
            self.add_term(comp - 1, idx, w * c)

    def add_form(self, form: FlatForm, w: complex) -> None:
        if form.w0 is not None:
            self.lin += w * form.w0 * np.eye(self.n)
        elif form.lin is not None:
            self.lin += w * form.lin
        for g, lmat, W in form.disc:
            self.disc.setdefault(g, []).append((lmat, w * W))
        for idx, coef, comp in form.monomials:
            for key, c, i in zip(idx.tolist(), coef, comp):
                self.add_term(i, tuple(key), w * c)

    def form(self) -> FlatForm:
        n = self.n
        disc = tuple((g, np.concatenate([lmat for lmat, _ in blocks]),
                      np.concatenate([w for _, w in blocks]))
                     for g, blocks in self.disc.items())
        by_degree: dict = {}
        for (comp, idx), c in self.terms.items():
            if c != 0:
                by_degree.setdefault(len(idx), []).append((comp, idx, c))
        monomials = []
        for d, group in sorted(by_degree.items()):
            monomials.append((np.array([t[1] for t in group], dtype=int).reshape(len(group), d),
                              np.array([t[2] for t in group], dtype=complex),
                              tuple(t[0] for t in group)))
        lin, w0 = self.lin, complex(self.lin[0, 0])
        if np.array_equal(lin, w0 * np.eye(n)):  # w0 times the identity, maybe zero
            lin, w0 = None, (w0 or None)
        else:
            w0 = None
        return FlatForm(w0, lin, disc, tuple(monomials))


# ---------------------------------------------------------------------------
# map representations


class HolMap:
    """Base class; concrete maps implement batched values and Jacobians."""

    domain: bg.BallGeometry
    normalized: bool

    def values(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class PolynomialMap(HolMap):
    """Sparse polynomial map: terms[(component, exponents)] = coefficient.

    Components are 1-based, exponents are tuples of length n.  Evaluation
    goes through the lowered FlatForm of the table; editing ``terms`` in
    place re-lowers it on the next evaluation.
    """

    def __init__(self, terms: Dict[Tuple[int, Tuple[int, ...]], complex],
                 domain: bg.BallGeometry, normalized: bool = False, label: str = ""):
        self.terms = {key: complex(c) for key, c in terms.items() if c != 0}
        self.domain = domain
        self.normalized = normalized
        self.label = label
        self._lowered_terms: Optional[dict] = None
        self._form: Optional[FlatForm] = None

    @property
    def form(self) -> FlatForm:
        if self.terms != self._lowered_terms:
            self._lowered_terms = dict(self.terms)
            lowering = _Lowering(self.domain.n)
            lowering.add_table(self.terms, 1.0)
            self._form = lowering.form()
        return self._form

    def values(self, Z):
        return self.form.values(np.asarray(Z, dtype=complex))

    def jacobian_batch(self, Z):
        return self.form.jacobian_batch(np.asarray(Z, dtype=complex))

    def coefficient(self, comp: int, exps: Tuple[int, ...]) -> complex:
        """Exact table lookup (the analytic oracle for coefficient tests)."""
        return self.terms.get((comp, tuple(exps)), 0.0 + 0.0j)

    def describe(self):
        return self.label or f"polynomial[{len(self.terms)} terms]"


class BlackBoxMap(HolMap):
    """Map given only by an evaluator; Jacobians use 4th-order differences."""

    def __init__(self, fn, domain: bg.BallGeometry, normalized: bool = False,
                 label: str = "black_box", provenance=None):
        self.fn = fn
        self.domain = domain
        self.normalized = normalized
        self.label = label
        self.provenance = provenance

    def values(self, Z):
        return np.asarray(self.fn(np.asarray(Z, dtype=complex)), dtype=complex)

    def jacobian_batch(self, Z):
        Z = np.asarray(Z, dtype=complex)
        m, n = Z.shape
        h = _FD_STEP
        offsets = np.array([2 * h, h, -h, -2 * h])
        pts = np.repeat(Z[:, None, None, :], n, axis=1).repeat(4, axis=2)
        for k in range(n):
            pts[:, k, :, k] += offsets
        vals = self.values(pts.reshape(-1, n)).reshape(m, n, 4, n)
        # d/dz_k along the real direction equals the complex derivative
        deriv = (-vals[:, :, 0] + 8 * vals[:, :, 1] - 8 * vals[:, :, 2] + vals[:, :, 3]) / (12 * h)
        return np.swapaxes(deriv, 1, 2)

    def describe(self):
        return self.label


class CompositeMap(HolMap):
    """A generator held as its array form: a combination of the identity,
    g(l(z))*z blocks and polynomial terms, evaluated through ``form``."""

    def __init__(self, form: FlatForm, domain: bg.BallGeometry, normalized: bool = False,
                 label: str = ""):
        self.form = form
        self.domain = domain
        self.normalized = normalized
        self.label = label

    def values(self, Z):
        return self.form.values(np.asarray(Z, dtype=complex))

    def jacobian_batch(self, Z):
        return self.form.jacobian_batch(np.asarray(Z, dtype=complex))

    def describe(self):
        return self.label or "composite"


def identity_map(dom: bg.BallGeometry) -> CompositeMap:
    return CompositeMap(FlatForm(1.0 + 0.0j, None, (), ()), dom, normalized=True,
                        label="identity")


def disc_multiple_map(g: df.DiscFunction, functional: bg.LinearFunctional,
                      dom: bg.BallGeometry) -> CompositeMap:
    """z -> g(l(z)) * z for a disc function g and a norm-one functional l."""
    block = (g, np.array([functional.coeffs], dtype=complex), np.ones(1, dtype=complex))
    return CompositeMap(FlatForm(None, None, (block,), ()), dom, normalized=True,
                        label=f"{df.describe(g)}(l(z))*z")


def convex_combination(maps: Sequence[HolMap], weights: Sequence[float]) -> CompositeMap:
    """Convex combination of normalized maps (itself normalized), summed
    part by part from the maps' array forms."""
    weights = np.asarray(weights, dtype=float)
    if len(maps) != len(weights):
        raise DomainError(f"{len(maps)} maps but {len(weights)} weights")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise DomainError("weights must be nonnegative and sum to 1")
    dom = maps[0].domain
    if any(m.domain != dom for m in maps):
        raise DomainError("maps of a combination must share one domain")
    lowering = _Lowering(dom.n)
    for m, w in zip(maps, weights):
        if not isinstance(m, (PolynomialMap, CompositeMap)):
            raise UnsupportedError(f"{m.describe()} has no array form")
        lowering.add_form(m.form, complex(w))
    return CompositeMap(lowering.form(), dom, normalized=all(m.normalized for m in maps),
                        label=f"combo[{', '.join(m.describe() for m in maps)}]")


# ---------------------------------------------------------------------------
# evaluation and normalization checks


def evaluate(f: HolMap, z):
    """Value of f at a point (or batch) of the open unit ball."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    Z = z[None, :] if single else z
    if np.any(np.asarray(bg.norm(f.domain, Z)) >= 1.0):
        raise DomainError("point outside the open unit ball")
    out = f.values(Z)
    return out[0] if single else out


def jacobian(f: HolMap, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return f.jacobian_batch(z[None, :])[0]


def assert_normalized(f: HolMap, tol_value: float = 1e-12, tol_jac: float = 1e-8):
    """Check f(0) = 0 and Df(0) = I within the stated tolerances."""
    zero = np.zeros((1, f.domain.n), dtype=complex)
    v0 = np.linalg.norm(f.values(zero)[0])
    if v0 >= tol_value:
        raise DomainError(f"map is not normalized: |f(0)| = {v0:.3e}")
    j0 = f.jacobian_batch(zero)[0]
    dev = np.abs(j0 - np.eye(f.domain.n)).max()
    if dev >= tol_jac:
        raise DomainError(f"map is not normalized: |Df(0) - I| = {dev:.3e}")


# ---------------------------------------------------------------------------
# second-order coefficients at the origin


def _check_pair(dom: bg.BallGeometry, i: int, j: int, need_distinct: bool = True):
    if not (1 <= i <= dom.n and 1 <= j <= dom.n):
        raise DomainError(f"indices ({i}, {j}) out of range for n = {dom.n}")
    if need_distinct and i == j:
        raise DomainError("indices must be distinct")
    if dom.rank >= 2:
        frame = dom.frame_coords
        if i not in frame or j not in frame:
            raise DomainError(f"indices ({i}, {j}) must lie in the frame {frame}")


def _reconcile(c_main: complex, c_check: complex, what: str) -> complex:
    gap = abs(c_main - c_check)
    if gap > 1e-4:
        raise NumericalInstabilityError(
            f"{what}: coefficient estimates disagree by {gap:.3e} between radii"
        )
    if gap > 1e-8:
        warnings.warn(
            ReducedPrecisionWarning(f"{what}: coefficient estimates agree only to {gap:.3e}")
        )
    return c_main


def second_coeff_bundle(f: HolMap, requests, rho: float = 0.4, rho_check: float = 0.2) -> dict:
    """Extract several second-order coefficients from one batched evaluation.

    ``requests`` is an iterable of (i, j, kind).  All circles (128 points per
    pure axis, 256 per mixed pair) go into a single ``values`` call, which
    matters for black-box maps whose evaluation integrates an ODE.
    """
    requests = list(requests)
    n = f.domain.n
    for i, j, kind in requests:
        if kind not in (PURE, MIXED):
            raise DomainError(f"unknown coefficient kind {kind!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"indices ({i}, {j}) out of range for n = {n}")
        if kind == MIXED and i == j:
            raise DomainError("mixed coefficient needs i != j")

    radii = (rho, rho_check)
    m_axis = 64
    theta_axis = 2.0 * np.pi * np.arange(m_axis) / m_axis
    circle = np.exp(1j * theta_axis)

    axes = sorted({j for i, j, kind in requests if kind == PURE})
    pairs = sorted({tuple(sorted((i, j))) for i, j, kind in requests if kind == MIXED})
    # one circle r e^{i theta} u per direction u = e_p + s e_q (e_p if q is None)
    directions = [(j, None, 1.0) for j in axes]
    directions += [(p, q, s) for p, q in pairs for s in (1.0, -1.0)]

    blocks, layout = [], {}
    for p, q, s in directions:
        for r in radii:
            Z = np.zeros((m_axis, n), dtype=complex)
            Z[:, p - 1] = r * circle
            if q is not None:
                Z[:, q - 1] = s * r * circle
            layout[(p, q, s, r)] = len(blocks) * m_axis
            blocks.append(Z)
    vals = f.values(np.vstack(blocks))

    phase_axis = np.exp(-2j * theta_axis)

    def dft(comp, p, q, s, r):
        k0 = layout[(p, q, s, r)]
        return complex((vals[k0:k0 + m_axis, comp - 1] * phase_axis).mean() / r**2)

    out = {}
    for i, j, kind in requests:
        got = []
        for r in radii:
            if kind == PURE:
                got.append(dft(i, j, None, 1.0, r))
            else:
                p, q = sorted((i, j))
                got.append((dft(i, p, q, 1.0, r) - dft(i, p, q, -1.0, r)) / 2)
        out[(i, j, kind)] = _reconcile(got[0], got[1], f"{kind}({i},{j})")
    return out


def second_coeff(f: HolMap, i: int, j: int, kind: str,
                 rho: float = 0.4, rho_check: float = 0.2) -> complex:
    """Second-order Taylor data of f at 0.

    ``pure`` returns the coefficient of z_j^2 in component i, i.e.
    (1/2) d^2 f_i / d z_j^2 (0), from a 64-point Cauchy DFT on the circle of
    radius ``rho``.  ``mixed`` (i != j) returns the coefficient of z_i z_j in
    component i, i.e. d^2 f_i / (d z_i d z_j) (0), from the same DFT on the
    circles rho e^{i theta} (e_i +- e_j), which lie on the 2-torus
    |z_i| = |z_j| = rho.  There the degree-2 part of f_i is
    Q_ii +- Q_ij + Q_jj (Q_ab the coefficient of z_a z_b), so the two DFT
    values c+ and c- give Q_ij = (c+ - c-) / 2, with no term of degree below
    66 aliased in.  Both kinds are recomputed at ``rho_check``; disagreement
    beyond 1e-8 triggers a ReducedPrecisionWarning, beyond 1e-4 a
    NumericalInstabilityError.
    """
    return second_coeff_bundle(f, [(i, j, kind)], rho=rho, rho_check=rho_check)[(i, j, kind)]


def shear(h: HolMap, i: int, j: int) -> PolynomialMap:
    """Linear part of h plus its single pure z_j^2 term in component i."""
    _check_pair(h.domain, i, j)
    n = h.domain.n
    zero = np.zeros((1, n), dtype=complex)
    if np.linalg.norm(h.values(zero)[0]) > 1e-10:
        raise DomainError("shearing needs h(0) = 0")
    c = second_coeff(h, i, j, PURE)
    terms: Dict[Tuple[int, Tuple[int, ...]], complex] = {}
    if h.normalized:
        D = np.eye(n, dtype=complex)
    else:
        D = h.jacobian_batch(zero)[0]
    for a in range(n):
        for b in range(n):
            if D[a, b] != 0:
                exps = tuple(1 if k == b else 0 for k in range(n))
                terms[(a + 1, exps)] = terms.get((a + 1, exps), 0.0) + D[a, b]
    exps = tuple(2 if k == j - 1 else 0 for k in range(n))
    terms[(i, exps)] = terms.get((i, exps), 0.0) + c
    label = f"shear_{i}{j}[{h.describe()}]"
    return PolynomialMap(terms, h.domain, normalized=h.normalized, label=label)


def canonical_field(g: df.DiscFunction, dom: bg.BallGeometry, i: int, j: int,
                    sign: int) -> PolynomialMap:
    """The sharp quadratic field z + sign * factor * d1(g) * z_j^2 e_i.

    ``factor`` is 1 on the rank >= 2 frame geometries and 3*sqrt(3)/2 on the
    Euclidean ball.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    _check_pair(dom, i, j)
    c = sign * dom.shear_factor * df.d1(g)
    terms: Dict[Tuple[int, Tuple[int, ...]], complex] = {}
    for a in range(dom.n):
        exps = tuple(1 if k == a else 0 for k in range(dom.n))
        terms[(a + 1, exps)] = 1.0
    exps = tuple(2 if k == j - 1 else 0 for k in range(dom.n))
    terms[(i, exps)] = terms.get((i, exps), 0.0) + c
    sgn = "+" if sign > 0 else "-"
    label = f"h_{i}{j}[{df.describe(g)}]{sgn}"
    return PolynomialMap(terms, dom, normalized=True, label=label)


# ---------------------------------------------------------------------------
# membership certification


@dataclass
class MgCertificate:
    """Outcome of a sampling certification run.

    ``worst_margin`` is the smallest signed distance of any supporting value
    to the boundary of g(U); negative means a violation was observed.
    """

    passed: bool
    samples_used: int
    worst_margin: float
    eps: float
    witness: Optional[dict] = None
    n_indeterminate: int = 0

    def to_json(self) -> dict:
        out = {
            "pass": self.passed,
            "samples_used": self.samples_used,
            "worst_margin": self.worst_margin,
            "eps": self.eps,
            "n_indeterminate": self.n_indeterminate,
        }
        if self.witness is not None:
            out["witness"] = {
                "z": [{"re": float(v.real), "im": float(v.imag)} for v in self.witness["z"]],
                "value": {"re": float(self.witness["value"].real),
                          "im": float(self.witness["value"].imag)},
                "margin": float(self.witness["margin"]),
            }
        return out


def structured_torus_points(dom: bg.BallGeometry, radii=TORUS_RADII,
                            phases: int = TORUS_PHASES) -> np.ndarray:
    """Deterministic sample tori where the quadratic fields are extremal.

    Rank >= 2 domains get the frame 2-tori |z_i| = |z_j| = rho.  The
    Euclidean ball gets, per ordered pair (i, j), the weighted torus
    |z_i| = rho/sqrt(3), |z_j| = rho*sqrt(2/3): the maximizer of |z_i||z_j|^2
    on its unit sphere.
    """
    theta = 2.0 * np.pi * np.arange(phases) / phases
    A, B = np.meshgrid(theta, theta, indexing="ij")
    ea, eb = np.exp(1j * A.ravel()), np.exp(1j * B.ravel())
    blocks = []
    if dom.kind == bg.EUCLIDEAN:
        w1, w2 = 1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0)
        pairs = [(i, j) for i in range(dom.n) for j in range(dom.n) if i != j]
        for rho in radii:
            for i, j in pairs:
                Z = np.zeros((ea.size, dom.n), dtype=complex)
                Z[:, i] = rho * w1 * ea
                Z[:, j] = rho * w2 * eb
                blocks.append(Z)
    else:
        frame = [k - 1 for k in dom.frame_coords]
        for rho in radii:
            for i, j in itertools.combinations(frame, 2):
                Z = np.zeros((ea.size, dom.n), dtype=complex)
                Z[:, i] = rho * ea
                Z[:, j] = rho * eb
                blocks.append(Z)
    if not blocks:
        return np.empty((0, dom.n), dtype=complex)
    return np.vstack(blocks)


def _sphere_batch(dom: bg.BallGeometry, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sphere samples; spectral samples whose top singular value is
    within ``SPECTRAL_GAP`` of the other (a measure-zero set) are replaced by
    the next draw.  Each round draws only as many candidates as are still
    missing, all of which a one-at-a-time loop would consume too, so the
    stream is that of the loop."""
    if dom.kind != bg.SPECTRAL2:
        return bg.sample_sphere(dom, rng, count)
    kept = []
    while count:
        Z = bg.sample_sphere(dom, rng, count)
        s = np.linalg.svd(bg.to_matrices(Z), compute_uv=False)
        kept.append(Z[s[:, 0] - s[:, 1] >= SPECTRAL_GAP])
        count -= len(kept[-1])
    return np.concatenate(kept)


def certification_points(dom: bg.BallGeometry, N: int, rng: np.random.Generator,
                         structured: bool = True) -> np.ndarray:
    """Sample points for a certification run: N sphere samples scaled onto the
    radius ladder, polydisc edge samples, and (optionally) structured tori."""
    blocks = []
    if N > 0:
        sphere = _sphere_batch(dom, rng, N)
        blocks.append(sphere * np.resize(RADIUS_LADDER, N)[:, None])
    if dom.kind == bg.POLYDISC and N > 0:
        n_edge = max(N // 10, 8)
        edges = np.stack([bg.sample_polydisc_edge(dom, rng) for _ in range(n_edge)])
        blocks.append(edges * np.resize(RADIUS_LADDER, n_edge)[:, None])
    if structured:
        torus = structured_torus_points(dom)
        if torus.size:
            blocks.append(torus)
    if not blocks:
        raise DomainError("no certification points requested (N = 0, no structure)")
    return np.vstack(blocks)


def certify_values(value_fn, g: df.DiscFunction, dom: bg.BallGeometry,
                   Z: np.ndarray, eps: float = 1e-9) -> MgCertificate:
    """Core certifier: check l_z(h(z))/||z|| in g(U) over the point set Z,
    where h(z) = value_fn(Z) row-wise."""
    H = np.asarray(value_fn(Z), dtype=complex)
    vals, owner = bg.support_values(dom, Z, H)
    codes = df.classify(g, vals, eps)
    margins = np.asarray(df.boundary_margin(g, vals), dtype=float)
    worst = int(np.argmin(margins))
    passed = not np.any(codes == -1)
    witness = None
    if not passed:
        bad = int(np.argmin(np.where(codes == -1, margins, np.inf)))
        witness = {"z": Z[owner[bad]], "value": complex(vals[bad]), "margin": float(margins[bad])}
    return MgCertificate(
        passed=passed,
        samples_used=Z.shape[0],
        worst_margin=float(margins[worst]),
        eps=eps,
        witness=witness,
        n_indeterminate=int(np.count_nonzero(codes == 0)),
    )


def certify_Mg(h: HolMap, g: df.DiscFunction, dom: bg.BallGeometry, N: int,
               eps: float = 1e-9, rng: Optional[np.random.Generator] = None,
               structured: bool = True) -> MgCertificate:
    """Sampling certificate that the normalized map h generates values inside
    g(U) for every extreme supporting functional.

    Indeterminate verdicts (values within eps of the boundary in the
    inverse-map metric) are recorded but do not fail the certificate.
    """
    if not h.normalized:
        raise DomainError("certification needs a normalized map")
    rng = np.random.default_rng(0) if rng is None else rng
    Z = certification_points(dom, N, rng, structured=structured)
    return certify_values(h.values, g, dom, Z, eps=eps)


def random_Mg_member(g: df.DiscFunction, dom: bg.BallGeometry,
                     rng: np.random.Generator, k: int) -> CompositeMap:
    """Random convex combination of k certified building blocks.

    Blocks are drawn uniformly from {identity, g(l_u(z))*z for a random unit
    u, canonical quadratic field with random admissible indices and sign}.
    Convexity of g(U) puts the combination back in the family.
    """
    if k < 1:
        raise DomainError("need at least one block")
    if dom.rank >= 2:
        pairs = list(itertools.permutations(dom.frame_coords, 2))
    else:
        pairs = list(itertools.permutations(range(1, dom.n + 1), 2))
    blocks = []
    for _ in range(k):
        kind = int(rng.integers(3))
        if kind == 0 or not pairs:
            blocks.append(identity_map(dom))
        elif kind == 1:
            while True:
                u = bg.sample_sphere(dom, rng)
                try:
                    functional = bg.support_functionals(dom, u)[0]
                    break
                except DegenerateFunctionalError:
                    continue
            blocks.append(disc_multiple_map(g, functional, dom))
        else:
            i, j = pairs[int(rng.integers(len(pairs)))]
            sign = 1 if rng.random() < 0.5 else -1
            blocks.append(canonical_field(g, dom, i, j, sign))
    return convex_combination(blocks, rng.dirichlet(np.ones(k)))


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(f: PolynomialMap) -> list:
    out = []
    for (comp, exps), c in sorted(f.terms.items()):
        out.append({
            "component": comp,
            "exponents": list(exps),
            "re": float(c.real),
            "im": float(c.imag),
        })
    return out


def poly_from_json(payload: list, dom: bg.BallGeometry) -> PolynomialMap:
    terms = {}
    for entry in payload:
        key = (int(entry["component"]), tuple(int(e) for e in entry["exponents"]))
        terms[key] = complex(entry["re"], entry["im"])
    f = PolynomialMap(terms, dom)
    try:
        assert_normalized(f)
        f.normalized = True
    except DomainError:
        pass
    return f
