"""Holomorphic self-maps of the ball and the image-constraint certifier.

Maps come in three representations: sparse polynomial tables, composite
generators and black-box evaluators.  All evaluators are batched: ``values``
takes an (m, n) array of points.  Only the first two have an array form
(``HolMap.form``), and only they can be generators of a flow schedule, which
checks Dh(0) = I on the form; a black box is a map known by its values
alone, such as a parametric limit, whose values are a flow.

A composite generator is held as a ``FlatForm``: a linear part (``w0``
times the identity, or a matrix ``lin``), one block of g(l(z))*z terms per
disc function (weights ``W``, functionals ``Lmat``) and monomials grouped
by degree, so one evaluation is a few array operations however many terms
the map has.  ``identity_map`` and ``disc_multiple_map`` build the forms of
the building blocks, and ``convex_combination`` sums forms part by part.  A
polynomial table is evaluated through the form it lowers to, and so is a
sampled M_g member: drawn as a spec (``draw_Mg_member``), it is lowered
block by block straight to its form (``random_Mg_member``).  The exact
degree-2 part of a form is read off its arrays (``FlatForm.quadratic``), and
the remainder h - id that the flow integrates is derived from it without
cancellation (``remainder_map``).

``second_coeff`` extracts the second-order Taylor data at the origin through
Cauchy integrals discretized as 64-point DFTs on circles (a mixed coefficient
from the two circles through e_p + e_q and e_p - e_q), with a dual-radius
consistency check at radii 1/4 and 1/8 (``DFT_RADII``).  Small circles cost
nothing in accuracy: a term of degree 66 aliases in at O(r^64), and rounding
costs about eps/r.  They save flow steps: a parametric limit's flow is
singular near |d| = 1/(4|b(z)|) for Koebe's b, 0.56 at |z| = 1/4 against 0.225
at 0.4.  The circles come from ``dft_circles`` and each DFT from
``circle_dft``, which a caller that knows its map's symmetries may use on
fewer circles.  ``certify_Mg`` tests, on deterministic tori and by
Monte-Carlo sampling, that all supporting values l_z(h(z))/||z|| of a
normalized map lie in g(U).  It streams its points (``certification_blocks``)
in blocks of ``CERTIFY_BLOCK`` rows: seeded sphere samples, the polydisc edge
samples, then the frame tori, one torus at a time from a phase grid built
once; at radius 0.999 alone for a map with an array form (minimum principle),
on a radius ladder for a black box, which may have a pole in the ball.  Each
block is drawn, evaluated by ``h.values`` and certified before the next is
drawn, and neither the rows nor the certificate depend on the block size.
``certify_values`` folds given values the same way.  Support values come from
``ball_geometry.support_values``, in closed form on every geometry; no step
calls LAPACK's SVD.  Each support value's signed margin is computed once per
block (``df.boundary_margin``), and ``df.classify`` decides from it.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import ball_geometry as bg
from . import disc_functions as df
from .errors import (
    DomainError,
    NumericalInstabilityError,
    ReducedPrecisionWarning,
    UnsupportedError,
)

PURE = "pure"
MIXED = "mixed"

#: radii of the certification points of a black box (``certify_Mg``)
RADIUS_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
#: per-axis phase count of the deterministic certification tori
TORUS_PHASES = 64
#: rows that certification draws, evaluates and certifies at once (the blocks of
#: ``certification_blocks``, and the slices ``certify_values`` takes), so its
#: temporaries stay cache-sized: the three N = 40 000 sets took 27-39 ms at
#: 4096 and 8192 rows, 32-41 ms at 16384, 36-45 ms at 2048, 34-44 ms at 32768
#: and 50-58 ms in one block (three medians of 30 runs each on a shared 2-core
#: Xeon, support values and verdicts only)
CERTIFY_BLOCK = 8192

#: radii of the Cauchy DFT circles: the value, then the consistency check.
#: Powers of two, so r e^{i theta}, r^2 and the division by it are exact and a
#: polynomial map reads the same float at both radii.  Aliasing is O(r^64) and
#: rounding about eps/r (Bornemann, Found. Comput. Math. 11, 2011).  A flowed
#: limit's step length tracks the distance to its singularities, which for
#: Koebe's z/(1 - z)^2 lie at |d| = 1/(4|b(z)|): 0.56 at r = 1/4, 0.225 at 0.4.
DFT_RADII = (0.25, 0.125)
#: points per Cauchy DFT circle
DFT_POINTS = 64
_THETA = 2.0 * np.pi * np.arange(DFT_POINTS) / DFT_POINTS
_CIRCLE, _PHASE = np.exp(1j * _THETA), np.exp(-2j * _THETA)


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
    A ``shifted`` form evaluates its disc blocks with g - 1 in place of g
    (``remainder_map``).
    """

    w0: Optional[complex]
    lin: Optional[np.ndarray]
    disc: Tuple[Tuple[df.DiscFunction, np.ndarray, np.ndarray], ...]
    monomials: Tuple[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]], ...]
    shifted: bool = False

    def _disc_factor(self, g: df.DiscFunction, lz: np.ndarray) -> np.ndarray:
        return df._minus_one(g, lz) if self.shifted else df._eval_raw(g, lz)

    def values(self, Z: np.ndarray) -> np.ndarray:
        out = None
        if self.w0 is not None:
            out = self.w0 * Z
        elif self.lin is not None:
            out = Z @ self.lin.T
        for g, lmat, w in self.disc:
            out = _add(out, (self._disc_factor(g, Z @ lmat.T) @ w)[:, None] * Z)
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
            J += (self._disc_factor(g, lz) @ w)[:, None, None] * np.eye(n)
            J += Z[:, :, None] * ((gp * w) @ lmat)[:, None, :]
        flat = J.reshape(m, n * n)
        for idx, coef, comp in self.monomials:
            comp = np.asarray(comp, dtype=int)
            # d/dz of a product: drop one factor at a time
            for p in range(idx.shape[1]):
                part = _products(Z, np.delete(idx, p, axis=1)) * coef
                flat += part @ np.eye(n * n, dtype=complex)[comp * n + idx[:, p]]
        return J

    def quadratic(self, n: int) -> np.ndarray:
        """The degree-2 part as an (n, n, n) array: Q[c, a, b] (a <= b) is the
        coefficient of z_a z_b in component c.  A disc block adds
        g'(0) (W @ Lmat).z * z, a degree-2 monomial its coefficient."""
        Q = np.zeros((n, n, n), dtype=complex)
        c, a = np.indices((n, n))
        for g, lmat, w in self.disc:
            v = df.g_prime0(g) * (w @ lmat)
            Q[c, np.minimum(a, c), np.maximum(a, c)] += v[a]
        for idx, coef, comp in self.monomials:
            if idx.shape[1] == 2:
                np.add.at(Q, (np.asarray(comp, dtype=int), idx.min(axis=1), idx.max(axis=1)),
                          coef)
        return Q


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
        """The sum as a FlatForm: a disc block per g, nonzero terms grouped
        by degree, and a linear part that is w0 times the identity (maybe
        zero) kept as the scalar ``w0``."""
        disc = tuple((g, np.concatenate([lmat for lmat, _ in blocks]),
                      np.concatenate([w for _, w in blocks]))
                     for g, blocks in self.disc.items())
        by_degree: dict = {}
        for (comp, idx), c in self.terms.items():
            if c != 0:
                by_degree.setdefault(len(idx), []).append((comp, idx, c))
        monomials = tuple((np.array([t[1] for t in group], dtype=int).reshape(len(group), d),
                           np.array([t[2] for t in group], dtype=complex),
                           tuple(t[0] for t in group))
                          for d, group in sorted(by_degree.items()))
        lin, w0 = self.lin, complex(self.lin[0, 0])
        if np.array_equal(lin, w0 * np.eye(self.n)):
            lin, w0 = None, (w0 or None)
        else:
            w0 = None
        return FlatForm(w0, lin, disc, monomials)


# ---------------------------------------------------------------------------
# map representations


class HolMap:
    """Base class; concrete maps implement batched values and Jacobians.
    ``form`` is the array form of the maps that have one, else None."""

    domain: bg.BallGeometry
    normalized: bool
    form: Optional[FlatForm] = None

    def values(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class PolynomialMap(HolMap):
    """Sparse polynomial map: terms[(component, exponents)] = coefficient.

    Components are 1-based, exponents are tuples of length n.  The table is
    read-only and lowered once to the FlatForm it is evaluated through;
    ``scale_term`` makes a new map with one coefficient scaled.
    """

    def __init__(self, terms: Dict[Tuple[int, Tuple[int, ...]], complex],
                 domain: bg.BallGeometry, normalized: bool = False, label: str = ""):
        self.terms = MappingProxyType({key: complex(c) for key, c in terms.items() if c != 0})
        self.domain = domain
        self.normalized = normalized
        self.label = label
        lowering = _Lowering(domain.n)
        lowering.add_table(self.terms, 1.0)
        self.form = lowering.form()

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
    """Map given only by an evaluator: it has no array form and no Jacobian,
    so no schedule takes it."""

    def __init__(self, fn, domain: bg.BallGeometry, normalized: bool = False,
                 label: str = "black_box"):
        self.fn = fn
        self.domain = domain
        self.normalized = normalized
        self.label = label

    def values(self, Z):
        return np.asarray(self.fn(np.asarray(Z, dtype=complex)), dtype=complex)

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


def disc_multiple_map(g: df.DiscFunction, coeffs, dom: bg.BallGeometry) -> CompositeMap:
    """z -> g(l(z)) * z for a disc function g and the norm-one functional
    l(z) = coeffs . z (a length-n coefficient row)."""
    block = (g, np.array([coeffs], dtype=complex), np.ones(1, dtype=complex))
    return CompositeMap(FlatForm(None, None, (block,), ()), dom, normalized=True,
                        label=f"{df.describe(g)}(l(z))*z")


def _linear_residual(form: FlatForm, n: int):
    """Dh(0) - I of a form (disc blocks add g(0) = 1) as (w0, lin), or None."""
    shift = sum(w.sum() for _, _, w in form.disc) - 1.0
    if form.lin is None:
        return ((form.w0 or 0.0) + shift) or None, None
    lin = form.lin + shift * np.eye(n)
    return None, (lin if lin.any() else None)


def remainder_map(h: HolMap) -> CompositeMap:
    """x -> h(x) - x for a map with an array form: the form less the
    identity, disc blocks as g - 1, so O(|x|^2) down to the smallest x if h
    is flagged normalized (the linear part is dropped whole)."""
    w0, lin = (None, None) if h.normalized else _linear_residual(h.form, h.domain.n)
    return CompositeMap(FlatForm(w0, lin, h.form.disc, h.form.monomials, shifted=True),
                        h.domain, label=f"{h.describe()} - id")


def linear_defect(h: HolMap) -> float:
    """max |Dh(0) - I|, read off the array form."""
    w0, lin = _linear_residual(h.form, h.domain.n)
    return float(np.max(np.abs(lin if lin is not None else w0 or 0.0)))


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
        if m.form is None:
            raise UnsupportedError(f"{m.describe()} has no array form")
        lowering.add_form(m.form, complex(w))
    return CompositeMap(lowering.form(), dom, normalized=all(m.normalized for m in maps),
                        label=f"combo[{', '.join(m.describe() for m in maps)}]")


# ---------------------------------------------------------------------------
# second-order coefficients at the origin


def _check_pair(dom: bg.BallGeometry, i: int, j: int):
    if not (1 <= i <= dom.n and 1 <= j <= dom.n):
        raise DomainError(f"indices ({i}, {j}) out of range for n = {dom.n}")
    if i == j:
        raise DomainError("indices must be distinct")
    if dom.rank >= 2:
        frame = dom.frame_coords
        if i not in frame or j not in frame:
            raise DomainError(f"indices ({i}, {j}) must lie in the frame {frame}")


def _reconcile(c_main: complex, c_check: complex, what: str) -> complex:
    gap = abs(c_main - c_check)
    if not gap <= 1e-4:
        raise NumericalInstabilityError(
            f"{what}: coefficient estimates disagree by {gap:.3e} between radii"
        )
    if gap > 1e-8:
        warnings.warn(
            ReducedPrecisionWarning(f"{what}: coefficient estimates agree only to {gap:.3e}")
        )
    return c_main


def _check_requests(requests, n: int) -> list:
    requests = list(requests)
    for i, j, kind in requests:
        if kind not in (PURE, MIXED):
            raise DomainError(f"unknown coefficient kind {kind!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"indices ({i}, {j}) out of range for n = {n}")
        if kind == MIXED and i == j:
            raise DomainError("mixed coefficient needs i != j")
    return requests


def quadratic_coeffs(Q: np.ndarray, requests) -> dict:
    """The table ``second_coeff_bundle`` returns, read from a quadratic part
    Q (see ``FlatForm.quadratic``): pure(i, j) is Q[i, j, j] and mixed(i, j)
    is Q[i, min(i, j), max(i, j)] (1-based indices)."""
    out = {}
    for i, j, kind in _check_requests(requests, Q.shape[0]):
        a, b = (j, j) if kind == PURE else sorted((i, j))
        out[(i, j, kind)] = complex(Q[i - 1, a - 1, b - 1])
    return out


def dft_circles(directions, n: int) -> np.ndarray:
    """The Cauchy circles r e^{i theta} (e_p + s e_q), or r e^{i theta} e_p
    when q is None, one per (p, q, s) in ``directions``: 64 points at each
    radius of DFT_RADII, stacked direction by direction."""
    blocks = []
    for p, q, s in directions:
        for r in DFT_RADII:
            Z = np.zeros((DFT_POINTS, n), dtype=complex)
            Z[:, p - 1] = r * _CIRCLE
            if q is not None:
                Z[:, q - 1] = s * r * _CIRCLE
            blocks.append(Z)
    return np.vstack(blocks)


def circle_dft(vals: np.ndarray, k: int, comp: int) -> list:
    """The coefficient of zeta^2 in zeta -> f_comp(zeta u) on the k-th
    direction u of ``dft_circles``, one per radius of DFT_RADII: the 64-point
    Cauchy DFT of ``vals`` (f at those circles) over each radius's rows."""
    circles = vals[:, comp - 1].reshape(-1, len(DFT_RADII), DFT_POINTS)[k]
    return [complex((col * _PHASE).mean() / r**2) for col, r in zip(circles, DFT_RADII)]


def second_coeff_bundle(f: HolMap, requests) -> dict:
    """Extract several second-order coefficients from one batched evaluation.

    ``requests`` is an iterable of (i, j, kind).  All circles (128 points per
    pure axis, 256 per mixed pair, from ``dft_circles``) go into a single
    ``values`` call, which matters for black-box maps whose evaluation
    integrates an ODE; ``circle_dft`` reads each circle back.
    """
    requests = _check_requests(requests, f.domain.n)
    axes = sorted({j for i, j, kind in requests if kind == PURE})
    pairs = sorted({tuple(sorted((i, j))) for i, j, kind in requests if kind == MIXED})
    directions = [(j, None, 1.0) for j in axes]
    directions += [(p, q, s) for p, q in pairs for s in (1.0, -1.0)]
    at = {d: k for k, d in enumerate(directions)}
    vals = f.values(dft_circles(directions, f.domain.n))

    out = {}
    for i, j, kind in requests:
        if kind == PURE:
            got = circle_dft(vals, at[(j, None, 1.0)], i)
        else:
            p, q = sorted((i, j))
            plus, minus = (circle_dft(vals, at[(p, q, s)], i) for s in (1.0, -1.0))
            got = [(c_plus - c_minus) / 2 for c_plus, c_minus in zip(plus, minus)]
        out[(i, j, kind)] = _reconcile(*got, f"{kind}({i},{j})")
    return out


def second_coeff(f: HolMap, i: int, j: int, kind: str) -> complex:
    """Second-order Taylor data of f at 0.

    ``pure`` returns the coefficient of z_j^2 in component i, i.e.
    (1/2) d^2 f_i / d z_j^2 (0), from a 64-point Cauchy DFT on the circle of
    radius rho = DFT_RADII[0].  ``mixed`` (i != j) returns the coefficient of
    z_i z_j in component i, i.e. d^2 f_i / (d z_i d z_j) (0), from the same
    DFT on the circles rho e^{i theta} (e_i +- e_j), which lie on the 2-torus
    |z_i| = |z_j| = rho.  There the degree-2 part of f_i is
    Q_ii +- Q_ij + Q_jj (Q_ab the coefficient of z_a z_b), so the two DFT
    values c+ and c- give Q_ij = (c+ - c-) / 2, with no term of degree below
    66 aliased in.  Both kinds are recomputed at DFT_RADII[1]; disagreement
    beyond 1e-8 triggers a ReducedPrecisionWarning, beyond 1e-4 a
    NumericalInstabilityError.
    """
    return second_coeff_bundle(f, [(i, j, kind)])[(i, j, kind)]


def _quadratic_field(dom: bg.BallGeometry, i: int, j: int, c: complex,
                     label: str) -> PolynomialMap:
    """The normalized table z + c * z_j^2 e_i."""
    terms: Dict[Tuple[int, Tuple[int, ...]], complex] = {
        (a + 1, tuple(int(k == a) for k in range(dom.n))): 1.0 for a in range(dom.n)}
    # as a sum into 0.0, so a negative zero part of c is stored as +0
    terms[(i, tuple(2 * int(k == j - 1) for k in range(dom.n)))] = 0.0 + c
    return PolynomialMap(terms, dom, normalized=True, label=label)


def shear(h: HolMap, i: int, j: int) -> PolynomialMap:
    """The identity plus the single pure z_j^2 term of the normalized map h
    in component i."""
    if not h.normalized:
        raise DomainError("shearing needs a normalized map")
    _check_pair(h.domain, i, j)
    if np.linalg.norm(h.values(np.zeros((1, h.domain.n), dtype=complex))[0]) > 1e-10:
        raise DomainError("shearing needs h(0) = 0")
    return _quadratic_field(h.domain, i, j, second_coeff(h, i, j, PURE),
                            f"shear_{i}{j}[{h.describe()}]")


def scale_term(f: PolynomialMap, comp: int, exps: Tuple[int, ...],
               factor: float) -> PolynomialMap:
    """A copy of the polynomial map f with the coefficient of
    (comp, exps) multiplied by ``factor``; a normalized f stays normalized
    unless a linear term is scaled."""
    key = (comp, tuple(exps))
    if key not in f.terms:
        raise DomainError(f"{f.describe()} has no term {key}")
    terms = dict(f.terms)
    terms[key] *= factor
    return PolynomialMap(terms, f.domain, normalized=f.normalized and sum(key[1]) != 1,
                         label=f.label)


def canonical_field(g: df.DiscFunction, dom: bg.BallGeometry, i: int, j: int,
                    sign: int) -> PolynomialMap:
    """The sharp quadratic field z + sign * factor * d1(g) * z_j^2 e_i.

    ``factor`` is 1 on the rank >= 2 frame geometries and 3*sqrt(3)/2 on the
    Euclidean ball.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    _check_pair(dom, i, j)
    return _quadratic_field(dom, i, j, sign * dom.shear_factor * df.d1(g),
                            f"h_{i}{j}[{df.describe(g)}]{'+' if sign > 0 else '-'}")


# ---------------------------------------------------------------------------
# membership certification


@dataclass
class MgCertificate:
    """Outcome of a sampling certification run.

    ``worst_margin`` is the smallest signed distance of any supporting value
    w to the boundary of g(U), the one metric of ``df.classify``: w is
    indeterminate within eps*max(1, |w|) of the boundary and fails past that
    band outside, so a failed certificate's witness margin lies below
    -eps*max(1, |w|).  A negative margin inside the band is no violation.
    ``n_indeterminate`` counts support values, one per extreme functional
    of a point (``bg.support_values``), while ``samples_used`` counts
    points: where several coordinates attain the norm, as on the polydisc
    tori, one point gives several values.
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
            out["witness"] = self.witness
        return out


def _torus_blocks(dom: bg.BallGeometry, radii, phases: int = TORUS_PHASES):
    """Deterministic sample tori where the quadratic fields are extremal: one
    (phases**2, n) block per radius and coordinate pair, built as it is taken
    from the phase grid of ``_torus_phases``.

    Rank >= 2 domains get the frame 2-tori |z_i| = |z_j| = rho.  The
    Euclidean ball gets, per ordered pair (i, j), the weighted torus
    |z_i| = rho/sqrt(3), |z_j| = rho*sqrt(2/3): the maximizer of |z_i||z_j|^2
    on its unit sphere.
    """
    ea, eb = _torus_phases(phases)
    if dom.kind == bg.EUCLIDEAN:
        w1, w2 = 1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0)
        pairs = list(itertools.permutations(range(dom.n), 2))
    else:
        w1 = w2 = 1.0
        pairs = list(itertools.combinations([k - 1 for k in dom.frame_coords], 2))
    for rho, (i, j) in itertools.product(radii, pairs):
        Z = np.zeros((ea.size, dom.n), dtype=complex)
        Z[:, i] = rho * w1 * ea
        Z[:, j] = rho * w2 * eb
        yield Z


@functools.lru_cache(maxsize=None)
def _torus_phases(phases: int):
    """(e^{i a}, e^{i b}) over the grid of ``phases``**2 angle pairs (a, b),
    a major; built once per phase count (128 kB at 64 phases) and read-only,
    so no certification run rebuilds them and no torus point set stays
    resident between runs."""
    theta = 2.0 * np.pi * np.arange(phases) / phases
    A, B = np.meshgrid(theta, theta, indexing="ij")
    grid = np.exp(1j * A.ravel()), np.exp(1j * B.ravel())
    for part in grid:
        part.flags.writeable = False
    return grid


def _on_ladder(blocks, radii):
    """The blocks with row k of their concatenation times
    ``radii[k % len(radii)]``, in place on the float view (no complex product)."""
    start = 0
    for Z in blocks:
        parts = Z.view(np.float64)
        for k, rho in enumerate(radii):
            parts[(k - start) % len(radii)::len(radii)] *= rho
        start += len(Z)
        yield Z


def certification_blocks(dom: bg.BallGeometry, N: int, rng: np.random.Generator, radii):
    """The points of a certification run, drawn and yielded in blocks of at
    most ``CERTIFY_BLOCK`` rows: N sphere samples scaled onto ``radii`` in
    turn, then on the polydisc max(N // 10, 8) edge samples the same way, then
    the tori of ``_torus_blocks`` at the last three radii (0.999 alone for a
    form, the ladder for a black box: ``certify_Mg``).  The rows, and the state
    ``rng`` is left in, do not depend on the block size."""
    if N > 0:
        yield from _on_ladder(bg.sphere_blocks(dom, rng, N, CERTIFY_BLOCK), radii)
        if dom.kind == bg.POLYDISC:
            yield from _on_ladder(bg.polydisc_edge_blocks(dom, rng, max(N // 10, 8),
                                                          CERTIFY_BLOCK), radii)
    for torus in _torus_blocks(dom, radii[-3:]):
        for start in range(0, len(torus), CERTIFY_BLOCK):
            yield torus[start:start + CERTIFY_BLOCK]


def certification_points(dom: bg.BallGeometry, N: int, rng: np.random.Generator,
                         radii=RADIUS_LADDER) -> np.ndarray:
    """All points of ``certification_blocks`` as one array."""
    blocks = list(certification_blocks(dom, N, rng, radii))
    if not blocks:
        raise DomainError("no certification points requested (N = 0, no tori)")
    return np.concatenate(blocks)


def _certify_blocks(blocks, g: df.DiscFunction, dom: bg.BallGeometry,
                    eps: float) -> MgCertificate:
    """The certificate over an iterable of (Z, H) blocks, H = h(Z) row-wise:
    every support value l_z(h(z))/||z|| must lie in g(U).  The witness is
    the failing value of least margin at the earliest row of the stream
    (its first such functional), so no verdict depends on the blocking."""
    lows, failures, indeterminate, used = [], [], 0, 0
    for Z, H in blocks:
        low, failure, unsure = _block_verdict(Z, H, g, dom, eps)
        lows.append(low)
        if failure:
            failures.append(failure)
        indeterminate += unsure
        used += len(Z)
    if not used:
        raise DomainError("certification needs a nonempty point set")
    witness = failures[int(np.argmin([w["margin"] for w in failures]))] if failures else None
    return MgCertificate(passed=not failures, samples_used=used, eps=eps, witness=witness,
                         worst_margin=float(lows[int(np.argmin(lows))]),
                         n_indeterminate=indeterminate)


def _block_verdict(Z, H, g: df.DiscFunction, dom: bg.BallGeometry, eps: float):
    """(lowest margin, failure or None, indeterminate count) of one block;
    the failure is the failing value of least margin at its earliest row.
    Each support value's margin is computed once (``df.boundary_margin``)
    and ``df.classify`` decides from it; a non-finite value fails with
    margin -inf, so it is the witness."""
    vals, owner = bg.support_values(dom, Z, H)
    margins = df.boundary_margin(g, vals)
    codes = df.classify(vals, margins, eps)
    failure, failing = None, codes == -1
    if failing.any():
        worst = np.flatnonzero(failing & (margins == margins[failing].min()))
        bad = worst[np.argmin(owner[worst])]
        failure = {"z": Z[owner[bad]].copy(), "value": complex(vals[bad]),
                   "margin": float(margins[bad])}
    return margins.min(), failure, int(np.count_nonzero(codes == 0))


def certify_values(H, g: df.DiscFunction, dom: bg.BallGeometry,
                   Z: np.ndarray, eps: float = 1e-9) -> MgCertificate:
    """Core certifier: check l_z(h(z))/||z|| in g(U) over the point set Z,
    given the map values H = h(Z) row-wise.  Works through (Z, H) in blocks
    of CERTIFY_BLOCK rows with the fold of ``certify_Mg`` (``_certify_blocks``)."""
    if len(Z) == 0 or np.shape(H) != np.shape(Z):
        raise DomainError("certification needs a nonempty point set Z and one value per point")
    rows = [slice(start, start + CERTIFY_BLOCK) for start in range(0, len(Z), CERTIFY_BLOCK)]
    return _certify_blocks(((Z[r], H[r]) for r in rows), g, dom, eps)


def certify_Mg(h: HolMap, g: df.DiscFunction, dom: bg.BallGeometry, N: int,
               eps: float = 1e-9, rng: Optional[np.random.Generator] = None) -> MgCertificate:
    """Sampling certificate that the normalized map h generates values inside
    g(U) for every extreme supporting functional.

    Streams ``certification_blocks``: each block is drawn, evaluated by
    ``h.values`` and certified before the next is drawn, so no step holds
    the whole point set.  Indeterminate verdicts (values w within Euclidean
    distance eps*max(1, |w|) of the boundary) are recorded but do not fail
    the certificate.  A map with an array form takes radius 0.999 alone: on
    each complex line its support value is holomorphic, its margin to the
    convex g(U) superharmonic, and least on the outer circle (minimum
    principle).  A black box keeps the ladder: it may have a pole in the ball.
    """
    if not h.normalized:
        raise DomainError("certification needs a normalized map")
    rng = np.random.default_rng(0) if rng is None else rng
    radii = RADIUS_LADDER if h.form is None else RADIUS_LADDER[-1:]
    blocks = certification_blocks(dom, N, rng, radii)
    return _certify_blocks(((Z, h.values(Z)) for Z in blocks), g, dom, eps)


def draw_Mg_member(dom: bg.BallGeometry, rng: np.random.Generator, k: int,
                   points: list) -> tuple:
    """Spec (blocks, weights) of a random convex combination of k building
    blocks drawn uniformly from {identity, g(l_u(z))*z for a random unit u,
    canonical quadratic field with random admissible indices and sign}: each
    is an M_g member, and so is the combination, as g(U) is convex.  A block
    is None, the index in ``points`` of u (appended there) or (i, j, sign);
    a domain with no index pair (E^1) turns a canonical draw into None.
    """
    if k < 1:
        raise DomainError("need at least one block")
    pairs = list(itertools.permutations(
        dom.frame_coords if dom.rank >= 2 else range(1, dom.n + 1), 2))
    blocks = []
    for _ in range(k):
        kind = int(rng.integers(3))
        if kind == 0 or (kind == 2 and not pairs):
            blocks.append(None)
        elif kind == 1:
            blocks.append(len(points))
            points.append(bg.sample_sphere(dom, rng, 1))
        else:
            i, j = pairs[int(rng.integers(len(pairs)))]
            blocks.append((i, j, 1 if rng.random() < 0.5 else -1))
    return tuple(blocks), rng.dirichlet(np.ones(k))


def random_Mg_member(g: df.DiscFunction, dom: bg.BallGeometry, spec: tuple,
                     rows: np.ndarray) -> CompositeMap:
    """The generator of a ``draw_Mg_member`` spec, u = points[k] taking the
    functional ``rows[k]``, lowered straight to its form.  A block of weight
    w adds w I (identity or canonical field), the disc row of g(l_u(z))*z
    with weight w, or a canonical field's one z_j^2 e_i term, in the order
    and arithmetic of ``convex_combination`` over the blocks' own maps."""
    lowering = _Lowering(dom.n)
    for b, w in zip(*spec):
        w = complex(w)
        if isinstance(b, int):
            lowering.disc.setdefault(g, []).append((rows[b:b + 1], np.array([w])))
            continue
        lowering.lin += w * np.eye(dom.n)
        if b is not None:
            i, j, sign = b
            lowering.add_term(i - 1, (j - 1,) * 2, w * complex(sign * dom.shear_factor * df.d1(g)))
    return CompositeMap(lowering.form(), dom, normalized=True)
