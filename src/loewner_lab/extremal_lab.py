"""Coefficient functionals on map space, sampling of the parametric family,
and the bound-verification / support-point scans.

Support-point claims are verified as one-sided maximality over a sampled
family plus exact attainment by the closed-form extremal map; reports state
"no counterexample among N samples", never a proof.  The canonical maps are
always included in a scan so its maximum is exact even though random convex
combinations concentrate away from the extreme points.

A run draws its sampled maps in one batch (``sample_Sg0``), as their
schedules, and scores each by the exact quadratic part
-sum_k (e^{-t_k} - e^{-t_{k+1}}) Q_k of its parametric limit
(``lf.parametric_quadratic``), read off the forms of the schedule's
generators.  Every ``ORACLE_STRIDE``-th sample, sample #0 first, is also
flowed and DFT'd as a cross-check; a gap above ``ORACLE_TOL``, or a flow
that fails, is a numerical instability (exit 3).
Reports record ``oracle_checks`` (the cross-checked samples) and
``oracle_gap`` (their largest |exact - ODE|, 0.0 when there are none).  The
canonical and sharp parametric maps are scored exactly too, and each
report flows one of them as a cross-check; ``canonical_gap`` is that flow's
largest gap.  A scan flows ``parametric[h+]`` alone: h-(z) = -h+(-z) gives
f-(z) = -f+(-z), so a flow of the minus map would only repeat the plus
map's gap.  ``verify_gprime_bounds`` flows ``parametric[g(z1)z]`` alone:
g(z_2) z is g(z_1) z conjugated by the swap P of z_1 and z_2, so
``parametric[g(z2)z]`` is P f P for that one limit f, and its mixed (1, 2)
coefficient is mixed (2, 1) of f.  That flow runs on one DFT circle: every
unitary fixing e_1, diag(1, e^{i phi}) on (z_1, z_2) (right multiplication
on the spectral ball), commutes with g(z_1) z, so the circle through
e_1 + e_2 carries both the pure (1, 1) and the mixed (2, 1) coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import ball_geometry as bg
from . import carath
from . import disc_functions as df
from . import loewner_flow as lf
from .errors import DomainError, NumericalInstabilityError

#: default number of pieces in a sampled generator schedule
DEFAULT_PIECES = 3
_ATTAIN_TOL = 1e-8
#: relative tolerance of the flows behind the sampled family's parametric maps
SAMPLER_ODE_TOL = 1e-9
#: sample s is also flowed and DFT'd when s % ORACLE_STRIDE == 0, so sample #0
#: always cross-checks the exact coefficients
ORACLE_STRIDE = 8
#: largest |exact - ODE| gap a cross-checked coefficient may show
ORACLE_TOL = 1e-7


@dataclass
class BoundReport:
    """Outcome of a coefficient-bound experiment over a sampled family."""

    functional_id: Tuple[int, int, str]
    theoretical_bound: float
    empirical_max: float
    attaining_map_id: str
    n_samples: int
    violations: List[Tuple[str, float]] = field(default_factory=list)
    tolerance: float = 1e-6
    oracle_checks: int = 0
    oracle_gap: float = 0.0
    canonical_gap: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "functional": {"i": self.functional_id[0], "j": self.functional_id[1],
                           "kind": self.functional_id[2]},
            "theoretical_bound": self.theoretical_bound,
            "empirical_max": self.empirical_max,
            "attaining_map_id": self.attaining_map_id,
            "n_samples": self.n_samples,
            "violations": [{"map": m, "value": v} for m, v in self.violations],
            "tolerance": self.tolerance,
            "oracle_checks": self.oracle_checks,
            "oracle_gap": self.oracle_gap,
            "canonical_gap": self.canonical_gap,
        }


def sample_Sg0(g: df.DiscFunction, dom: bg.BallGeometry, rng: np.random.Generator,
               pieces: int, count: int) -> List[lf.HerglotzField]:
    """``count`` random maps of S_g^0 as their schedules, drawn one after
    another, so a batch is its one-draw calls bit for bit and in RNG state.
    A map is a schedule of ``pieces`` generators on consecutive intervals,
    each a convex combination of 1 to 3 known M_g members
    (``carath.draw_Mg_member``).  Every draw is made before any member is
    lowered to its form (``carath.random_Mg_member``), so all unit points
    take their functionals in one call.
    """
    if pieces < 1:
        raise DomainError("need at least one schedule piece")
    points: list = []
    draws = [[carath.draw_Mg_member(dom, rng, int(rng.integers(1, 4)), points)
              for _ in range(pieces)] for _ in range(count)]
    L, owner = (bg.support_functionals(dom, np.concatenate(points)) if points else
                (np.empty((0, dom.n), dtype=complex), np.empty(0, dtype=int)))
    rows = L[np.unique(owner, return_index=True)[1]]  # each point's first, as if alone
    return [lf.make_field([carath.random_Mg_member(g, dom, spec, rows) for spec in draw], dom)
            for draw in draws]


def _exact_coeffs(jet: np.ndarray, requests, fmap=None, dft=None):
    """(exact, ode, gap) for a parametric limit with quadratic part ``jet``.

    ``exact`` is {(i, j, kind): value} read off ``jet``
    (``carath.quadratic_coeffs``).  Given the flowed limit ``fmap``, ``ode``
    is its flowed table ``dft(fmap, requests)`` (``second_coeff_bundle`` by
    default) and ``gap`` the largest |exact - ode|; a gap above
    ``ORACLE_TOL`` raises NumericalInstabilityError, and a failed flow raises
    FlowInstabilityError.  Without ``fmap`` both are None.
    """
    exact = carath.quadratic_coeffs(jet, requests)
    if fmap is None:
        return exact, None, None
    ode = (dft or carath.second_coeff_bundle)(fmap, requests)
    gap = max(abs(exact[key] - ode[key]) for key in exact)
    if not gap <= ORACLE_TOL:
        raise NumericalInstabilityError(
            f"{fmap.describe()}: exact and ODE coefficients disagree by {gap:.3e}")
    return exact, ode, gap


def support_map(g: df.DiscFunction, dom: bg.BallGeometry, i: int, j: int,
                sign: int) -> carath.PolynomialMap:
    """The closed-form extremal map z + sign * factor * d1(g) z_j^2 e_i (the
    same quadratic formula as the canonical field)."""
    f = carath.canonical_field(g, dom, i, j, sign)
    f.label = f"F_{i}{j}[{df.describe(g)}]{'+' if sign > 0 else '-'}"
    return f


def scan_support(g: df.DiscFunction, dom: bg.BallGeometry, i: int, j: int, N: int,
                 rng: np.random.Generator, tolerance: float = 1e-6,
                 pieces: int = DEFAULT_PIECES) -> BoundReport:
    """Maximize Re L_{i,j} over N parametric samples plus the canonical
    candidates; the canonical map must attain the sharp bound
    factor * d1(g) within coefficient-extraction tolerance.

    A sample's value is exact (``_exact_coeffs``); every
    ``ORACLE_STRIDE``-th sample is also flowed and checked on every pure
    coefficient (a, j) of its e_j circle, and the report records the number
    of these cross-checks and their largest gap.  So is ``parametric[h+]``,
    always (``canonical_gap``); ``parametric[h-]`` is scored exactly and not
    flowed, since on the e_j circle its flow is the plus flow negated, bit
    for bit.  The closed-form maps are scored exactly from their forms
    (``FlatForm.quadratic``), as the parametric ones are, so F_ij+ ties
    ``parametric[h-]`` at the bound bit for bit and is named, being listed
    first; F_ij+'s DFT read is the attainment check.

    What the scan shows is that the code is right, not that the theorem is.
    The quadratic part of a sampled map is minus a convex combination of its
    generators' quadratic parts, and each generator is a convex combination
    of building blocks of which only the canonical fields carry a z_j^2 term
    in component i != j.  On the sampled family the bound therefore follows
    by convexity, and a violation would point at the code.
    """
    carath._check_pair(dom, i, j)
    bound = dom.shear_factor * df.d1(g)
    entries: List[Tuple[str, float]] = []
    requests = [(i, j, carath.PURE)]
    # (i, j) alone is identically 0 on draws with no z_j^2 term in component i
    axis = [(a, j, carath.PURE) for a in range(1, dom.n + 1)]
    label = f"Sg0_sample[pieces={pieces}]"
    gaps = []

    for s, schedule in enumerate(sample_Sg0(g, dom, rng, pieces, N)):
        fmap = (lf.parametric_holmap(schedule, ode_tol=SAMPLER_ODE_TOL, label=label)
                if s % ORACLE_STRIDE == 0 else None)
        coeffs, _, gap = _exact_coeffs(lf.parametric_quadratic(schedule), axis, fmap)
        if gap is not None:
            gaps.append(gap)
        entries.append((f"{label}#{s}", float(coeffs[requests[0]].real)))

    def exact(f):
        return float(carath.quadratic_coeffs(f.form.quadratic(dom.n), requests)[requests[0]].real)

    f_plus = support_map(g, dom, i, j, +1)
    f_minus = support_map(g, dom, i, j, -1)
    entries.append((f_plus.describe(), exact(f_plus)))
    entries.append((f_minus.describe(), exact(f_minus)))
    entries.append(("identity", exact(carath.identity_map(dom))))
    h_plus, h_minus = (lf.autonomous_field(carath.canonical_field(g, dom, i, j, sign), dom)
                       for sign in (+1, -1))
    plus, _, canonical_gap = _exact_coeffs(
        lf.parametric_quadratic(h_plus), requests,
        lf.parametric_holmap(h_plus, ode_tol=SAMPLER_ODE_TOL, label="parametric[h+]"))
    minus, _, _ = _exact_coeffs(lf.parametric_quadratic(h_minus), requests)
    entries.append(("parametric[h+]", float(plus[requests[0]].real)))
    entries.append(("parametric[h-]", float(minus[requests[0]].real)))

    best = max(entries, key=lambda e: e[1])
    violations = [(name, val) for name, val in entries if val > bound + tolerance]
    attained = abs(float(carath.second_coeff(f_plus, i, j, carath.PURE).real) - bound)
    if attained > _ATTAIN_TOL:
        violations.append(("attainment-gap:" + f_plus.describe(), attained))
    return BoundReport((i, j, carath.PURE), bound, best[1], best[0],
                       n_samples=N, violations=violations, tolerance=tolerance,
                       oracle_checks=len(gaps), oracle_gap=max(gaps, default=0.0),
                       canonical_gap=canonical_gap)


def verify_gprime_bounds(g: df.DiscFunction, dom: bg.BallGeometry, N: int,
                         rng: np.random.Generator, tolerance: float = 1e-6,
                         pieces: int = 2) -> BoundReport:
    """Check the diagonal and mixed second-coefficient bounds |.| <= |g'(0)|
    over N parametric samples, including the sharpness candidates: the
    parametric maps of the autonomous fields g(z_1) z and g(z_2) z.  Those
    are scored by their exact coefficients.  Only the limit f of g(z_1) z is
    flowed, once, for its pure (1, 1) and mixed (2, 1) coefficients: the
    limit of g(z_2) z is P f P for the swap P of z_1 and z_2, so
    ``parametric[g(z2)z]``'s mixed (1, 2) coefficient, exact and flowed, is
    f's mixed (2, 1).  The flow runs on the circle zeta (e_1 + e_2) alone, at
    both DFT radii (zeta e_1 on the rank-1 Euclidean ball): the unitaries
    diag(1, e^{i phi}) on (z_1, z_2) fix e_1 and commute with g(z_1) z, so
    f_1 does not depend on z_2 and f_2 is z_2 times a function of z_1.
    Component 1 there gives pure (1, 1) and component 2 mixed (2, 1), bit
    for bit the values of the three circles zeta e_1 and zeta (e_1 +- e_2).
    ``canonical_gap`` is that one flow's gap and the attainment gap reads
    its flowed values.

    On the rank-1 Euclidean ball only the diagonal coefficients are covered
    by the supporting-functional argument, so mixed checks are restricted to
    the rank >= 2 frames.
    """
    bound = abs(df.g_prime0(g))
    frame = dom.frame_coords if dom.rank >= 2 else tuple(range(1, min(dom.n, 2) + 1))
    mixed_pairs = (
        [(a, b) for a in dom.frame_coords for b in dom.frame_coords if a != b]
        if dom.rank >= 2 else []
    )
    entries: List[Tuple[str, float]] = []
    requests = [(idx, idx, carath.PURE) for idx in frame]
    requests += [(a, b, carath.MIXED) for a, b in mixed_pairs]

    label = f"Sg0_sample[pieces={pieces}]"
    gaps = []
    for s, schedule in enumerate(sample_Sg0(g, dom, rng, pieces, N)):
        fmap = (lf.parametric_holmap(schedule, ode_tol=SAMPLER_ODE_TOL, label=label)
                if s % ORACLE_STRIDE == 0 else None)
        coeffs, _, gap = _exact_coeffs(lf.parametric_quadratic(schedule), requests, fmap)
        if gap is not None:
            gaps.append(gap)
        for (a, b, kind), val in coeffs.items():
            entries.append((f"sample#{s}:{kind}({a},{b})", float(abs(val))))

    # the mixed candidate only on rank >= 2; (name, reported key, key of f)
    sharp = [("g(z1)z", (1, 1, carath.PURE), (1, 1, carath.PURE)),
             ("g(z2)z", (1, 2, carath.MIXED), (2, 1, carath.MIXED))][:dom.rank]
    flowed = [key for _, _, key in sharp]
    sharp_field = lf.autonomous_field(carath.disc_multiple_map(g, np.eye(dom.n)[0], dom), dom)

    def one_circle(f, keys):
        vals = f.values(carath.dft_circles([(1, 2 if dom.rank >= 2 else None, 1.0)], dom.n))
        return {(i, j, kind): carath._reconcile(*carath.circle_dft(vals, 0, i), f"{kind}({i},{j})")
                for i, j, kind in keys}

    exact, ode, canonical_gap = _exact_coeffs(
        lf.parametric_quadratic(sharp_field), flowed,
        lf.parametric_holmap(sharp_field, label="parametric[g(z1)z]"), one_circle)
    for name, (i, j, kind), key in sharp:
        entries.append((f"parametric[{name}]:{kind}({i},{j})", float(abs(exact[key]))))
    attain_gap = max(abs(abs(ode[key]) - bound) for key in flowed)

    best = max(entries, key=lambda e: e[1])
    violations = [(name, val) for name, val in entries if val > bound + tolerance]
    if attain_gap > tolerance:
        violations.append(("attainment-gap", attain_gap))
    return BoundReport((1, 1, "gprime"), bound, best[1], best[0],
                       n_samples=N, violations=violations, tolerance=tolerance,
                       oracle_checks=len(gaps), oracle_gap=max(gaps, default=0.0),
                       canonical_gap=canonical_gap)


def verify_shear_commutes(schedule: lf.HerglotzField, i: int = 1, j: int = 2) -> float:
    """Residual of shearing/parametric-limit commutation.

    Shears the schedule segment by segment, computes both parametric maps,
    and returns the max norm of shear(limit of schedule) - limit(sheared
    schedule) over 24 sample points with norms from 0.1 to 0.5.
    """
    dom = schedule.domain
    carath._check_pair(dom, i, j)
    sheared = lf.HerglotzField(
        schedule.times, tuple(carath.shear(h, i, j) for h in schedule.maps), dom)
    f_map = lf.parametric_holmap(schedule, ode_tol=SAMPLER_ODE_TOL)
    lhs_map = carath.shear(f_map, i, j)
    rhs_map = lf.parametric_holmap(sheared, ode_tol=SAMPLER_ODE_TOL)

    rng = np.random.default_rng(20250810)
    radii = 0.1 + 0.4 * np.arange(24) / 23
    Z = bg.sample_sphere(dom, rng, 24) * radii[:, None]
    gap = lhs_map.values(Z) - rhs_map.values(Z)
    return float(np.max(np.asarray(bg.norm(dom, gap))))
