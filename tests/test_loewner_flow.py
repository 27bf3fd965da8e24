import math

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import disc_functions as df
from loewner_lab import extremal_lab as el
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import DomainError, FlowInstabilityError, NumericalInstabilityError
from oracles import (CATALOG, assert_normalized, fd_jacobian, leaving_form, random_member,
                     reference_segment, sampled_schedule)

P2 = bg.polydisc(2)
E2 = bg.euclidean(2)
SP = bg.spectral2()
#: c of the pure flow tests' leaving form z + c z_1^2 e_1, fixed so that they
#: do not move with the DFT radii: from z_1 = -0.5, z_1' = -(z_1 + c z_1^2)
#: leaves the bidisc at t = ln(29/26) = 0.109 and blows up at ln(16/13), and
#: the monitor fires on the first accepted step, at a finite norm in the ball.
#: At the DFT default 128/3 that flow blows up at t = 0.048, and its first
#: step ended on a NaN norm, not at a finite exit
LEAVING_C = 32 / 3


def identity_field(dom):
    return lf.autonomous_field(carath.identity_map(dom), dom)


def shear_field(g, dom, sign=+1):
    return lf.autonomous_field(carath.canonical_field(g, dom, 1, 2, sign), dom)


def shear_flow_closed_form(c, Z, t):
    """Triangular system: v2 = e^-t z2, v1 = e^-t z1 + c z2^2 (e^-2t - e^-t)."""
    out = np.exp(-t) * Z.copy()
    out[:, 0] += c * Z[:, 1] ** 2 * (np.exp(-2 * t) - np.exp(-t))
    return out


def koebe_flow_closed_form(Z, t):
    """Flow of the moebius field g(z_1) z: b(v_1) = e^-t b(z_1) for the Koebe
    function b(z) = z/(1-z)^2, inverted by the quadratic formula in its
    cancellation-free form, and v = (v_1/z_1) z."""
    y = np.exp(-t) * Z[:, 0] / (1.0 - Z[:, 0]) ** 2
    v1 = 2.0 * y / ((2.0 * y + 1.0) + np.sqrt(4.0 * y + 1.0))
    return (v1 / Z[:, 0])[:, None] * Z


def koebe_field(dom):
    return lf.autonomous_field(carath.disc_multiple_map(df.moebius(), np.eye(dom.n)[0], dom), dom)


def ball_points(dom, rng, count, rmax=0.9):
    Z = np.stack([bg.sample_sphere(dom, rng, 1)[0] for _ in range(count)])
    return Z * rng.uniform(0.1, rmax, count)[:, None]


# ---------------------------------------------------------------------------
# the flow


def test_flow_identity_field_closed_form():
    rng = np.random.default_rng(0)
    Z = ball_points(P2, rng, 20)
    for s, t in [(0.0, 1.0), (0.5, 2.5)]:
        res = lf.flow(identity_field(P2), Z, s, t)
        assert np.max(np.abs(res.endpoint - np.exp(-(t - s)) * Z)) < 1e-9


def test_flow_shear_field_closed_form():
    g = df.moebius()
    c = df.d1(g)
    rng = np.random.default_rng(1)
    Z = ball_points(P2, rng, 30)
    for t in (0.3, 1.0, 4.0, 10.0):
        res = lf.flow(shear_field(g, P2), Z, 0.0, t)
        assert np.max(np.abs(res.endpoint - shear_flow_closed_form(c, Z, t))) < 1e-8


def test_flow_semigroup_property():
    g = df.starlike_order(0.75)
    field = shear_field(g, P2)
    rng = np.random.default_rng(2)
    Z = ball_points(P2, rng, 10)
    tol = 1e-10
    mid = lf.flow(field, Z, 0.0, 1.3, tol=tol).endpoint
    two_leg = lf.flow(field, mid, 1.3, 2.9, tol=tol).endpoint
    direct = lf.flow(field, Z, 0.0, 2.9, tol=tol).endpoint
    assert np.max(np.abs(two_leg - direct)) < 10 * tol


def test_flow_domain_errors():
    field = identity_field(P2)
    with pytest.raises(DomainError):
        lf.flow(field, np.array([0.1, 0.2], complex), 1.0, 0.5)
    with pytest.raises(DomainError):
        lf.flow(field, np.array([1.0, 0.0], complex), 0.0, 1.0)


@pytest.mark.parametrize("dom", [P2, E2, SP], ids=lambda d: d.kind)
def test_flow_refuses_a_non_finite_start(dom):
    # a NaN norm is not >= 1: the start test must read "not < 1"
    z = np.full(dom.n, 0.1, dtype=complex)
    for bad in (np.nan, complex(0.1, np.nan)):
        z[0] = bad
        with pytest.raises(DomainError, match="not finite"):
            lf.flow(identity_field(dom), z, 0.0, 1.0)


def test_a_non_finite_stage_aborts_the_flow(monkeypatch):
    # every call after the first stage returns NaN: the error norm masks NaN
    # rows and accepts the attempt, which spans the segment, and the first
    # NaN norm must abort
    remainder = carath.remainder_map
    monkeypatch.setattr(carath, "remainder_map",
                        lambda h: CountingMap(remainder(h), spoil=range(2, 10**4), by=np.nan))
    with pytest.raises(FlowInstabilityError, match="not finite"):
        lf.flow(shear_field(df.moebius(), P2), [0.3, 0.1], 0.0, 1.0)


def test_flow_piecewise_schedule_composes_segments():
    g = df.moebius()
    h_plus = carath.canonical_field(g, P2, 1, 2, +1)
    ident = carath.identity_map(P2)
    field = lf.HerglotzField((0.0, 0.7), (h_plus, ident), P2)
    rng = np.random.default_rng(3)
    Z = ball_points(P2, rng, 10)
    res = lf.flow(field, Z, 0.0, 1.5)
    stage1 = shear_flow_closed_form(df.d1(g), Z, 0.7)
    expect = np.exp(-0.8) * stage1
    assert np.max(np.abs(res.endpoint - expect)) < 1e-8


def test_flow_norm_monotone_over_successive_end_times():
    g = df.moebius()
    rng = np.random.default_rng(4)
    member = random_member(g, P2, rng, 3)
    field = lf.autonomous_field(member, P2)
    z = bg.sample_sphere(P2, rng, 1)[0] * 0.95
    ends = 0.1 * np.arange(1, 31)
    points = [z] + [lf.flow(field, z, 0.0, t).endpoint for t in ends]
    norms = [float(bg.norm(P2, y)) for y in points]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_flow_linearization_at_origin():
    g = df.starlike_order(0.3)
    field = shear_field(g, P2, -1)
    s, t = 0.2, 1.7
    delta = 1e-6
    J = np.zeros((2, 2), complex)
    for k in range(2):
        zp = np.zeros(2, complex)
        zp[k] = delta
        plus = lf.flow(field, zp, s, t).endpoint
        minus = lf.flow(field, -zp, s, t).endpoint
        J[:, k] = (plus - minus) / (2 * delta)
    assert np.max(np.abs(J - np.exp(s - t) * np.eye(2))) < 1e-8


def test_flow_tolerance_scaling():
    # achieved error tracks the requested relative tolerance linearly.  The
    # shear field would not show it: in d = e^-t its right-hand side is
    # constant, so every tolerance integrates it exactly
    z = np.array([[0.4 + 0.2j, 0.5 - 0.1j]])
    errors = {}
    for tol in (1e-6, 1e-8, 1e-10):
        got = lf.flow(koebe_field(P2), z, 0.0, 5.0, tol=tol).endpoint
        errors[tol] = np.max(np.abs(got - koebe_flow_closed_form(z, 5.0)))
    assert errors[1e-10] < 1e-10
    assert 10.0 < errors[1e-6] / errors[1e-8] < 1000.0
    assert 10.0 < errors[1e-8] / errors[1e-10] < 1000.0


def test_flow_identity_field_is_exact_in_few_steps(monkeypatch):
    # the identity field has remainder 0, so w = e^t v is constant in d: the
    # step grows x5 per accepted step, and the result is e^-t z up to rounding.
    # No step is rejected, and each one costs 12 RHS calls
    rng = np.random.default_rng(12)
    counters = counting_remainders(monkeypatch)
    for dom in (P2, E2, bg.spectral2()):
        Z = bg.sample_sphere(dom, rng, 50) * rng.uniform(0.1, 0.9, 50)[:, None]
        res = lf.flow(identity_field(dom), Z, 0.0, 10.0)
        expect = np.exp(-10.0) * Z
        assert np.max(np.abs(res.endpoint - expect) / np.abs(expect)) <= 1e-15
        assert counters[-1].calls % 12 == 0 and counters[-1].calls // 12 <= 10


def test_flow_and_limit_match_the_flow_check_closed_forms():
    # the closed forms of the flow-check experiment, on its point set
    g = df.moebius()
    c = df.d1(g)
    field = shear_field(g, P2)
    rng = np.random.default_rng(13)
    Z = bg.sample_sphere(P2, rng, 64) * rng.uniform(0.1, 0.9, 64)[:, None]
    for t in (0.5, 2.0, 10.0):
        got = lf.flow(field, Z, 0.0, t).endpoint
        assert np.max(np.abs(got - shear_flow_closed_form(c, Z, t))) <= 1e-12
    Zs = Z * (0.7 * 0.999 / np.asarray(bg.norm(P2, Z)))[:, None]
    res = lf.parametric_map(field, Zs)
    expect = Zs.copy()
    expect[:, 0] -= c * Zs[:, 1] ** 2
    assert np.max(np.abs(res.endpoint - expect)) <= 1e-10


def monitored_norms(monkeypatch):
    """The list that the norms of every ``bg.norm`` call go into."""
    seen, norm = [], bg.norm
    monkeypatch.setattr(bg, "norm", lambda *args: seen.append(norm(*args)) or seen[-1])
    return seen


def test_flow_leaving_the_ball_raises_flow_instability(monkeypatch):
    # h = z + (32/3) z_1^2 e_1 pushes z_1 = -0.5 outward; the norm check on
    # v = d w catches it, in a flow and in a parametric limit, at a finite
    # norm that grew inside the ball
    field = lf.autonomous_field(leaving_form(P2, 1, LEAVING_C), P2)
    for run in (lambda z: lf.flow(field, z, 0.0, 1.0), lambda z: lf.parametric_map(field, z)):
        norms = monitored_norms(monkeypatch)
        with pytest.raises(FlowInstabilityError, match="ball exit"):
            run(np.array([[-0.5, 0.2j]]))
        assert 0.5 < norms[-1][0] < 1.0


def test_flow_rejects_a_segment_past_the_underflow_limit():
    # e^-s underflows past s ~ 708: the flow refuses before it integrates,
    # and the same span still flows in two calls
    field = shear_field(df.moebius(), P2)
    z = np.array([0.3, 0.2j])
    with pytest.raises(DomainError, match="limit 700"):
        lf.flow(field, z, 0.0, 720.0)
    with np.errstate(over="raise", invalid="raise"):
        half = lf.flow(field, z, 0.0, 360.0).endpoint
        assert np.all(np.isfinite(lf.flow(field, half, 360.0, 720.0).endpoint))
    assert np.max(np.abs(lf.flow(field, z, 0.0, lf.MAX_SEGMENT).endpoint)) < 1e-300


# ---------------------------------------------------------------------------
# parametric limits


def test_parametric_identity_field_is_identity():
    rng = np.random.default_rng(5)
    Z = ball_points(P2, rng, 10)
    res = lf.parametric_map(identity_field(P2), Z)
    assert np.max(np.abs(res.endpoint - Z)) < 1e-8


def test_parametric_shear_field_gives_support_map():
    g = df.moebius()
    c = df.d1(g)
    rng = np.random.default_rng(6)
    Z = ball_points(P2, rng, 25, rmax=0.7)
    res = lf.parametric_map(shear_field(g, P2, +1), Z)
    expect = Z.copy()
    expect[:, 0] -= c * Z[:, 1] ** 2
    assert np.max(np.abs(res.endpoint - expect)) < 1e-6


def test_parametric_map_is_normalized():
    g = df.starlike_order(0.75)
    fmap = lf.parametric_holmap(shear_field(g, P2, -1))
    zero = np.zeros((1, 2), complex)
    assert np.linalg.norm(fmap.values(zero)) < 1e-12
    J = fd_jacobian(fmap, zero)[0]
    assert np.max(np.abs(J - np.eye(2))) < 1e-7


def test_parametric_disc_multiple_matches_radial_transform():
    # field g(z_1) z flows to (b(z_1)/z_1) z, the cross-module oracle
    g = df.moebius()
    h = carath.disc_multiple_map(g, np.array([1.0, 0.0], dtype=complex), P2)
    field = lf.autonomous_field(h, P2)
    rng = np.random.default_rng(7)
    Z = ball_points(P2, rng, 15, rmax=0.7)
    res = lf.parametric_map(field, Z)
    factor = lf.koebe_transform(g, Z[:, 0]) / Z[:, 0]
    expect = factor[:, None] * Z
    assert np.max(np.abs(res.endpoint - expect)) < 1e-6


# ---------------------------------------------------------------------------
# starlikeness and the chain equation


def test_parametric_quadratic_closed_forms():
    g = df.starlike_order(0.25)
    h = carath.canonical_field(g, P2, 1, 2, -1)
    Q_h = h.form.quadratic(2)
    assert np.array_equal(lf.parametric_quadratic(lf.autonomous_field(h, P2)), -Q_h)
    # the identity on [0, 0.5) leaves only the tail weight e^{-1/2} to h
    field = lf.HerglotzField((0.0, 0.5), (carath.identity_map(P2), h), P2)
    assert np.allclose(lf.parametric_quadratic(field), -np.exp(-0.5) * Q_h, rtol=1e-15)
    field = lf.HerglotzField((0.0, 0.5), (h, carath.identity_map(P2)), P2)
    assert np.allclose(lf.parametric_quadratic(field), -(1 - np.exp(-0.5)) * Q_h, rtol=1e-15)


def test_parametric_quadratic_needs_no_flow():
    # read off the forms: exact on a schedule whose flow leaves the ball
    h = leaving_form(P2, 1, LEAVING_C)
    field = lf.HerglotzField((0.0, 0.5), (carath.identity_map(P2), h), P2)
    assert np.allclose(lf.parametric_quadratic(field), -np.exp(-0.5) * h.form.quadratic(2),
                       rtol=1e-15)
    with pytest.raises(FlowInstabilityError, match="ball exit"):
        lf.parametric_map(field, np.array([[-0.5, 0.2j]]))


@pytest.mark.parametrize("dom,g", [(bg.polydisc(2), df.moebius()), (bg.polydisc(3), df.moebius()),
                                   (E2, df.starlike_order(0.3)),
                                   (bg.euclidean(3), df.starlike_order(0.3)),
                                   (bg.spectral2(), df.strongly_starlike(0.5))],
                         ids=["polydisc2", "polydisc3", "euclidean2", "euclidean3", "spectral2"])
def test_parametric_quadratic_matches_sampled_flows(dom, g):
    coords = dom.frame_coords if dom.rank >= 2 else tuple(range(1, dom.n + 1))
    requests = [(i, j, carath.PURE) for i in coords for j in coords]
    requests += [(i, j, carath.MIXED) for i in coords for j in coords if i != j]
    rng = np.random.default_rng(19)
    for _ in range(2):
        field = sampled_schedule(g, dom, rng, 3)
        exact = carath.quadratic_coeffs(lf.parametric_quadratic(field), requests)
        ode = carath.second_coeff_bundle(
            lf.parametric_holmap(field, ode_tol=el.SAMPLER_ODE_TOL), requests)
        assert max(abs(exact[key] - ode[key]) for key in requests) <= 1e-7


def test_check_starlike_identity_passes():
    rng = np.random.default_rng(8)
    cert = lf.check_starlike_chain(carath.identity_map(P2), df.moebius(), P2, 200, rng)
    assert cert.passed


def test_check_starlike_support_map_passes():
    g = df.moebius()
    F = carath.canonical_field(g, P2, 1, 2, +1)  # z + d1 z2^2 e1
    rng = np.random.default_rng(9)
    cert = lf.check_starlike_chain(F, g, P2, 300, rng)
    assert cert.passed, cert.witness


def test_check_starlike_doubled_coefficient_fails():
    g = df.moebius()
    F = carath.scale_term(carath.canonical_field(g, P2, 1, 2, +1), 1, (0, 2), 2.0)
    rng = np.random.default_rng(10)
    cert = lf.check_starlike_chain(F, g, P2, 300, rng)
    assert not cert.passed


def test_check_starlike_singular_jacobian_fails_at_the_earliest_singular_point():
    # det DF = 1 + z1/0.9 for F = z + z1^2/1.8 e1 vanishes at z1 = -0.9, on the
    # certification torus of radius 0.9: h = [DF]^-1 F is NaN there, which
    # fails with margin -inf, and the first such row is the witness
    F = carath.PolynomialMap({(1, (1, 0)): 1.0, (2, (0, 1)): 1.0, (1, (2, 0)): 1 / 1.8}, P2,
                             normalized=True)
    cert = lf.check_starlike_chain(F, df.moebius(), P2, 50, np.random.default_rng(1))
    Z = carath.certification_points(P2, 50, np.random.default_rng(1))
    first = np.flatnonzero(np.abs(1.0 + Z[:, 0] / 0.9) < 1e-12)[0]
    assert not cert.passed and cert.samples_used == len(Z) == 12346
    assert cert.worst_margin == cert.witness["margin"] == -np.inf
    assert np.array_equal(cert.witness["z"], Z[first])
    assert np.isnan(cert.witness["value"])


# ---------------------------------------------------------------------------
# the radial transform b


def test_koebe_transform_moebius_is_koebe_function():
    rng = np.random.default_rng(12)
    zeta = 0.95 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    got = lf.koebe_transform(df.moebius(), zeta)
    expect = zeta / (1.0 - zeta) ** 2
    assert np.max(np.abs(got - expect)) < 1e-9


def test_koebe_normalization():
    for g in (df.moebius(), df.starlike_order(0.6)):
        assert lf.koebe_transform(g, 0.0) == 0.0
        h = 1e-4
        slope = (lf.koebe_transform(g, h) - lf.koebe_transform(g, -h)) / (2 * h)
        assert slope == pytest.approx(1.0, abs=1e-7)


def test_koebe_ode_residual_with_cauchy_derivative():
    g = df.starlike_order(0.75)
    rays = np.array([0.0, np.pi / 3, 4.0])
    radii = np.array([0.1, 0.4, 0.7, 0.85])
    zeta = (radii[:, None] * np.exp(1j * rays[None, :])).ravel()
    b = lf.koebe_transform(g, zeta)
    for r in (1e-2, 5e-3):
        theta = 2 * np.pi * np.arange(32) / 32
        ring = r * np.exp(1j * theta)
        samples = lf.koebe_transform(g, zeta[:, None] + ring[None, :])
        bp = (samples * np.exp(-1j * theta)[None, :]).mean(axis=1) / r
        residual = np.abs(zeta * bp / b - 1.0 / df._eval_raw(g, zeta))
        assert np.max(residual) < 1e-8


def test_koebe_growth_inequality():
    g = df.moebius()
    C = lf.growth_constant(g)
    assert C == pytest.approx(2.0, abs=1e-6)
    b_half = lf.koebe_transform(g, 0.5).real
    for rho in (0.9, 0.99):
        b_rho = lf.koebe_transform(g, rho).real
        assert b_rho >= b_half * (2 * (1 - rho)) ** (-C) * (1 - 1e-9)


def test_koebe_domain_error():
    with pytest.raises(DomainError):
        lf.koebe_transform(df.moebius(), 1.0)


#: the g the radial construction accepts, g(z) = (1-z)/(1+beta z), with beta
RADIAL_BETAS = [(df.moebius(), 1.0), (df.starlike_order(0.3), 0.4),
                (df.starlike_order(0.75), -0.5), (df.almost_starlike(0.0), 1.0),
                (df.strongly_starlike(1.0), 1.0)]
RADIAL_FORMS = [g for g, _ in RADIAL_BETAS]


@pytest.mark.parametrize("g", RADIAL_FORMS, ids=df.describe)
def test_parametric_map_of_the_disc_multiple_is_the_radial_map(g):
    # the parametric limit of g(z_1) z is (b(z_1)/z_1) z with b in closed
    # form, on every geometry, to 1e-11 relative at |z| <= 0.4
    for dom in (P2, bg.euclidean(3), bg.spectral2()):
        rng = np.random.default_rng(8)
        Z = bg.sample_sphere(dom, rng, 40) * rng.uniform(0.01, 0.4, 40)[:, None]
        field = lf.autonomous_field(carath.disc_multiple_map(g, np.eye(dom.n)[0], dom), dom)
        got = lf.parametric_map(field, Z).endpoint
        ref = lf.unbounded_support_map(g, dom).values(Z)
        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref).max(axis=1, keepdims=True))


def koebe_quadrature(g, zeta, nodes=32, panels=12):
    """Independent oracle: b = zeta exp(int_0^1 (1/g(s zeta) - 1)/s ds) by
    composite Gauss-Legendre on [0, 1/2], [1/2, 3/4], ..., panels halving
    toward the pole of 1/g just past s = 1 (for |zeta| < 0.999)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.append(1.0 - 0.5 ** np.arange(panels), 1.0)
    a, b = edges[:-1, None], edges[1:, None]
    s = (a + 0.5 * (b - a) * (x + 1.0)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    integrand = (1.0 / df._eval_raw(g, zeta[:, None] * s) - 1.0) / s
    return zeta * np.exp(integrand @ weights)


@pytest.mark.parametrize("g,beta", RADIAL_BETAS, ids=[df.describe(g) for g in RADIAL_FORMS])
def test_koebe_closed_form_matches_quadrature(g, beta):
    rng = np.random.default_rng(34)
    zeta = 0.999 * np.sqrt(rng.random(4000)) * np.exp(2j * np.pi * rng.random(4000))
    expect = koebe_quadrature(g, zeta)
    assert np.max(np.abs(lf.koebe_transform(g, zeta) - expect) / np.abs(expect)) <= 1e-12
    # (1-rho)/(rho g(rho)) decreases to the growth constant 1 + beta
    assert lf.radial_beta(g) == beta and lf.growth_constant(g) == 1.0 + beta
    rho = 1.0 - 1e-9
    assert (1.0 - rho) / (rho * df._eval_raw(g, rho).real) == pytest.approx(1.0 + beta, abs=1e-8)


class CountingMap(carath.HolMap):
    """Delegates to ``inner``, counts ``values`` calls and keeps their
    points; the calls numbered in ``spoil`` (from 1) return the value plus
    ``by``."""

    def __init__(self, inner, spoil=(), by=0.1):
        self.inner, self.domain, self.normalized = inner, inner.domain, True
        self.calls, self.spoil, self.by, self.points = 0, set(spoil), by, []

    def values(self, Z):
        self.calls += 1
        self.points.append(Z)
        out = self.inner.values(Z)
        return out + self.by if self.calls in self.spoil else out

    def stage_ds(self, w):
        """The d of each call, for a flow whose w stays put: a stage at d
        evaluates the remainder at d w."""
        return [float((Z[0, 0] / w[0, 0]).real) for Z in self.points]


def counting_remainders(monkeypatch):
    """The list that every remainder ``flow`` integrates goes into, as a
    CountingMap."""
    counters = []
    remainder = carath.remainder_map

    def counted(h):
        counters.append(CountingMap(remainder(h)))
        return counters[-1]

    monkeypatch.setattr(carath, "remainder_map", counted)
    return counters


def test_dop853_accounting_reuses_the_accepted_stage():
    # the remainder of the identity is 0, so w stays put from d = 1 to 0.99
    y = np.array([[0.3 + 0.1j, -0.2j]])
    zero = carath.remainder_map(carath.identity_map(P2))
    # one accepted step: the first stage and 11 more
    plain = CountingMap(zero)
    lf._integrate_segment(plain, P2, y, 1.0, 0.99, 1e-10, 0.1)
    assert plain.calls == 12
    # a spoiled sixth stage (the first one the error rows weigh after the
    # first) rejects the first attempt; the retry starts from the same point
    # and keeps its first stage: 12 + 11 calls to the first accepted step,
    # then one evaluation at the accepted point, which is the first stage of
    # the step to the segment end, and its 11 stages
    spoiled = CountingMap(zero, spoil={6})
    end, _ = lf._integrate_segment(spoiled, P2, y, 1.0, 0.99, 1e-10, 0.1)
    assert spoiled.calls == 35
    assert [spoiled.stage_ds(y)[k] for k in (0, 23)] == pytest.approx([1.0, 0.998], abs=1e-15)
    assert np.array_equal(end, y)


def test_flow_carries_the_step_across_breakpoints(monkeypatch):
    # on g(z1) z from (0.3 + 0.1i, -0.2i), the step the first segment [0, 0.7]
    # hands on, 0.08 in d, is shorter than the next segment [0.7, 1.4], 0.25
    # in d, so a carried step and a restart spanning the segment differ
    y = np.array([[0.3 + 0.1j, -0.2j]])
    h = koebe_field(P2).maps[0]
    rem = carath.remainder_map(h)
    first = CountingMap(rem)
    w, step = lf._integrate_segment(first, P2, y, 1.0, math.exp(-0.7), 1e-10, math.inf)
    carried, restarted = CountingMap(rem), CountingMap(rem)
    for counter, start in ((carried, step), (restarted, math.inf)):
        lf._integrate_segment(counter, P2, w, math.exp(-0.7), math.exp(-1.4), 1e-10, start)
    assert step < math.exp(-0.7) - math.exp(-1.4) and carried.calls != restarted.calls
    # a flow across the breakpoint at 0.7 takes the first segment's calls
    # from a whole-segment attempt, then goes on from the step it handed on
    counters = counting_remainders(monkeypatch)
    lf.flow(lf.HerglotzField((0.0, 0.7), (h, h), P2), y, 0.0, 1.4)
    assert [c.calls for c in counters] == [first.calls, carried.calls]


def test_a_last_step_within_a_tenth_of_the_step_is_taken_whole():
    # the identity's remainder is 0, so w stays put and every step is
    # accepted, the controller proposing 5x the step it took.  From d = 1 to
    # 0.375 with 0.1 first, the rest 0.525 is within 1.1 x 0.5 of the
    # proposal: one step of 0.525 ends the segment, not 0.5 and a 0.025 sliver
    zero = carath.remainder_map(carath.identity_map(P2))
    y = np.array([[0.3 + 0.1j, -0.2j]])
    for kernel in (lf._integrate_segment, reference_segment):
        plain = CountingMap(zero)
        kernel(plain, P2, y, 1.0, 0.375, 1e-10, 0.1)
        assert plain.calls == 24
        assert [plain.stage_ds(y)[k] for k in (12, 23)] == pytest.approx([0.9, 0.375], abs=1e-15)
        # a spoiled sixth stage rejects the stretched attempt; the retry is
        # shorter than the rest (its last stage, at d1 + r - ds, lies above
        # d1), so it is never stretched again, and the segment ends
        spoiled = CountingMap(zero, spoil={18})
        end, _ = kernel(spoiled, P2, y, 1.0, 0.375, 1e-10, 0.1)
        retry_end = spoiled.stage_ds(y)[34]
        assert 0.375 < retry_end < 0.9 and spoiled.stage_ds(y)[-1] == pytest.approx(0.375)
        assert np.array_equal(end, y)


def same_segment(got, want):
    """Equal endpoints, part by part as floats (an exact zero may differ in
    sign alone), and equal next steps."""
    return np.array_equal(got[0].view(float), want[0].view(float)) and got[1] == want[1]


def both_kernels(monkeypatch):
    """The list of (endpoint, step) of every segment ``flow`` integrates,
    each checked against ``oracles.reference_segment``, the kernel in plain
    complex arithmetic, on the same segment."""
    kernel, checked = lf._integrate_segment, []

    def both(*args):
        got, want = kernel(*args), reference_segment(*args)
        assert same_segment(got, want)
        checked.append(got)
        return got

    monkeypatch.setattr(lf, "_integrate_segment", both)
    return checked


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), E2, SP], ids=lambda d: f"{d.kind}-{d.n}")
def test_kernel_matches_the_complex_reference_on_report_flows(dom, monkeypatch):
    # the limits a report flows, on the DFT circles it flows them on: a 1- and
    # a 3-piece sampled schedule and g(z1)z, for every catalog g
    checked = both_kernels(monkeypatch)
    requests = [(1, 1, carath.PURE), (1, 2, carath.MIXED)]
    for k, g in enumerate(CATALOG):
        rng = np.random.default_rng(300 + k)
        fields = [sampled_schedule(g, dom, rng, pieces) for pieces in (1, 3)]
        sharp = carath.disc_multiple_map(g, np.eye(dom.n)[0], dom)
        for field in (*fields, lf.autonomous_field(sharp, dom)):
            carath.second_coeff_bundle(lf.parametric_holmap(field), requests)
    assert len(checked) == 5 * len(CATALOG)


def test_kernel_matches_the_reference_through_rejections_and_on_no_points():
    # spoiled stages reject attempts, whose retries keep their first stage;
    # on the sharp field g(z1)z the predictive factor sets most later steps
    rem = carath.remainder_map(carath.disc_multiple_map(df.moebius(), np.eye(2)[0], P2))
    y = np.array([[0.3 + 0.1j, -0.2j], [0.1, 0.4 - 0.3j]])
    plain = CountingMap(rem)
    spoiled, spoiled_ref = (CountingMap(rem, spoil={6, 30}) for _ in range(2))
    reference_segment(plain, P2, y, 1.0, 0.01, 1e-10, 0.1)
    got = lf._integrate_segment(spoiled, P2, y, 1.0, 0.01, 1e-10, 0.1)
    want = reference_segment(spoiled_ref, P2, y, 1.0, 0.01, 1e-10, 0.1)
    assert spoiled.calls == spoiled_ref.calls > plain.calls
    assert same_segment(got, want)
    empty = np.zeros((0, 2), dtype=complex)
    for kernel in (lf._integrate_segment, reference_segment):
        end, step = kernel(CountingMap(rem), P2, empty, 1.0, 0.01, 1e-10, 0.1)
        assert end.shape == (0, 2) and step == 0.1


#: (g, domain) of three gprime sharp flows, parametric[g(z1)z], on their DFT
#: circles.  With the moebius g their right-hand side is singular at
#: |d| = 1/(4|b(z1)|) for Koebe's b, 961/128 = 7.5 at radius 1/32, and the
#: first attempt, spanning the segment, is accepted.  At radii 1/8 and 1/16,
#: with that singularity at 1.53, they took 59, 35 and 35 RHS calls
SHARP_FLOWS = [(df.moebius(), P2), (df.starlike_order(0.3), E2), (df.strongly_starlike(0.5), SP)]


@pytest.mark.parametrize("g,dom", SHARP_FLOWS, ids=["P2", "E2", "spectral2"])
def test_sharp_gprime_flows_take_one_attempt(g, dom, monkeypatch):
    # an accepted attempt costs 12 calls and a rejected one 11, so 12 calls
    # are one accepted attempt and no rejected one
    counters = counting_remainders(monkeypatch)
    sharp = lf.autonomous_field(carath.disc_multiple_map(g, np.eye(dom.n)[0], dom), dom)
    requests = [(1, 1, carath.PURE)] + [(2, 1, carath.MIXED)] * (dom.rank >= 2)
    carath.second_coeff_bundle(lf.parametric_holmap(sharp), requests)
    assert [c.calls for c in counters] == [12]


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), E2, bg.euclidean(3), SP],
                         ids=["P2", "P3", "E2", "E3", "spectral2"])
def test_every_catalog_sharp_flow_takes_one_step(dom, monkeypatch):
    # gprime at N = 0 flows its sharp map alone, on one circle at both DFT
    # radii: for every catalog g one accepted 12-call attempt spans the
    # segment, and the flowed coefficients match the exact ones to rounding
    # (3.3e-15 at most over these five domains and 16 g: moebius and three
    # families at five alphas each)
    counters = counting_remainders(monkeypatch)
    for g in (*CATALOG, df.starlike_order(0.3)):
        counters.clear()
        report = el.verify_gprime_bounds(g, dom, N=0, rng=np.random.default_rng(0))
        assert report.passed, report.violations
        assert [c.calls for c in counters] == [12], df.describe(g)
        assert report.canonical_gap <= 1e-14, df.describe(g)


@pytest.mark.parametrize("g,dom", SHARP_FLOWS, ids=["P2", "E2", "spectral2"])
def test_the_canonical_scan_flow_takes_one_attempt(g, dom, monkeypatch):
    # parametric[h+] of a scan, on its e_j circle: the remainder c z_j^2 e_i
    # makes the right-hand side constant in d, so the attempt spanning the
    # segment from d = 1 to e^-HORIZON is exact and accepted, in 12 calls
    counters = counting_remainders(monkeypatch)
    report = el.scan_support(g, dom, 1, 2, N=0, rng=np.random.default_rng(0))
    assert report.passed and [c.calls for c in counters] == [12]


def test_the_step_history_resets_at_every_breakpoint(monkeypatch):
    # a 3-piece flow takes the calls of its segments run one by one, the
    # first from an attempt spanning it, each later one handed only the point
    # and the step the last one ended with
    field = sampled_schedule(df.moebius(), P2, np.random.default_rng(30), 3)
    Z = ball_points(P2, np.random.default_rng(31), 16)
    bounds = [*field.times, lf.HORIZON]
    w, step, alone = Z.copy(), math.inf, []
    for h, a, b in zip(field.maps, bounds, bounds[1:]):
        rem = CountingMap(carath.remainder_map(h))
        w, step = lf._integrate_segment(rem, P2, w, math.exp(-a), math.exp(-b), 1e-10, step)
        alone.append(rem.calls)
    counters = counting_remainders(monkeypatch)
    lf.flow(field, Z, 0.0, lf.HORIZON)
    assert [c.calls for c in counters] == alone and len(alone) == 3


def test_flow_leaves_the_callers_error_state_alone():
    # the kernel ignores division by zero for its whole segment and restores
    # the caller's state on return and on a raise
    before = np.geterr()
    lf.flow(shear_field(df.moebius(), P2), [0.3, 0.1], 0.0, 1.0)
    assert np.geterr() == before
    with pytest.raises(FlowInstabilityError):
        lf.flow(lf.autonomous_field(leaving_form(P2, 1, LEAVING_C), P2), [-0.5, 0.2j], 0.0, 1.0)
    assert np.geterr() == before


def test_flow_and_limit_of_an_empty_batch_are_empty():
    # a (0, n) batch takes no step: the endpoint is empty
    field = shear_field(df.moebius(), P2)
    empty = np.zeros((0, 2), dtype=complex)
    res = lf.flow(field, empty, 0.0, 3.0)
    assert res.endpoint.shape == (0, 2) and res.horizon_used == 3.0
    limit = lf.parametric_map(field, empty)
    assert limit.endpoint.shape == (0, 2) and limit.horizon_used == lf.HORIZON


def test_dop853_tableau_conditions():
    # the order conditions the inlined constants must meet, without scipy
    c, b = lf._DOP_C, lf._DOP_B
    assert np.sum(b) == pytest.approx(1.0, abs=1e-14)
    for i in range(1, 12):
        assert np.sum(lf._DOP_A[i]) == pytest.approx(c[i], abs=1e-13)
    for k in range(8):
        assert np.sum(b * c ** k) == pytest.approx(1.0 / (k + 1), abs=1e-14)
    assert np.allclose(np.sum(lf._DOP_E, axis=1), 0.0, atol=1e-14)


def test_dop853_step_is_eighth_order():
    # one fixed step on u' = lam u has local error O(h^9): halving h must cut
    # it at least 2^8-fold
    lam = -1.0 + 2.0j

    def step_error(h):
        K = np.zeros(12, complex)
        K[0] = lam
        for i in range(1, 12):
            K[i] = lam * (1.0 + h * (lf._DOP_A[i] @ K[:i]))
        return abs(1.0 + h * (lf._DOP_B @ K) - np.exp(lam * h))

    assert step_error(0.4) / step_error(0.2) >= 2 ** 8
    assert step_error(0.2) / step_error(0.1) >= 2 ** 8


def test_canonical_parametric_map_rhs_call_budget(monkeypatch):
    # 36 RHS calls in d = e^-t, where the remainder c z_2^2 e_1 makes the
    # right-hand side constant in d; u = e^t v with 5-unit checkpoints took
    # about 260, step-doubling RK4 802, integrating v itself 6900, and the
    # d-frame with h(x) - x evaluated by subtraction 1232
    counters = counting_remainders(monkeypatch)
    g = df.moebius()
    h = carath.canonical_field(g, P2, 1, 2, +1)
    rng = np.random.default_rng(14)
    Z = bg.sample_sphere(P2, rng, 128) * 0.7
    res = lf.parametric_map(lf.autonomous_field(h, P2), Z)
    assert len(counters) == 1 and isinstance(counters[0].inner, carath.CompositeMap)
    assert counters[0].calls <= 60
    expect = Z.copy()
    expect[:, 0] -= df.d1(g) * Z[:, 1] ** 2
    assert np.max(np.abs(res.endpoint - expect)) <= 1e-14


# ---------------------------------------------------------------------------
# the unbounded support map


def test_unbounded_support_map_values_and_coefficient():
    g = df.moebius()
    fmap = lf.unbounded_support_map(g, E2)
    z = np.zeros((1, 2), complex)
    z[0, 0] = 0.99
    grown = float(np.asarray(bg.norm(E2, fmap.values(z)))[0])
    assert grown == pytest.approx(0.99 / 0.01**2, rel=1e-6)
    assert_normalized(fmap)
    diag = carath.second_coeff(fmap, 1, 1, carath.PURE)
    assert diag == pytest.approx(-df.g_prime0(g), abs=1e-7)


def test_unbounded_support_map_decay_precondition():
    # the closed form holds only for g = (1-z)/(1+beta z): every entry to the
    # radial construction raises on any other g rather than return the values
    # of another map
    for g in (df.strongly_starlike(0.5), df.almost_starlike(0.3)):
        for build in (lambda: lf.unbounded_support_map(g, E2), lambda: lf.koebe_transform(g, 0.5),
                      lambda: lf.growth_constant(g), lambda: lf.KoebeRadialMap(g, E2)):
            with pytest.raises(DomainError):
                build()
    # boundary parameter values reduce to admissible families
    lf.unbounded_support_map(df.strongly_starlike(1.0), E2)
    lf.unbounded_support_map(df.almost_starlike(0.0), P2)


def test_radial_map_values_and_jacobian():
    g = df.moebius()
    rng = np.random.default_rng(33)
    radial = lf.unbounded_support_map(g, P2)
    assert isinstance(radial, lf.KoebeRadialMap) and radial.normalized
    Z = np.stack([bg.sample_sphere(P2, rng, 1)[0] * rng.uniform(0.05, 0.5) for _ in range(8)])
    ref = (lf.koebe_transform(g, Z[:, 0]) / Z[:, 0])[:, None] * Z
    assert np.all(np.abs(radial.values(Z) - ref) <= 1e-14 * (1.0 + np.abs(ref)))
    fd = fd_jacobian(radial, Z)
    assert np.allclose(radial.jacobian_batch(Z), fd, atol=1e-6)


@pytest.mark.parametrize("dom", [bg.polydisc(3), E2, bg.spectral2()],
                         ids=["polydisc3", "euclidean2", "spectral2"])
def test_unbounded_support_map_is_starlike(dom):
    for g in RADIAL_FORMS:
        fmap = lf.unbounded_support_map(g, dom)
        rng = np.random.default_rng(13)
        cert = lf.check_starlike_chain(fmap, g, dom, 200, rng)
        assert cert.passed, (df.describe(g), cert.witness)


# ---------------------------------------------------------------------------
# schedules


def test_field_validation():
    with pytest.raises(DomainError):
        lf.HerglotzField((0.5,), (carath.identity_map(P2),), P2)
    with pytest.raises(DomainError):
        lf.HerglotzField((0.0, 0.0), (carath.identity_map(P2),) * 2, P2)


def test_make_field_lays_generators_on_consecutive_segments():
    g = df.moebius()
    rng = np.random.default_rng(14)
    maps = [random_member(g, P2, rng, 2) for _ in range(3)]
    field = lf.make_field(maps, P2)
    assert field.times == (0.0, lf.SEGMENT_DT, 2 * lf.SEGMENT_DT)
    assert field.maps == tuple(maps)


def test_flow_aborts_on_norm_growth(monkeypatch):
    # z_1' = -(z_1 + (32/3) z_1^2) grows from -0.3, to about -0.390 at t = 0.1;
    # the monitor must abort at the first growth, deep inside the ball
    field = lf.autonomous_field(leaving_form(P2, 1, LEAVING_C), P2)
    norms = monitored_norms(monkeypatch)
    with pytest.raises(NumericalInstabilityError):
        lf.flow(field, np.array([-0.3, 0.0], complex), 0.0, 0.1)
    # the start is checked, then the segment's start, then the one step
    assert len(norms) == 3 and 0.3 < norms[-1][0] <= 0.391


def test_field_refuses_a_generator_without_an_array_form():
    # nothing checks Dh(0) = I on a map known by its values alone: flagged
    # normalized, 0.5 z would give a parametric limit near 1e8 at (0.3, 0.1)
    for fn in (lambda Z: 0.5 * Z, lambda Z: -Z):
        boxed = carath.BlackBoxMap(fn, P2, normalized=True)
        with pytest.raises(DomainError, match="array form"):
            lf.autonomous_field(boxed, P2)
        with pytest.raises(DomainError, match="array form"):
            lf.make_field([carath.identity_map(P2), boxed], P2)
    with pytest.raises(DomainError, match="array form"):
        lf.autonomous_field(lf.unbounded_support_map(df.moebius(), P2), P2)


def test_field_refuses_a_generator_on_another_domain():
    # the Euclidean canonical field (factor 3 sqrt(3)/2) is no M_g member on
    # the bidisc, and a polydisc(3) identity would flow 2-vectors on the bidisc
    euclidean_shear = carath.canonical_field(df.moebius(), E2, 1, 2, 1)
    with pytest.raises(DomainError, match="domain"):
        lf.autonomous_field(euclidean_shear, P2)
    with pytest.raises(DomainError, match="domain"):
        lf.autonomous_field(carath.identity_map(bg.polydisc(3)), P2)
    with pytest.raises(DomainError, match="domain"):
        lf.make_field([carath.identity_map(P2), euclidean_shear], P2)


def test_parametric_limit_tail_past_the_horizon_is_below_rounding():
    # e^t v(z, t) moves by O(e^-t) past t = HORIZON: a flow 10 units further
    # gives the same limit to 1e-15 relative, on a sampled schedule and on
    # g(z_1) z, whose limit reaches |b(z_1)| ~ 8 at |z| = 0.7
    rng = np.random.default_rng(21)
    Z = bg.sample_sphere(P2, rng, 16) * 0.7
    fields = (koebe_field(P2), sampled_schedule(df.moebius(), P2, rng, 3))
    for field in fields:
        res = lf.parametric_map(field, Z)
        assert res.horizon_used == lf.HORIZON
        longer = np.exp(lf.HORIZON + 10.0) * lf.flow(field, Z, 0.0, lf.HORIZON + 10.0).endpoint
        scale = np.max(np.abs(longer), axis=1, keepdims=True)
        assert np.max(np.abs(res.endpoint - longer) / scale) <= 1e-15


def test_parametric_map_runs_a_long_schedule():
    # 60 segments of 0.5: the last ones are e^-30 long in d, so the step
    # floor must scale with d.  One generator on every segment is the
    # autonomous field, whose flow has no breakpoints
    g = df.moebius()
    rng = np.random.default_rng(23)
    Z = bg.sample_sphere(P2, rng, 8) * 0.6
    h = random_member(g, P2, rng, 3)
    res = lf.parametric_map(lf.make_field([h] * 60, P2), Z)
    ref = lf.parametric_map(lf.autonomous_field(h, P2), Z)
    assert np.max(np.abs(res.endpoint - ref.endpoint)) <= 1e-12
    # a random schedule as long, checked against its exact quadratic part
    field = sampled_schedule(g, P2, rng, 60)
    eps = 1e-3
    U = bg.sample_sphere(P2, rng, 4)
    quad = np.einsum("cab,ma,mb->mc", lf.parametric_quadratic(field), U, U)
    limit = lf.parametric_map(field, eps * U).endpoint
    assert np.allclose((limit - eps * U) / eps**2, quad, rtol=0, atol=1e-2)


def test_field_refuses_a_flagged_form_whose_linear_part_is_not_the_identity():
    # the remainder of a flagged form drops its linear part, and a limit
    # needs Dh(0) = I: a flag the form contradicts is refused up front
    doubled = carath.PolynomialMap({(1, (1, 0)): 2.0, (2, (0, 1)): 2.0}, P2, normalized=True)
    with pytest.raises(DomainError, match="Dh"):
        lf.autonomous_field(doubled, P2)
