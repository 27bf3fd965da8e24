import json

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import disc_functions as df
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import DomainError, NumericalInstabilityError, UnsupportedError

P2 = bg.polydisc(2)
E2 = bg.euclidean(2)


def identity_field(dom, g=None):
    g = g or df.moebius()
    return lf.autonomous_field(carath.identity_map(dom), g, dom)


def shear_field(g, dom, sign=+1):
    return lf.autonomous_field(carath.canonical_field(g, dom, 1, 2, sign), g, dom)


def shear_flow_closed_form(c, Z, t):
    """Triangular system: v2 = e^-t z2, v1 = e^-t z1 + c z2^2 (e^-2t - e^-t)."""
    out = np.exp(-t) * Z.copy()
    out[:, 0] += c * Z[:, 1] ** 2 * (np.exp(-2 * t) - np.exp(-t))
    return out


def ball_points(dom, rng, count, rmax=0.9):
    Z = np.stack([bg.sample_sphere(dom, rng) for _ in range(count)])
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


def test_flow_piecewise_schedule_composes_segments():
    g = df.moebius()
    h_plus = carath.canonical_field(g, P2, 1, 2, +1)
    ident = carath.identity_map(P2)
    field = lf.HerglotzField((0.0, 0.7), (h_plus, ident), g, P2, horizon=1.4)
    rng = np.random.default_rng(3)
    Z = ball_points(P2, rng, 10)
    res = lf.flow(field, Z, 0.0, 1.5)
    stage1 = shear_flow_closed_form(df.d1(g), Z, 0.7)
    expect = np.exp(-0.8) * stage1
    assert np.max(np.abs(res.endpoint - expect)) < 1e-8


def test_flow_norm_monotone_along_trajectory():
    g = df.moebius()
    rng = np.random.default_rng(4)
    member = carath.random_Mg_member(g, P2, rng, 3)
    field = lf.autonomous_field(member, g, P2)
    z = bg.sample_sphere(P2, rng) * 0.95
    res = lf.flow(field, z, 0.0, 3.0, record_trajectory=True)
    norms = [float(np.asarray(bg.norm(P2, y))[0]) for _, y in res.trajectory]
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
    # achieved error tracks the requested relative tolerance linearly
    g = df.moebius()
    c = df.d1(g)
    z = np.array([[0.4 + 0.2j, 0.5 - 0.1j]])
    errors = {}
    for tol in (1e-6, 1e-8, 1e-10):
        got = lf.flow(shear_field(g, P2), z, 0.0, 5.0, tol=tol).endpoint
        errors[tol] = np.max(np.abs(got - shear_flow_closed_form(c, z, 5.0)))
    assert errors[1e-10] < 1e-10
    assert 10.0 < errors[1e-6] / errors[1e-8] < 1000.0
    assert 10.0 < errors[1e-8] / errors[1e-10] < 1000.0


# ---------------------------------------------------------------------------
# parametric limits


def test_parametric_identity_field_is_identity():
    rng = np.random.default_rng(5)
    Z = ball_points(P2, rng, 10)
    res = lf.parametric_map(identity_field(P2), Z)
    assert res.converged
    assert np.max(np.abs(res.endpoint - Z)) < 1e-8


def test_parametric_shear_field_gives_support_map():
    g = df.moebius()
    c = df.d1(g)
    rng = np.random.default_rng(6)
    Z = ball_points(P2, rng, 25, rmax=0.7)
    res = lf.parametric_map(shear_field(g, P2, +1), Z, tol=1e-8)
    assert res.converged
    expect = Z.copy()
    expect[:, 0] -= c * Z[:, 1] ** 2
    assert np.max(np.abs(res.endpoint - expect)) < 1e-6


def test_parametric_map_is_normalized():
    g = df.starlike_order(0.75)
    fmap = lf.parametric_holmap(shear_field(g, P2, -1))
    zero = np.zeros((1, 2), complex)
    assert np.linalg.norm(fmap.values(zero)) < 1e-12
    J = fmap.jacobian_batch(zero)[0]
    assert np.max(np.abs(J - np.eye(2))) < 1e-7


def test_parametric_disc_multiple_matches_radial_transform():
    # field g(z_1) z flows to (b(z_1)/z_1) z, the cross-module oracle
    g = df.moebius()
    coeffs = np.zeros(2, complex)
    coeffs[0] = 1.0
    h = carath.disc_multiple_map(g, bg.LinearFunctional(tuple(coeffs)), P2)
    field = lf.autonomous_field(h, g, P2)
    rng = np.random.default_rng(7)
    Z = ball_points(P2, rng, 15, rmax=0.7)
    res = lf.parametric_map(field, Z, tol=1e-8)
    assert res.converged
    factor = lf.koebe_transform(g, Z[:, 0], 128) / Z[:, 0]
    expect = factor[:, None] * Z
    assert np.max(np.abs(res.endpoint - expect)) < 1e-6


# ---------------------------------------------------------------------------
# starlikeness and the chain equation


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
    F = carath.canonical_field(g, P2, 1, 2, +1)
    F.terms[(1, (0, 2))] *= 2.0
    rng = np.random.default_rng(10)
    cert = lf.check_starlike_chain(F, g, P2, 300, rng)
    assert not cert.passed


def test_check_pde_residuals():
    g = df.moebius()
    c = df.d1(g)
    rng = np.random.default_rng(11)
    ident_field = identity_field(P2)
    assert lf.check_pde(carath.identity_map(P2), ident_field, 50, rng) < 1e-12

    F = carath.canonical_field(g, P2, 1, 2, -1)  # z - c z2^2 e1
    field = shear_field(g, P2, +1)  # z + c z2^2 e1
    assert lf.check_pde(F, field, 50, rng) < 1e-10

    mismatch = lf.check_pde(F, ident_field, 200, rng)
    assert mismatch > 1e-3  # deliberate mismatch control


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
    b = lf.koebe_transform(g, zeta, 256)
    for r in (1e-2, 5e-3):
        theta = 2 * np.pi * np.arange(32) / 32
        ring = r * np.exp(1j * theta)
        samples = lf.koebe_transform(g, zeta[:, None] + ring[None, :], 256)
        bp = (samples * np.exp(-1j * theta)[None, :]).mean(axis=1) / r
        residual = np.abs(zeta * bp / b - 1.0 / df._eval_raw(g, zeta))
        assert np.max(residual) < 1e-8


def test_koebe_growth_inequality():
    g = df.moebius()
    C = lf.growth_constant(g)
    assert C == pytest.approx(2.0, abs=1e-6)
    b_half = lf.koebe_transform(g, 0.5).real
    for rho in (0.9, 0.99):
        b_rho = lf.koebe_transform(g, rho, 512).real
        assert b_rho >= b_half * (2 * (1 - rho)) ** (-C) * (1 - 1e-9)


def test_koebe_domain_error():
    with pytest.raises(DomainError):
        lf.koebe_transform(df.moebius(), 1.0)


class CountingMap(carath.HolMap):
    """Delegates to ``inner`` and counts ``values`` calls; the calls numbered
    in ``spoil`` (from 1) return a perturbed value."""

    def __init__(self, inner, spoil=()):
        self.inner, self.domain, self.normalized = inner, inner.domain, True
        self.calls, self.spoil = 0, set(spoil)

    def values(self, Z):
        self.calls += 1
        out = self.inner.values(Z)
        return out + 0.1 if self.calls in self.spoil else out


class CallMarks(list):
    """Trajectory list that notes the RHS call count at each accepted step."""

    def __init__(self, counter):
        super().__init__()
        self.counter, self.marks = counter, []

    def append(self, item):
        super().append(item)
        self.marks.append(self.counter.calls)


def test_step_doubling_shares_the_first_stage():
    y = np.array([[0.3 + 0.1j, -0.2j]])
    # one accepted step: k1 once, 3 more stages for the full step, 3 for
    # the first half step, 4 for the second (12 if k1 were recomputed)
    plain = CountingMap(carath.identity_map(P2))
    marks = CallMarks(plain)
    lf._integrate_segment(plain, P2, y, 0.0, 0.01, 1e-10, True, marks)
    assert marks.marks == [11]
    # a spoiled stage of the full step rejects the first attempt; the retry
    # starts from the same point and keeps k1: 11 + 10 calls to the first
    # accepted step, then one more step of 11 to the segment end
    spoiled = CountingMap(carath.identity_map(P2), spoil={2})
    marks = CallMarks(spoiled)
    end, _ = lf._integrate_segment(spoiled, P2, y, 0.0, 0.01, 1e-10, True, marks)
    assert marks.marks == [21, 32]
    assert np.allclose(end, np.exp(-0.01) * y, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the unbounded support map


def test_unbounded_support_map_values_and_coefficient():
    g = df.moebius()
    fmap = lf.unbounded_support_map(g, E2)
    z = np.zeros((1, 2), complex)
    z[0, 0] = 0.99
    grown = float(np.asarray(bg.norm(E2, fmap.values(z)))[0])
    assert grown == pytest.approx(0.99 / 0.01**2, rel=1e-6)
    carath.assert_normalized(fmap)
    diag = carath.second_coeff(fmap, 1, 1, carath.PURE)
    assert diag == pytest.approx(-df.g_prime0(g), abs=1e-7)


def test_unbounded_support_map_decay_precondition():
    with pytest.raises(DomainError):
        lf.unbounded_support_map(df.strongly_starlike(0.5), E2)
    with pytest.raises(DomainError):
        lf.unbounded_support_map(df.almost_starlike(0.3), E2)
    # boundary parameter values reduce to admissible families
    lf.unbounded_support_map(df.strongly_starlike(1.0), E2)
    lf.unbounded_support_map(df.almost_starlike(0.0), P2)
    with pytest.raises(UnsupportedError):
        lf.unbounded_support_map(
            df.DiscFunction(df.CUSTOM, evaluator=lambda z: 1 + 0 * z), E2)


def test_radial_map_values_and_jacobian():
    g = df.moebius()
    rng = np.random.default_rng(33)
    radial = lf.unbounded_support_map(g, P2)
    assert isinstance(radial, lf.KoebeRadialMap) and radial.normalized
    Z = np.stack([bg.sample_sphere(P2, rng) * rng.uniform(0.05, 0.5) for _ in range(8)])
    ref = (lf.koebe_transform(g, Z[:, 0]) / Z[:, 0])[:, None] * Z
    assert np.all(np.abs(radial.values(Z) - ref) <= 1e-14 * (1.0 + np.abs(ref)))
    fd = carath.BlackBoxMap(radial.values, P2).jacobian_batch(Z)
    assert np.allclose(radial.jacobian_batch(Z), fd, atol=1e-6)


def test_unbounded_support_map_is_starlike():
    g = df.moebius()
    fmap = lf.unbounded_support_map(g, P2)
    rng = np.random.default_rng(13)
    cert = lf.check_starlike_chain(fmap, g, P2, 200, rng)
    assert cert.passed, cert.witness


# ---------------------------------------------------------------------------
# schedules and export


def test_field_validation():
    g = df.moebius()
    with pytest.raises(DomainError):
        lf.HerglotzField((0.5,), (carath.identity_map(P2),), g, P2, 1.0)
    with pytest.raises(DomainError):
        lf.HerglotzField((0.0, 0.0), (carath.identity_map(P2),) * 2, g, P2, 1.0)


def test_make_field_certifies_segments():
    g = df.moebius()
    rng = np.random.default_rng(14)
    maps = [carath.random_Mg_member(g, P2, rng, 2) for _ in range(3)]
    field = lf.make_field(maps, g, P2, rng=rng)
    assert field.horizon == pytest.approx(1.5)
    assert len(field.certificates) == 3
    assert all(c.passed for c in field.certificates)


def test_trajectory_csv_export(tmp_path):
    field = identity_field(P2)
    res = lf.flow(field, np.array([0.5, 0.25j]), 0.0, 1.0, record_trajectory=True)
    out = tmp_path / "traj.csv"
    lf.trajectory_to_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,re_1,im_1,re_2,im_2"
    assert len(lines) > 3


def test_field_json_round_trip():
    g = df.starlike_order(0.25)
    rng = np.random.default_rng(15)
    maps = [carath.random_Mg_member(g, P2, rng, 2) for _ in range(2)]
    maps.append(carath.canonical_field(g, P2, 2, 1, -1))
    field = lf.make_field(maps, g, P2, rng=rng)
    back = lf.field_from_json(lf.field_to_json(field))
    assert back.times == field.times
    assert back.horizon == field.horizon
    Z = np.array([[0.2 + 0.1j, -0.4], [0.3j, 0.55]], dtype=complex)
    for t in (0.1, 0.6, 1.2):
        assert np.allclose(back.field_values(Z, t), field.field_values(Z, t), atol=1e-14)
    res_a = lf.parametric_map(field, Z)
    res_b = lf.parametric_map(back, Z)
    assert np.allclose(res_a.endpoint, res_b.endpoint, atol=1e-12)


def test_unbounded_map_json_round_trip():
    g = df.moebius()
    fmap = lf.unbounded_support_map(g, E2)
    back = lf.map_from_json(lf.map_to_json(fmap), E2)
    Z = np.array([[0.5, 0.2j], [0.0, 0.7]], dtype=complex)
    assert np.allclose(back.values(Z), fmap.values(Z), atol=1e-14)


@pytest.mark.parametrize("dom,g", [(bg.polydisc(3), df.moebius()),
                                   (E2, df.starlike_order(0.3)),
                                   (bg.spectral2(), df.strongly_starlike(0.5))],
                         ids=["polydisc3", "euclidean2", "spectral2"])
def test_member_json_round_trip_is_exact(dom, g):
    rng = np.random.default_rng(16)
    Z = bg.sample_sphere(dom, rng, 32) * rng.uniform(0.05, 0.9, 32)[:, None]
    for k in (1, 3, 6):
        member = carath.random_Mg_member(g, dom, rng, k)
        back = lf.map_from_json(json.loads(json.dumps(lf.map_to_json(member))), dom)
        assert back.describe() == member.describe() and back.normalized
        assert np.array_equal(back.values(Z), member.values(Z))


def test_black_box_does_not_serialize():
    field = identity_field(P2)
    fmap = lf.parametric_holmap(field)
    with pytest.raises(UnsupportedError):
        lf.map_to_json(fmap)


def test_flow_aborts_on_norm_growth():
    # v' = +v grows; the monitor must abort instead of leaving the ball
    g = df.moebius()
    expanding = carath.PolynomialMap(
        {(1, (1, 0)): -1.0, (2, (0, 1)): -1.0}, P2, normalized=False)
    field = lf.HerglotzField((0.0,), (carath.BlackBoxMap(expanding.values, P2,
                                                         normalized=True),), g, P2, 1.0)
    with pytest.raises(NumericalInstabilityError):
        lf.flow(field, np.array([0.9, 0.0], complex), 0.0, 2.0)


def test_parametric_reports_non_convergence():
    g = df.moebius()
    field = shear_field(g, P2)
    z = np.array([[0.5, 0.5]], dtype=complex)
    res = lf.parametric_map(field, z, tol=1e-16, ode_tol=1e-8)
    assert not res.converged
    assert res.horizon_used == pytest.approx(40.0)
    expect = z.copy()
    expect[:, 0] -= df.d1(g) * z[:, 1] ** 2
    assert np.max(np.abs(res.endpoint - expect)) < 1e-5  # best estimate is still good
