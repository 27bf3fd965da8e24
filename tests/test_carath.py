import itertools

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import disc_functions as df
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import (
    DomainError,
    NumericalInstabilityError,
    ReducedPrecisionWarning,
    UnsupportedError,
)

P2 = bg.polydisc(2)
P3 = bg.polydisc(3)
SP = bg.spectral2()
E2 = bg.euclidean(2)


def fd_pure_coeff(f, i, j, h=1e-4):
    """Central-difference oracle for the z_j^2 coefficient of f_i."""
    n = f.domain.n
    plus = np.zeros((1, n), complex)
    plus[0, j - 1] = h
    minus = np.zeros((1, n), complex)
    minus[0, j - 1] = -h
    zero = np.zeros((1, n), complex)
    vals = f.values(np.vstack([plus, zero, minus]))[:, i - 1]
    return (vals[0] - 2 * vals[1] + vals[2]) / (2 * h * h)


def fd_mixed_coeff(f, i, j, h=1e-4):
    """Central-difference oracle for the z_i z_j coefficient of f_i."""
    n = f.domain.n
    pts = np.zeros((4, n), complex)
    for row, (si, sj) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        pts[row, i - 1] = si * h
        pts[row, j - 1] = sj * h
    vals = f.values(pts)[:, i - 1]
    return (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)


def coordinate_functional(dom, k):
    coeffs = np.zeros(dom.n, dtype=complex)
    coeffs[k - 1] = 1.0
    return bg.LinearFunctional(tuple(coeffs))


def h_disc_multiple(g, dom, k=2):
    """H(z) = g(z_k) z as a composite map."""
    return carath.disc_multiple_map(g, coordinate_functional(dom, k), dom)


# ---------------------------------------------------------------------------
# evaluation


def test_identity_evaluates_to_argument():
    f = carath.identity_map(P2)
    z = np.array([0.3 + 0.1j, -0.2j])
    assert np.allclose(carath.evaluate(f, z), z)


def test_canonical_field_example_values():
    f = carath.canonical_field(df.moebius(), P2, 1, 2, +1)
    out = carath.evaluate(f, np.array([0.1, 0.5], dtype=complex))
    assert np.allclose(out, [0.35, 0.5], atol=1e-15)


def test_disc_multiple_example_values():
    H = h_disc_multiple(df.moebius(), P2)
    out = carath.evaluate(H, np.array([0.2, 0.5], dtype=complex))
    assert np.allclose(out, [1.0 / 15.0, 1.0 / 6.0], atol=1e-15)


def test_evaluate_outside_ball_rejected():
    f = carath.identity_map(P2)
    with pytest.raises(DomainError):
        carath.evaluate(f, np.array([1.0, 0.0], dtype=complex))


def test_normalization_checks():
    carath.assert_normalized(carath.identity_map(SP))
    carath.assert_normalized(carath.canonical_field(df.moebius(), P2, 1, 2, -1))
    shifted = carath.PolynomialMap({(1, (0, 0)): 0.5}, P2)
    with pytest.raises(DomainError):
        carath.assert_normalized(shifted)


# ---------------------------------------------------------------------------
# second-order coefficients


def test_second_coeff_canonical_field():
    for g in (df.moebius(), df.starlike_order(0.75), df.strongly_starlike(0.5)):
        f = carath.canonical_field(g, P2, 1, 2, +1)
        assert carath.second_coeff(f, 1, 2, carath.PURE) == pytest.approx(df.d1(g), abs=1e-12)


def test_second_coeff_identity_vanishes():
    assert carath.second_coeff(carath.identity_map(P2), 1, 2, carath.PURE) == pytest.approx(0, abs=1e-14)


def test_second_coeff_mixed_disc_multiple():
    H = h_disc_multiple(df.moebius(), P2)
    got = carath.second_coeff(H, 1, 2, carath.MIXED)
    assert got == pytest.approx(df.g_prime0(df.moebius()), abs=1e-11)


def test_second_coeff_matches_polynomial_table():
    rng = np.random.default_rng(0)
    terms = {}
    for comp in (1, 2):
        for exps in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
            terms[(comp, exps)] = complex(rng.standard_normal(), rng.standard_normal())
    f = carath.PolynomialMap(terms, P2)
    for i, j in [(1, 2), (2, 1)]:
        pure = carath.second_coeff(f, i, j, carath.PURE)
        exps = tuple(2 if k == j - 1 else 0 for k in range(2))
        assert pure == pytest.approx(f.coefficient(i, exps), abs=1e-10)
        mixed = carath.second_coeff(f, i, j, carath.MIXED)
        assert mixed == pytest.approx(f.coefficient(i, (1, 1)), abs=1e-10)


def test_second_coeff_matches_finite_differences_on_composites():
    rng = np.random.default_rng(1)
    member = carath.random_Mg_member(df.moebius(), P2, rng, 3)
    for i, j in [(1, 2), (2, 1)]:
        assert carath.second_coeff(member, i, j, carath.PURE) == pytest.approx(
            fd_pure_coeff(member, i, j), abs=1e-6)
        assert carath.second_coeff(member, i, j, carath.MIXED) == pytest.approx(
            fd_mixed_coeff(member, i, j), abs=1e-6)


def torus_points(n, i, j, r, m=32):
    """The m x m grid on the 2-torus |z_i| = |z_j| = r and its DFT phases."""
    theta = 2.0 * np.pi * np.arange(m) / m
    a, b = (t.ravel() for t in np.meshgrid(theta, theta, indexing="ij"))
    Z = np.zeros((m * m, n), dtype=complex)
    Z[:, i - 1] = r * np.exp(1j * a)
    Z[:, j - 1] = r * np.exp(1j * b)
    return Z, np.exp(-1j * (a + b))


def torus_mixed_coeff(f, i, j, r=0.4):
    """Reference: the z_i z_j coefficient of f_i from a 32x32 double Cauchy
    DFT on the 2-torus, where terms of degree 34 and up alias in."""
    Z, phase = torus_points(f.domain.n, i, j, r)
    return complex((f.values(Z)[:, i - 1] * phase).mean() / r**2)


@pytest.mark.parametrize("dom, pairs", [
    (P2, [(1, 2), (2, 1)]),
    (P3, [(1, 2), (3, 1), (2, 3)]),
    (SP, [(1, 2), (2, 1), (1, 3), (4, 3)]),
    (E2, [(1, 2), (2, 1)]),
], ids=["polydisc2", "polydisc3", "spectral2", "euclidean2"])
def test_mixed_coeff_matches_torus_reference(dom, pairs):
    rng = np.random.default_rng(11)
    for g in (df.moebius(), df.strongly_starlike(0.5)):
        for k in (1, 2, 3):
            member = carath.random_Mg_member(g, dom, rng, k)
            for i, j in pairs:
                got = carath.second_coeff(member, i, j, carath.MIXED)
                assert abs(got - torus_mixed_coeff(member, i, j)) <= 1e-12


def test_mixed_coeff_exact_on_cubic_and_quartic_terms():
    rng = np.random.default_rng(12)
    terms = {}
    for comp in (1, 2, 3):
        for exps in itertools.product(range(5), repeat=3):
            if 1 <= sum(exps) <= 4:
                terms[(comp, exps)] = 0.2 * complex(rng.standard_normal(), rng.standard_normal())
    f = carath.PolynomialMap(terms, P3)
    for i, j in itertools.permutations((1, 2, 3), 2):
        got = carath.second_coeff(f, i, j, carath.MIXED)
        exps = tuple(1 if k in (i - 1, j - 1) else 0 for k in range(3))
        assert abs(got - f.coefficient(i, exps)) <= 1e-13
        assert abs(got - torus_mixed_coeff(f, i, j)) <= 1e-12


@pytest.mark.parametrize("dom, pair", [
    (P2, (1, 2)), (P3, (2, 3)), (SP, (1, 2)), (SP, (1, 3)), (SP, (3, 4)), (E2, (1, 2)),
])
def test_mixed_coeff_circles_stay_on_the_torus_bound(dom, pair):
    seen = []

    def record(Z):
        seen.append(Z.copy())
        return Z

    f = carath.BlackBoxMap(record, dom, normalized=True)
    rho = 0.4
    carath.second_coeff(f, *pair, carath.MIXED, rho=rho)
    (points,) = seen
    assert len(points) == 4 * 64
    torus_max = np.max(bg.norm(dom, torus_points(dom.n, *pair, rho)[0]))
    assert np.max(bg.norm(dom, points)) <= torus_max * (1 + 1e-15)
    for r in (rho, 0.2):
        on_circles = np.isclose(np.abs(points[:, pair[0] - 1]), r)
        assert on_circles.sum() == 2 * 64
        assert np.allclose(np.abs(points[on_circles][:, pair[1] - 1]), r, atol=1e-15)


def test_second_coeff_instability_detected():
    def broken(Z):
        out = Z.copy()
        out[:, 0] += np.where(np.abs(Z[:, 1]) > 0.3, Z[:, 1] ** 2, 0.0)
        return out

    f = carath.BlackBoxMap(broken, P2, normalized=True)
    with pytest.raises(NumericalInstabilityError):
        carath.second_coeff(f, 1, 2, carath.PURE)


def test_second_coeff_reduced_precision_warns():
    def wobbly(Z):
        out = Z.copy()
        out[:, 0] += (1.0 + 1e-6 * np.abs(Z[:, 1]) ** 2) * Z[:, 1] ** 2
        return out

    f = carath.BlackBoxMap(wobbly, P2, normalized=True)
    with pytest.warns(ReducedPrecisionWarning):
        carath.second_coeff(f, 1, 2, carath.PURE)


def test_second_coeff_index_validation():
    f = carath.identity_map(P2)
    with pytest.raises(DomainError):
        carath.second_coeff(f, 1, 3, carath.PURE)
    with pytest.raises(DomainError):
        carath.second_coeff(f, 1, 1, carath.MIXED)
    with pytest.raises(DomainError):
        carath.second_coeff(f, 1, 2, "cubic")


# ---------------------------------------------------------------------------
# shearing


def test_shear_identity_is_identity():
    sheared = carath.shear(carath.identity_map(P2), 1, 2)
    assert sheared.coefficient(1, (1, 0)) == pytest.approx(1.0)
    assert sheared.coefficient(2, (0, 1)) == pytest.approx(1.0)
    assert abs(sheared.coefficient(1, (0, 2))) < 1e-12


def test_shear_fixes_canonical_field():
    h = carath.canonical_field(df.starlike_order(0.6), P2, 1, 2, +1)
    sheared = carath.shear(h, 1, 2)
    for key, val in h.terms.items():
        assert sheared.coefficient(*key) == pytest.approx(val, abs=1e-12)


def test_shear_kills_disc_multiple():
    H = h_disc_multiple(df.moebius(), P2)
    sheared = carath.shear(H, 1, 2)
    assert abs(sheared.coefficient(1, (0, 2))) < 1e-12
    assert sheared.coefficient(1, (1, 0)) == pytest.approx(1.0)


def test_shear_index_admissibility():
    with pytest.raises(DomainError):
        carath.shear(carath.identity_map(SP), 1, 3)  # 3 is off the frame
    with pytest.raises(DomainError):
        carath.shear(carath.identity_map(P2), 1, 1)


# ---------------------------------------------------------------------------
# canonical fields


def test_canonical_field_coefficients():
    f = carath.canonical_field(df.moebius(), P2, 1, 2, +1)
    assert f.coefficient(1, (0, 2)) == pytest.approx(1.0)
    a = 0.5
    f = carath.canonical_field(df.strongly_starlike(a), SP, 1, 2, +1)
    assert f.coefficient(1, (0, 2, 0, 0)) == pytest.approx(np.sin(a * np.pi / 2), abs=1e-15)
    f = carath.canonical_field(df.moebius(), E2, 1, 2, +1)
    assert f.coefficient(1, (0, 2)) == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-15)


def test_canonical_field_frame_violation():
    with pytest.raises(DomainError):
        carath.canonical_field(df.moebius(), SP, 1, 3, +1)
    with pytest.raises(DomainError):
        carath.canonical_field(df.moebius(), P2, 1, 2, 2)


# ---------------------------------------------------------------------------
# certification


def test_certify_identity_margin_is_d1():
    rng = np.random.default_rng(2)
    for g in (df.moebius(), df.starlike_order(0.75), df.strongly_starlike(0.5)):
        cert = carath.certify_Mg(carath.identity_map(P2), g, P2, 200, rng=rng)
        assert cert.passed
        assert cert.worst_margin == pytest.approx(df.d1(g), abs=1e-9)


@pytest.mark.parametrize("dom", [P2, P3, SP, E2])
def test_certify_canonical_fields_pass(dom):
    rng = np.random.default_rng(3)
    g = df.moebius()
    for sign in (+1, -1):
        h = carath.canonical_field(g, dom, 1, 2, sign)
        cert = carath.certify_Mg(h, g, dom, 500, rng=rng)
        assert cert.passed, cert.witness
        assert cert.worst_margin >= 0.0


def test_certify_inflated_field_fails_on_torus():
    rng = np.random.default_rng(4)
    g = df.moebius()
    h = carath.canonical_field(g, P2, 1, 2, +1)
    h.terms[(1, (0, 2))] *= 1.1
    cert = carath.certify_Mg(h, g, P2, 500, rng=rng)
    assert not cert.passed
    assert cert.worst_margin < 0
    z = cert.witness["z"]
    assert abs(abs(z[0]) - abs(z[1])) < 1e-9  # witness sits on the |z1| = |z2| torus
    assert abs(z[0]) > 0.9


def test_certify_requires_normalized():
    h = carath.BlackBoxMap(lambda Z: Z, P2, normalized=False)
    with pytest.raises(DomainError):
        carath.certify_Mg(h, df.moebius(), P2, 10)


def test_random_members_certify():
    g = df.starlike_order(0.25)
    rng = np.random.default_rng(5)
    for dom in (P2, SP):
        for k in (1, 2, 4):
            member = carath.random_Mg_member(g, dom, rng, k)
            carath.assert_normalized(member)
            cert = carath.certify_Mg(member, g, dom, 1000, rng=rng, structured=False)
            assert cert.passed, cert.witness


def test_random_member_determinism():
    g = df.moebius()
    a = carath.random_Mg_member(g, P2, np.random.default_rng(123), 3)
    b = carath.random_Mg_member(g, P2, np.random.default_rng(123), 3)
    Z = np.array([[0.2 + 0.1j, -0.4], [0.05, 0.6j]], dtype=complex)
    assert np.array_equal(a.values(Z), b.values(Z))


def test_convex_combination_closure():
    g = df.moebius()
    rng = np.random.default_rng(6)
    h1 = carath.canonical_field(g, P2, 1, 2, +1)
    h2 = carath.random_Mg_member(g, P2, rng, 2)
    mix = carath.convex_combination([h1, h2], [0.3, 0.7])
    cert = carath.certify_Mg(mix, g, P2, 500, rng=rng)
    assert cert.passed


def test_certified_maps_obey_pure_coefficient_bound():
    rng = np.random.default_rng(7)
    for dom, g in [(P2, df.moebius()), (P2, df.strongly_starlike(0.5)), (E2, df.moebius())]:
        bound = dom.shear_factor * df.d1(g)
        for _ in range(5):
            member = carath.random_Mg_member(g, dom, rng, 3)
            cert = carath.certify_Mg(member, g, dom, 300, rng=rng, structured=False)
            assert cert.passed
            for (i, j) in [(1, 2), (2, 1)]:
                val = abs(carath.second_coeff(member, i, j, carath.PURE))
                assert val <= bound + 1e-6


def test_shearing_preserves_certification():
    g = df.almost_starlike(0.3)
    rng = np.random.default_rng(8)
    member = carath.random_Mg_member(g, P2, rng, 3)
    sheared = carath.shear(member, 1, 2)
    cert = carath.certify_Mg(sheared, g, P2, 500, rng=rng)
    assert cert.passed


def test_certified_maps_obey_gprime_bounds():
    g = df.moebius()
    bound = abs(df.g_prime0(g))
    rng = np.random.default_rng(9)
    for _ in range(5):
        member = carath.random_Mg_member(g, P2, rng, 3)
        for i in (1, 2):
            assert abs(carath.second_coeff(member, i, i, carath.PURE)) <= bound + 1e-6
        for i, j in [(1, 2), (2, 1)]:
            assert abs(carath.second_coeff(member, i, j, carath.MIXED)) <= bound + 1e-6


def test_disc_multiple_sharpness_values():
    # g(z_1) z has pure (1,1) coefficient g'(0); g(z_2) z has mixed (1,2) g'(0)
    g = df.moebius()
    h1 = h_disc_multiple(g, P2, k=1)
    assert carath.second_coeff(h1, 1, 1, carath.PURE) == pytest.approx(df.g_prime0(g), abs=1e-11)
    h2 = h_disc_multiple(g, P2, k=2)
    assert carath.second_coeff(h2, 1, 2, carath.MIXED) == pytest.approx(df.g_prime0(g), abs=1e-11)


# ---------------------------------------------------------------------------
# jacobians


def test_jacobians_match_black_box_differences():
    rng = np.random.default_rng(10)
    member = carath.random_Mg_member(df.moebius(), P2, rng, 3)
    boxed = carath.BlackBoxMap(member.values, P2, normalized=True)
    Z = np.stack([bg.sample_sphere(P2, rng) * 0.5 for _ in range(8)])
    assert np.allclose(member.jacobian_batch(Z), boxed.jacobian_batch(Z), atol=1e-9)


def test_structured_points_cover_euclidean_maximizer():
    pts = carath.structured_torus_points(E2, radii=(0.999,), phases=8)
    mags = np.abs(pts)
    target = 0.999 * np.array([1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0)])
    hit = np.any(np.all(np.abs(mags - target) < 1e-12, axis=1))
    assert hit


# ---------------------------------------------------------------------------
# serialization


def test_polynomial_json_round_trip():
    f = carath.canonical_field(df.starlike_order(0.75), P2, 2, 1, -1)
    payload = carath.poly_to_json(f)
    back = carath.poly_from_json(payload, P2)
    assert back.terms == f.terms
    assert back.normalized


def test_certificate_json():
    rng = np.random.default_rng(11)
    g = df.moebius()
    h = carath.canonical_field(g, P2, 1, 2, +1)
    h.terms[(1, (0, 2))] *= 1.1
    cert = carath.certify_Mg(h, g, P2, 200, rng=rng)
    blob = cert.to_json()
    assert blob["pass"] is False
    assert "witness" in blob and "z" in blob["witness"]


def test_composite_agrees_with_black_box_snapshot():
    rng = np.random.default_rng(12)
    member = carath.random_Mg_member(df.moebius(), P2, rng, 3)
    snapshot = carath.BlackBoxMap(member.values, P2, normalized=True)
    Z = np.stack([bg.sample_sphere(P2, rng) * rng.uniform(0.1, 0.99) for _ in range(64)])
    assert np.array_equal(member.values(Z), snapshot.values(Z))


def test_disc_multiple_support_values_equal_g_of_l():
    # for h(z) = g(l_u(z)) z every supporting value is exactly g(l_u(z))
    g = df.strongly_starlike(0.7)
    rng = np.random.default_rng(13)
    u = bg.sample_sphere(P2, rng)
    functional = bg.support_functionals(P2, u)[0]
    h = carath.disc_multiple_map(g, functional, P2)
    Z = np.stack([bg.sample_sphere(P2, rng) * rng.uniform(0.1, 0.99) for _ in range(200)])
    vals, owner = bg.support_values(P2, Z, h.values(Z))
    lz = Z[owner] @ np.asarray(functional.coeffs)
    assert np.max(np.abs(vals - df.evaluate(g, lz))) < 1e-12


def test_certified_member_full_scale_coefficient_bound():
    g = df.moebius()
    rng = np.random.default_rng(14)
    member = carath.random_Mg_member(g, P2, rng, 3)
    cert = carath.certify_Mg(member, g, P2, 10**4, rng=rng)
    assert cert.passed
    for i, j in [(1, 2), (2, 1)]:
        assert abs(carath.second_coeff(member, i, j, carath.PURE)) <= df.d1(g) + 1e-6


# ---------------------------------------------------------------------------
# the array form against the block definitions


def reference_values(f, Z, parts=None):
    """f(Z) summed term by term from the definitions.  A combination given
    by its (weight, child) ``parts`` is sum_k w_k * reference(child); a
    polynomial table adds c*z^e*e_i per term; a composite form adds w0*z (or
    lin @ z), w*g(l(z))*z per functional row and c*prod(z^e)*e_i per
    monomial."""
    if parts is not None:
        return sum(w * reference_values(child, Z) for w, child in parts)
    n = Z.shape[1]
    out = np.zeros_like(Z)
    if isinstance(f, carath.PolynomialMap):
        for (comp, exps), c in f.terms.items():
            out[:, comp - 1] += c * np.prod(Z ** np.array(exps), axis=1)
        return out
    form = f.form
    if form.w0 is not None:
        out += form.w0 * Z
    if form.lin is not None:
        for a, b in itertools.product(range(n), repeat=2):
            out[:, a] += form.lin[a, b] * Z[:, b]
    for g, lmat, weights in form.disc:
        for row, w in zip(lmat, weights):
            out += w * df.evaluate(g, Z @ row)[:, None] * Z
    for idx, coef, comp in form.monomials:
        for vars_, c, i in zip(idx, coef, comp):
            out[:, i] += c * np.prod(Z ** np.bincount(vars_, minlength=n), axis=1)
    return out


LOWERING_CASES = [(P2, df.moebius()), (E2, df.starlike_order(0.3)),
                  (SP, df.strongly_starlike(0.5))]
LOWERING_IDS = ["polydisc2", "euclidean2", "spectral2"]


def lowered_maps(dom, g, rng):
    """(map, parts) pairs: parts lists a combination's (weight, child)
    pairs, None for any other map."""
    i, j = dom.frame_coords[:2] if dom.rank >= 2 else (1, 2)
    canonical = carath.canonical_field(g, dom, i, j, -1)
    members = [carath.random_Mg_member(g, dom, rng, 6) for _ in range(3)]
    cubic = carath.PolynomialMap({(1, (1,) + (0,) * (dom.n - 1)): 1.0,
                                  (2, (0, 1) + (0,) * (dom.n - 2)): 1.0,
                                  (1, (2, 1) + (0,) * (dom.n - 2)): 0.3 - 0.2j,
                                  (2, (0,) * dom.n): 0.05}, dom)
    functional = bg.support_functionals(dom, bg.sample_sphere(dom, rng))[0]
    blocks = [carath.identity_map(dom), carath.disc_multiple_map(g, functional, dom),
              canonical, cubic]
    combos = [([0.4, 0.6], [canonical, members[0]]),
              ([0.2, 0.5, 0.3], blocks[:3]),
              ([0.1, 0.6, 0.3], [members[1], cubic, members[2]])]
    plain = [(f, None) for f in [*blocks, *members]]
    return plain + [(carath.convex_combination(maps, w), list(zip(w, maps)))
                    for w, maps in combos]


@pytest.mark.parametrize("dom,g", LOWERING_CASES, ids=LOWERING_IDS)
def test_lowered_values_match_block_sums(dom, g):
    rng = np.random.default_rng(31)
    Z = np.stack([bg.sample_sphere(dom, rng) * rng.uniform(0.05, 0.7) for _ in range(40)])
    for f, parts in lowered_maps(dom, g, rng):
        ref = reference_values(f, Z, parts)
        assert np.all(np.abs(f.values(Z) - ref) <= 1e-14 * (1.0 + np.abs(ref))), f.describe()


@pytest.mark.parametrize("dom,g", LOWERING_CASES, ids=LOWERING_IDS)
def test_lowered_jacobians_match_black_box_differences(dom, g):
    rng = np.random.default_rng(32)
    Z = np.stack([bg.sample_sphere(dom, rng) * rng.uniform(0.05, 0.7) for _ in range(8)])
    for f, _ in lowered_maps(dom, g, rng):
        boxed = carath.BlackBoxMap(f.values, dom)
        assert np.allclose(f.jacobian_batch(Z), boxed.jacobian_batch(Z), atol=1e-8), f.describe()


def test_combination_label_and_building_blocks():
    g = df.moebius()
    functional = coordinate_functional(P2, 2)
    canonical = carath.canonical_field(g, P2, 1, 2, +1)
    mix = carath.convex_combination(
        [carath.identity_map(P2), carath.disc_multiple_map(g, functional, P2), canonical],
        [0.25, 0.25, 0.5])
    assert mix.describe() == f"combo[identity, {df.describe(g)}(l(z))*z, {canonical.describe()}]"
    assert mix.normalized
    form = mix.form
    assert form.w0 == 0.75 and form.lin is None
    (block_g, lmat, weights), = form.disc
    assert block_g == g and np.array_equal(lmat, [functional.coeffs])
    assert np.array_equal(weights, [0.25])
    (idx, coef, comp), = form.monomials
    assert idx.tolist() == [[1, 1]] and comp == (0,)
    assert coef[0] == 0.5 * canonical.coefficient(1, (0, 2))


def test_convex_combination_needs_one_weight_per_map():
    g = df.moebius()
    a, b, c = (carath.identity_map(P2), carath.canonical_field(g, P2, 1, 2, +1),
               carath.canonical_field(g, P2, 2, 1, -1))
    with pytest.raises(DomainError):
        carath.convex_combination([a, b, c], [0.5, 0.5])
    with pytest.raises(DomainError):
        carath.convex_combination([a], [0.5, 0.5])


def test_convex_combination_needs_one_domain():
    with pytest.raises(DomainError):
        carath.convex_combination([carath.identity_map(P2), carath.identity_map(E2)],
                                  [0.5, 0.5])


def test_convex_combination_needs_array_forms():
    g = df.moebius()
    boxed = carath.BlackBoxMap(carath.canonical_field(g, P2, 1, 2, +1).values, P2,
                               normalized=True)
    with pytest.raises(UnsupportedError):
        carath.convex_combination([carath.identity_map(P2), boxed], [0.3, 0.7])
    with pytest.raises(UnsupportedError):
        carath.convex_combination([lf.unbounded_support_map(g, P2)], [1.0])
