import itertools
import tracemalloc

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
from oracles import (
    assert_normalized,
    circle_margins,
    domain_norm,
    fd_jacobian,
    image_margin,
    line_functional,
    random_member,
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
    return coeffs


def h_disc_multiple(g, dom, k=2):
    """H(z) = g(z_k) z as a composite map."""
    return carath.disc_multiple_map(g, coordinate_functional(dom, k), dom)


# ---------------------------------------------------------------------------
# evaluation


def test_identity_evaluates_to_argument():
    f = carath.identity_map(P2)
    z = np.array([[0.3 + 0.1j, -0.2j]])
    assert np.allclose(f.values(z), z)


def test_canonical_field_example_values():
    f = carath.canonical_field(df.moebius(), P2, 1, 2, +1)
    out = f.values(np.array([[0.1, 0.5]], dtype=complex))
    assert np.allclose(out, [[0.35, 0.5]], atol=1e-15)


def test_disc_multiple_example_values():
    H = h_disc_multiple(df.moebius(), P2)
    out = H.values(np.array([[0.2, 0.5]], dtype=complex))
    assert np.allclose(out, [[1.0 / 15.0, 1.0 / 6.0]], atol=1e-15)


def test_normalization_checks():
    assert_normalized(carath.identity_map(SP))
    assert_normalized(carath.canonical_field(df.moebius(), P2, 1, 2, -1))
    shifted = carath.PolynomialMap({(1, (0, 0)): 0.5}, P2)
    with pytest.raises(DomainError):
        assert_normalized(shifted)


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
    member = random_member(df.moebius(), P2, rng, 3)
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
            member = random_member(g, dom, rng, k)
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
    rho, rho_check = carath.DFT_RADII
    carath.second_coeff(f, *pair, carath.MIXED)
    (points,) = seen
    assert len(points) == 4 * 64
    torus_max = np.max(bg.norm(dom, torus_points(dom.n, *pair, rho)[0]))
    assert np.max(bg.norm(dom, points)) <= torus_max * (1 + 1e-15)
    for r in (rho, rho_check):
        on_circles = np.isclose(np.abs(points[:, pair[0] - 1]), r)
        assert on_circles.sum() == 2 * 64
        assert np.allclose(np.abs(points[on_circles][:, pair[1] - 1]), r, atol=1e-15)


def quadratic_table(f, Q):
    """(Q[c, a, b], table coefficient of z_a z_b in component c) for all
    c and a <= b (0-based), and Q below the diagonal a > b."""
    n = f.domain.n
    pairs, below = [], []
    for c, a, b in itertools.product(range(n), repeat=3):
        if a > b:
            below.append(Q[c, a, b])
            continue
        exps = [0] * n
        exps[a] += 1
        exps[b] += 1
        pairs.append((Q[c, a, b], f.coefficient(c + 1, tuple(exps))))
    return pairs, below


def all_requests(n):
    return ([(i, j, carath.PURE) for i in range(1, n + 1) for j in range(1, n + 1)]
            + [(i, j, carath.MIXED) for i, j in itertools.permutations(range(1, n + 1), 2)])


def test_quadratic_part_matches_polynomial_table():
    rng = np.random.default_rng(13)
    terms = {}
    for comp in (1, 2, 3):
        for exps in itertools.product(range(5), repeat=3):
            if sum(exps) <= 4:
                terms[(comp, exps)] = 0.2 * complex(rng.standard_normal(), rng.standard_normal())
    maps = [carath.PolynomialMap(terms, P3)]
    for dom in (P2, P3, SP, E2):
        i, j = dom.frame_coords[:2] if dom.rank >= 2 else (1, 2)
        for g in (df.moebius(), df.starlike_order(0.75), df.strongly_starlike(0.5)):
            maps += [carath.canonical_field(g, dom, a, b, sign)
                     for a, b in ((i, j), (j, i)) for sign in (1, -1)]
    for f in maps:
        pairs, below = quadratic_table(f, f.form.quadratic(f.domain.n))
        assert all(abs(got - want) <= 1e-14 for got, want in pairs), f.describe()
        assert not np.any(below)


@pytest.mark.parametrize("dom,g", [(P2, df.moebius()), (P3, df.moebius()),
                                   (E2, df.starlike_order(0.3)), (SP, df.strongly_starlike(0.5))],
                         ids=["polydisc2", "polydisc3", "euclidean2", "spectral2"])
def test_quadratic_part_matches_second_coeff_bundle(dom, g):
    rng = np.random.default_rng(17)
    functional = bg.support_functionals(dom, bg.sample_sphere(dom, rng, 1))[0][0]
    disc = carath.disc_multiple_map(g, functional, dom)
    members = [random_member(g, dom, rng, k) for k in (1, 3, 6)]
    i, j = dom.frame_coords[:2] if dom.rank >= 2 else (1, 2)
    canonical = carath.canonical_field(g, dom, i, j, 1)
    maps = [carath.identity_map(dom), disc, *members,
            carath.convex_combination([disc, canonical, members[1]], [0.2, 0.5, 0.3]),
            carath.convex_combination([members[0], members[2]], [0.6, 0.4])]
    requests = all_requests(dom.n)
    for f in maps:
        exact = carath.quadratic_coeffs(f.form.quadratic(dom.n), requests)
        dft = carath.second_coeff_bundle(f, requests)
        assert max(abs(exact[key] - dft[key]) for key in requests) <= 1e-10, f.describe()


def test_quadratic_coeffs_validates_requests():
    Q = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(DomainError):
        carath.quadratic_coeffs(Q, [(1, 1, carath.MIXED)])
    with pytest.raises(DomainError):
        carath.quadratic_coeffs(Q, [(1, 3, carath.PURE)])


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


def test_shear_needs_a_normalized_map_that_fixes_the_origin():
    # as certify_Mg: no flag, no shear, even where Dh(0) = I holds
    unflagged = carath.CompositeMap(carath.identity_map(P2).form, P2)
    with pytest.raises(DomainError, match="normalized"):
        carath.shear(unflagged, 1, 2)
    with pytest.raises(DomainError, match="normalized"):
        carath.shear(carath.BlackBoxMap(lambda Z: 2.0 * Z, P2), 1, 2)
    shifted = carath.BlackBoxMap(lambda Z: Z + 0.5, P2, normalized=True)
    with pytest.raises(DomainError, match=r"h\(0\) = 0"):
        carath.shear(shifted, 1, 2)


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
    h = carath.scale_term(carath.canonical_field(g, P2, 1, 2, +1), 1, (0, 2), 1.1)
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


def test_certify_values_rejects_an_empty_point_set_and_missing_values():
    Z = np.zeros((0, 2), dtype=complex)
    with pytest.raises(DomainError):
        carath.certify_values(Z, df.moebius(), P2, Z)
    Z = carath.certification_points(P2, 20, np.random.default_rng(5))
    with pytest.raises(DomainError):
        carath.certify_values(Z[:-1], df.moebius(), P2, Z)


CERTIFY_CASES = [(P3, df.moebius()), (E2, df.starlike_order(0.3)),
                 (SP, df.strongly_starlike(0.5))]
CERTIFY_IDS = ["polydisc3", "euclidean2", "spectral2"]
#: the radii ``certify_Mg`` certifies a map with an array form at
FORM_RADII = (0.999,)


def certify_fields(g, dom):
    """The canonical fields of both signs and the +1 field with its quadratic
    term scaled by 1.05, as the certify experiment builds them."""
    fields = [carath.canonical_field(g, dom, 1, 2, sign) for sign in (1, -1)]
    exps = tuple(2 if k == 1 else 0 for k in range(dom.n))
    return fields + [carath.scale_term(fields[0], 1, exps, 1.05)]


def sampled_then_coarse_tori(dom, N, rng, phases):
    """The sphere (and edge) rows of a form's certification run, without its
    tori, then its tori at ``phases`` phases per axis."""
    Z = carath.certification_points(dom, N, rng, FORM_RADII)
    sampled = Z[:len(Z) - sum(len(t) for t in carath._torus_blocks(dom, FORM_RADII))]
    return np.vstack([sampled, *carath._torus_blocks(dom, FORM_RADII, phases=phases)])


def certificate_bits(cert):
    out = [cert.passed, cert.samples_used, cert.n_indeterminate,
           np.float64(cert.worst_margin).tobytes()]
    if cert.witness is not None:
        w = cert.witness
        out += [np.asarray(w["z"]).tobytes(), np.complex128(w["value"]).tobytes(),
                np.float64(w["margin"]).tobytes()]
    return out


@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
def test_certify_blocks_do_not_change_the_certificate(monkeypatch, dom, g):
    # sphere and edge samples, then a coarse set of the frame (or weighted)
    # tori, where the inflated field fails: its witness lies in the last blocks
    rng = np.random.default_rng(71)
    Z = sampled_then_coarse_tori(dom, 400, rng, phases=8)
    failed_late = False
    for h in certify_fields(g, dom):
        H = h.values(Z)
        monkeypatch.setattr(carath, "CERTIFY_BLOCK", len(Z))
        whole = carath.certify_values(H, g, dom, Z)
        for block in (1, 7, 4096):
            monkeypatch.setattr(carath, "CERTIFY_BLOCK", block)
            cert = carath.certify_values(H, g, dom, Z)
            assert certificate_bits(cert) == certificate_bits(whole), (h.describe(), block)
        if not whole.passed:
            row = np.flatnonzero(np.all(Z == whole.witness["z"], axis=1))[0]
            failed_late |= row >= 7
    assert failed_late


@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
def test_certify_takes_each_support_values_margin_once(monkeypatch, dom, g):
    # one signed-margin evaluation per certified block, on all of its
    # support values; the verdicts are decided from those very margins
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", 1500)
    blocks = [len(Z) for Z in carath.certification_blocks(dom, 4000, np.random.default_rng(3),
                                                          FORM_RADII)]
    margins, given = [], []
    margin, classify = df.boundary_margin, df.classify
    monkeypatch.setattr(df, "boundary_margin",
                        lambda g, w: margins.append(margin(g, w)) or margins[-1])
    monkeypatch.setattr(df, "classify", lambda w, m, eps: given.append(m) or classify(w, m, eps))
    for h in certify_fields(g, dom):
        margins.clear()
        given.clear()
        cert = carath.certify_Mg(h, g, dom, 4000, rng=np.random.default_rng(3))
        assert len(margins) == len(blocks) and cert.samples_used == sum(blocks)
        assert sum(len(m) for m in margins) >= sum(blocks)
        assert len(given) == len(margins) and all(m is c for m, c in zip(given, margins))


@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
def test_certify_witness_past_the_first_blocks(monkeypatch, dom, g):
    # 9 000 sphere samples come first, so the torus witness of the inflated
    # field lies past the first block at 4096 rows and at the default size
    rng = np.random.default_rng(73)
    Z = sampled_then_coarse_tori(dom, 9000, rng, phases=16)
    H = certify_fields(g, dom)[2].values(Z)
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", len(Z))
    whole = carath.certify_values(H, g, dom, Z)
    assert not whole.passed
    assert np.flatnonzero(np.all(Z == whole.witness["z"], axis=1))[0] >= 8192
    for block in (4096, 8192):
        monkeypatch.setattr(carath, "CERTIFY_BLOCK", block)
        assert certificate_bits(carath.certify_values(H, g, dom, Z)) == certificate_bits(whole)


def traced_peak(fn):
    """Peak of the numpy and Python allocations traced while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_values_peak_memory_stays_within_a_few_blocks(monkeypatch):
    # the 80 864-point polydisc(3) set of a black box's certify run peaks at
    # 1.8 MB in blocks, and at 9.3 MB when it is taken as one block
    dom, g = P3, df.moebius()
    Z = carath.certification_points(dom, 40_000, np.random.default_rng(1))
    assert len(Z) == 80_864
    H = certify_fields(g, dom)[2].values(Z)
    bound = 4 * 2**20
    assert traced_peak(lambda: carath.certify_values(H, g, dom, Z)) <= bound
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", len(Z))
    assert traced_peak(lambda: carath.certify_values(H, g, dom, Z)) > bound


def two_step_certificate(h, g, dom, N, rng):
    """The whole-set reference: every point drawn, then every value; a map
    with an array form on the top rung alone, a black box on the ladder."""
    Z = carath.certification_points(dom, N, rng,
                                    carath.RADIUS_LADDER if h.form is None else FORM_RADII)
    return carath.certify_values(h.values(Z), g, dom, Z)


def assert_streamed_matches_reference(monkeypatch, h, g, dom, N, seed):
    # the reference draws and folds every set in one block
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cert = carath.certify_Mg(h, g, dom, N, rng=rng)
    with monkeypatch.context() as patch:
        patch.setattr(carath, "CERTIFY_BLOCK", 2**40)
        reference = two_step_certificate(h, g, dom, N, ref_rng)
    assert certificate_bits(cert) == certificate_bits(reference)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return cert


def coarse_tori(monkeypatch):
    # the 8-phase tori keep the one-row blocks few; both paths take them
    tori = carath._torus_blocks
    monkeypatch.setattr(carath, "_torus_blocks", lambda dom, radii: tori(dom, radii, phases=8))


@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
@pytest.mark.parametrize("block,N", [(1, 300), (7, 300), (4096, 9001), (None, 9001)])
def test_streamed_certificate_matches_the_two_step_reference(monkeypatch, dom, g, block, N):
    # N is no multiple of the block; None keeps the default block
    if block is not None:
        monkeypatch.setattr(carath, "CERTIFY_BLOCK", block)
    if block is not None and block < 100:
        coarse_tori(monkeypatch)
    # each field as a form (top rung alone) and as a black box (the ladder)
    maps = [m for h in certify_fields(g, dom)
            for m in (h, carath.BlackBoxMap(h.values, dom, normalized=True))]
    verdicts = [assert_streamed_matches_reference(monkeypatch, h, g, dom, N, 83).passed
                for h in maps]
    assert verdicts == [True, True, True, True, False, False]


@pytest.mark.parametrize("scale", [np.nan, np.inf])
@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
def test_non_finite_support_values_fail_the_certificate(monkeypatch, dom, g, scale):
    # the field's quadratic coefficient is NaN or inf: the earliest point
    # with a non-finite support value is the witness, with margin -inf
    exps = tuple(2 if k == 1 else 0 for k in range(dom.n))
    h = carath.scale_term(certify_fields(g, dom)[0], 1, exps, scale)
    cert = assert_streamed_matches_reference(monkeypatch, h, g, dom, 500, 7)
    assert not cert.passed and cert.worst_margin == -np.inf
    assert cert.witness["margin"] == -np.inf and not np.isfinite(cert.witness["value"])
    Z = carath.certification_points(dom, 500, np.random.default_rng(7), FORM_RADII)
    vals, owner = bg.support_values(dom, Z, h.values(Z))
    row = owner[~np.isfinite(vals)].min()
    assert np.array_equal(cert.witness["z"], Z[row])
    first = np.flatnonzero(~np.isfinite(vals) & (owner == row))[0]
    assert np.array_equal(cert.witness["value"], vals[first], equal_nan=True)


def test_certify_Mg_peak_memory_stays_within_a_few_blocks():
    # the bound is the one of certify_values above, fixed before measuring;
    # the streamed polydisc(3) run at N = 40 000 holds a few blocks, the
    # whole-set path holds the 56 288 points, their values and the draws
    dom, g = P3, df.moebius()
    h = certify_fields(g, dom)[2]
    carath._torus_phases(carath.TORUS_PHASES)  # built once, before measuring
    bound = 4 * 2**20
    assert traced_peak(lambda: carath.certify_Mg(h, g, dom, 40_000,
                                                 rng=np.random.default_rng(1))) <= bound
    assert traced_peak(lambda: two_step_certificate(h, g, dom, 40_000,
                                                    np.random.default_rng(1))) > bound


# ---------------------------------------------------------------------------
# where certification looks: the top rung for a form, the ladder for a black box


LINE_FAMILIES = (df.moebius(), df.starlike_order(0.3), df.almost_starlike(0.4),
                 df.strongly_starlike(0.5))


def test_image_margin_oracle_agrees_with_boundary_margin():
    rng = np.random.default_rng(91)
    w = 3.0 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
    for g in LINE_FAMILIES:
        assert np.max(np.abs(image_margin(g, w) - df.boundary_margin(g, w))) < 1e-12


@pytest.mark.parametrize("dom", [P2, P3, E2, bg.euclidean(3), SP],
                         ids=["polydisc2", "polydisc3", "euclidean2", "euclidean3", "spectral2"])
def test_line_margins_never_rise_from_one_ladder_rung_to_the_next(dom):
    # the minimum principle that lets a map with an array form be certified
    # at 0.999 alone: on a complex line zeta u, p(zeta) = l_u(h(zeta u))/zeta
    # is holomorphic and its margin to the convex g(U) superharmonic, so its
    # least value over a circle never rises with the radius.  Canonical
    # fields in M_g and outside it (scales 1.05, 1.5), and sampled members
    rng = np.random.default_rng(92)
    exps = tuple(2 if k == 1 else 0 for k in range(dom.n))
    for g in LINE_FAMILIES:
        field = carath.canonical_field(g, dom, 1, 2, 1)
        maps = [carath.scale_term(field, 1, exps, s) for s in (1.0, 1.05, 1.5)]
        maps += [random_member(g, dom, rng, 3) for _ in range(3)]
        for h in maps:
            for _ in range(4):
                z = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
                u = z / domain_norm(dom, z)
                row = line_functional(dom, u)
                assert abs(row @ u - 1.0) < 1e-12
                lows = circle_margins(g, h, u, row, carath.RADIUS_LADDER)
                assert np.all(np.diff(lows) <= 1e-12), (h.describe(), lows)


#: the radius ladder of a black box: its samples cycle all eleven rungs and
#: its tori take the top three
BLACK_BOX_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)


@pytest.mark.parametrize("dom,g", CERTIFY_CASES, ids=CERTIFY_IDS)
def test_a_form_is_certified_at_0999_alone_and_a_black_box_on_the_ladder(dom, g):
    N, seen = 2000, []
    h = certify_fields(g, dom)[0]
    values = h.values
    h.values = lambda Z: seen.append(Z.copy()) or values(Z)
    carath.certify_Mg(h, g, dom, N, rng=np.random.default_rng(5))
    Z = np.concatenate(seen)
    tori = sum(len(t) for t in carath._torus_blocks(dom, FORM_RADII))
    assert len(Z) == N + (N // 10 if dom.kind == bg.POLYDISC else 0) + tori
    assert max(abs(domain_norm(dom, z) - 0.999) for z in Z) < 1e-15
    seen.clear()
    box = carath.BlackBoxMap(h.values, dom, normalized=True)
    carath.certify_Mg(box, g, dom, N, rng=np.random.default_rng(5))
    ladder = carath.certification_points(dom, N, np.random.default_rng(5), BLACK_BOX_LADDER)
    assert np.concatenate(seen).tobytes() == ladder.tobytes()
    assert carath.RADIUS_LADDER == BLACK_BOX_LADDER


def face_map(c):
    """z + c z1 z2 E12 on spectral2.  At z = rho diag(e^{ia}, e^{ib}) the
    face functional of x = (1, e^{i phi})/sqrt(2) takes the value
    1 + (c rho / 2) e^{i(a + phi)}, so for moebius the map is in M_g exactly
    when c <= 2."""
    terms = {(k + 1, tuple(int(a == k) for a in range(4))): 1.0 for k in range(4)}
    terms[(3, (1, 1, 0, 0))] = c
    return carath.PolynomialMap(terms, SP, normalized=True, label=f"face[{c}]")


def test_certify_fails_a_face_map_that_the_lower_rungs_diluted():
    # the ladder spread the N samples over eleven radii and passed c = 2.2
    # (margin +0.074); all of them at 0.999 find a violation
    cert = carath.certify_Mg(face_map(2.2), df.moebius(), SP, 40_000,
                             rng=np.random.default_rng(1))
    assert not cert.passed and cert.worst_margin < 0


@pytest.mark.xfail(strict=True, reason="spectral2 certification tests no face functional at "
                                       "scaled unitaries (ROADMAP item 1)")
def test_certify_fails_a_face_map_just_outside_Mg():
    cert = carath.certify_Mg(face_map(2.05), df.moebius(), SP, 40_000,
                             rng=np.random.default_rng(1))
    assert not cert.passed


def test_random_members_certify():
    g = df.starlike_order(0.25)
    rng = np.random.default_rng(5)
    for dom in (P2, SP):
        for k in (1, 2, 4):
            member = random_member(g, dom, rng, k)
            assert_normalized(member)
            cert = carath.certify_Mg(member, g, dom, 1000, rng=rng)
            assert cert.passed, cert.witness


def test_random_member_determinism():
    g = df.moebius()
    a = random_member(g, P2, np.random.default_rng(123), 3)
    b = random_member(g, P2, np.random.default_rng(123), 3)
    Z = np.array([[0.2 + 0.1j, -0.4], [0.05, 0.6j]], dtype=complex)
    assert np.array_equal(a.values(Z), b.values(Z))


def test_convex_combination_closure():
    g = df.moebius()
    rng = np.random.default_rng(6)
    h1 = carath.canonical_field(g, P2, 1, 2, +1)
    h2 = random_member(g, P2, rng, 2)
    mix = carath.convex_combination([h1, h2], [0.3, 0.7])
    cert = carath.certify_Mg(mix, g, P2, 500, rng=rng)
    assert cert.passed


def test_certified_maps_obey_pure_coefficient_bound():
    rng = np.random.default_rng(7)
    for dom, g in [(P2, df.moebius()), (P2, df.strongly_starlike(0.5)), (E2, df.moebius())]:
        bound = dom.shear_factor * df.d1(g)
        for _ in range(5):
            member = random_member(g, dom, rng, 3)
            cert = carath.certify_Mg(member, g, dom, 300, rng=rng)
            assert cert.passed
            for (i, j) in [(1, 2), (2, 1)]:
                val = abs(carath.second_coeff(member, i, j, carath.PURE))
                assert val <= bound + 1e-6


def test_shearing_preserves_certification():
    g = df.almost_starlike(0.3)
    rng = np.random.default_rng(8)
    member = random_member(g, P2, rng, 3)
    sheared = carath.shear(member, 1, 2)
    cert = carath.certify_Mg(sheared, g, P2, 500, rng=rng)
    assert cert.passed


def test_certified_maps_obey_gprime_bounds():
    g = df.moebius()
    bound = abs(df.g_prime0(g))
    rng = np.random.default_rng(9)
    for _ in range(5):
        member = random_member(g, P2, rng, 3)
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


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(10)
    member = random_member(df.moebius(), P2, rng, 3)
    Z = np.stack([bg.sample_sphere(P2, rng, 1)[0] * 0.5 for _ in range(8)])
    assert np.allclose(member.jacobian_batch(Z), fd_jacobian(member, Z), atol=1e-9)


def test_structured_points_cover_euclidean_maximizer():
    pts = np.concatenate(list(carath._torus_blocks(E2, radii=(0.999,), phases=8)))
    mags = np.abs(pts)
    target = 0.999 * np.array([1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0)])
    hit = np.any(np.all(np.abs(mags - target) < 1e-12, axis=1))
    assert hit


# ---------------------------------------------------------------------------
# polynomial tables


def test_polynomial_table_is_read_only():
    f = carath.canonical_field(df.moebius(), P2, 1, 2, +1)
    with pytest.raises(TypeError):
        f.terms[(1, (0, 2))] = 2.0
    assert f.coefficient(1, (0, 2)) == df.d1(df.moebius())


def test_scale_term_returns_a_scaled_copy():
    g = df.moebius()
    f = carath.canonical_field(g, P2, 1, 2, +1)
    Z = np.array([[0.3 + 0.1j, -0.4j], [0.2, 0.5]], dtype=complex)
    before = f.values(Z)
    h = carath.scale_term(f, 1, (0, 2), 1.5)
    assert np.array_equal(f.values(Z), before)
    assert h.coefficient(1, (0, 2)) == 1.5 * f.coefficient(1, (0, 2))
    assert h.normalized and h.label == f.label
    expect = before.copy()
    expect[:, 0] += 0.5 * f.coefficient(1, (0, 2)) * Z[:, 1] ** 2
    assert np.allclose(h.values(Z), expect, rtol=0, atol=1e-15)
    # scaling a linear term leaves Df(0) != I
    assert not carath.scale_term(f, 1, (1, 0), 2.0).normalized
    with pytest.raises(DomainError):
        carath.scale_term(f, 2, (2, 0), 2.0)


def test_certificate_json():
    rng = np.random.default_rng(11)
    g = df.moebius()
    h = carath.scale_term(carath.canonical_field(g, P2, 1, 2, +1), 1, (0, 2), 1.1)
    cert = carath.certify_Mg(h, g, P2, 200, rng=rng)
    blob = cert.to_json()
    assert blob["pass"] is False
    assert "witness" in blob and "z" in blob["witness"]


def test_composite_agrees_with_black_box_snapshot():
    rng = np.random.default_rng(12)
    member = random_member(df.moebius(), P2, rng, 3)
    snapshot = carath.BlackBoxMap(member.values, P2, normalized=True)
    Z = np.stack([bg.sample_sphere(P2, rng, 1)[0] * rng.uniform(0.1, 0.99) for _ in range(64)])
    assert np.array_equal(member.values(Z), snapshot.values(Z))


def test_disc_multiple_support_values_equal_g_of_l():
    # for h(z) = g(l_u(z)) z every supporting value is exactly g(l_u(z))
    g = df.strongly_starlike(0.7)
    rng = np.random.default_rng(13)
    u = bg.sample_sphere(P2, rng, 1)
    functional = bg.support_functionals(P2, u)[0][0]
    h = carath.disc_multiple_map(g, functional, P2)
    Z = np.stack([bg.sample_sphere(P2, rng, 1)[0] * rng.uniform(0.1, 0.99) for _ in range(200)])
    vals, owner = bg.support_values(P2, Z, h.values(Z))
    lz = Z[owner] @ functional
    assert np.max(np.abs(vals - df.evaluate(g, lz))) < 1e-12


def test_certified_member_full_scale_coefficient_bound():
    g = df.moebius()
    rng = np.random.default_rng(14)
    member = random_member(g, P2, rng, 3)
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
    members = [random_member(g, dom, rng, 6) for _ in range(3)]
    cubic = carath.PolynomialMap({(1, (1,) + (0,) * (dom.n - 1)): 1.0,
                                  (2, (0, 1) + (0,) * (dom.n - 2)): 1.0,
                                  (1, (2, 1) + (0,) * (dom.n - 2)): 0.3 - 0.2j,
                                  (2, (0,) * dom.n): 0.05}, dom)
    functional = bg.support_functionals(dom, bg.sample_sphere(dom, rng, 1))[0][0]
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
    Z = np.stack([bg.sample_sphere(dom, rng, 1)[0] * rng.uniform(0.05, 0.7) for _ in range(40)])
    for f, parts in lowered_maps(dom, g, rng):
        ref = reference_values(f, Z, parts)
        assert np.all(np.abs(f.values(Z) - ref) <= 1e-14 * (1.0 + np.abs(ref))), f.describe()


@pytest.mark.parametrize("dom,g", LOWERING_CASES, ids=LOWERING_IDS)
def test_lowered_jacobians_match_finite_differences(dom, g):
    rng = np.random.default_rng(32)
    Z = np.stack([bg.sample_sphere(dom, rng, 1)[0] * rng.uniform(0.05, 0.7) for _ in range(8)])
    for f, _ in lowered_maps(dom, g, rng):
        assert np.allclose(f.jacobian_batch(Z), fd_jacobian(f, Z), atol=1e-8), f.describe()


@pytest.mark.parametrize("dom,g", LOWERING_CASES, ids=LOWERING_IDS)
def test_remainder_of_a_form_is_h_minus_id_without_cancellation(dom, g):
    rng = np.random.default_rng(33)
    Z = np.stack([bg.sample_sphere(dom, rng, 1)[0] * rng.uniform(0.05, 0.7) for _ in range(40)])
    U = np.stack([bg.sample_sphere(dom, rng, 1)[0] for _ in range(8)])
    for f, _ in lowered_maps(dom, g, rng):
        rem = carath.remainder_map(f)
        ref = f.values(Z) - Z
        assert np.all(np.abs(rem.values(Z) - ref) <= 1e-14 * (1.0 + np.abs(f.values(Z))))
        assert isinstance(rem, carath.CompositeMap) and rem.form.shifted, f.describe()
        if f.normalized:
            assert np.allclose(rem.jacobian_batch(Z), f.jacobian_batch(Z) - np.eye(dom.n),
                               rtol=0, atol=1e-14)
            # R(eps u)/eps^2 tends to the quadratic part, read off the arrays
            Q = np.einsum("cab,ma,mb->mc", f.form.quadratic(dom.n), U, U)
            for eps in (1e-8, 1e-100):
                assert np.allclose(rem.values(eps * U) / eps**2, Q, rtol=0, atol=1e-7)


def test_remainder_keeps_a_residual_linear_part():
    # 2 z + 0.5 z_2^2 e_1 keeps z + 0.5 z_2^2 e_1; a disc block's g(0) = 1
    # folds into the scalar part.  A map flagged normalized drops it whole,
    # even where its weights do not sum to 1 exactly
    Z = np.array([[0.3 + 0.1j, -0.2j], [0.1, 0.4]])
    doubled = carath.PolynomialMap({(1, (1, 0)): 2.0, (2, (0, 1)): 2.0,
                                    (1, (0, 2)): 0.5}, P2)
    rem = carath.remainder_map(doubled)
    assert isinstance(rem, carath.CompositeMap) and rem.form.shifted
    assert rem.form.w0 == 1.0 and rem.form.lin is None
    assert np.allclose(rem.values(Z), doubled.values(Z) - Z, rtol=0, atol=1e-15)
    assert carath.linear_defect(doubled) == 1.0
    g = df.moebius()
    weights = [0.1, 0.2, 0.7]
    combo = carath.convex_combination(
        [carath.identity_map(P2), carath.disc_multiple_map(g, [1.0, 0.0], P2),
         carath.canonical_field(g, P2, 1, 2, +1)], weights)
    rem = carath.remainder_map(combo)
    assert rem.form.w0 is None and rem.form.lin is None
    assert 0.0 < carath.linear_defect(combo) <= 1e-15
    unflagged = carath.CompositeMap(combo.form, P2)
    rem = carath.remainder_map(unflagged)
    assert rem.form.lin is None and abs(rem.form.w0) == carath.linear_defect(combo)


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
    assert block_g == g and np.array_equal(lmat, [functional])
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
