import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewner_lab import disc_functions as df
from loewner_lab.errors import DomainError
from oracles import CATALOG

ALPHA_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


def catalog_members():
    out = [df.moebius()]
    for a in (0.1, 0.3, 0.5, 0.75, 0.9):
        out.append(df.starlike_order(a))
        out.append(df.almost_starlike(a))
        out.append(df.strongly_starlike(a))
    return out


def a0_bruteforce(g, points=10**6):
    """Independent 1-D oracle: plain minimum over a dense rho grid."""
    rho = np.arange(1, points, dtype=float) / points
    right = np.abs(1.0 - df._eval_raw(g, rho.astype(complex)))
    left = np.abs(df._eval_raw(g, -rho.astype(complex)) - 1.0)
    vals = np.minimum(right, left) / rho
    return float(np.min(vals[np.isfinite(vals)]))


def derivative_oracle(g, step=1e-5):
    """4th-order central difference for g'(0), independent of the closed forms."""
    pts = np.array([2 * step, step, -step, -2 * step], dtype=complex)
    f = df._eval_raw(g, pts)
    return (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * step)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_at_zero_is_one():
    for g in catalog_members():
        assert df.evaluate(g, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_eval_moebius_half():
    assert df.evaluate(df.moebius(), 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_eval_starlike_radial_limit():
    # (1 - z)/(1 - z/2) -> 4/3 as z -> -1 radially
    g = df.starlike_order(0.75)
    val = df.evaluate(g, -1.0 + 1e-7)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_eval_outside_disc_rejected():
    with pytest.raises(DomainError):
        df.evaluate(df.moebius(), 1.0)
    with pytest.raises(DomainError):
        df.evaluate(df.moebius(), np.array([0.1, 1.2j]))


def test_eval_strongly_starlike_principal_branch():
    g = df.strongly_starlike(0.5)
    assert df.evaluate(g, 0.0) == pytest.approx(1.0)
    # lands in the sector of half-angle alpha*pi/2
    z = 0.9 * np.exp(2j * np.pi * np.linspace(0, 1, 50, endpoint=False))
    vals = df.evaluate(g, z)
    assert np.all(np.abs(np.angle(vals)) < 0.25 * np.pi)


def test_validation():
    with pytest.raises(DomainError):
        df.DiscFunction(df.MOEBIUS, alpha=0.3)
    with pytest.raises(DomainError):
        df.starlike_order(1.0)
    with pytest.raises(DomainError):
        df.strongly_starlike(0.0)
    # the catalog is closed: a g known only pointwise is not a family
    with pytest.raises(DomainError, match="unknown disc-function family 'custom'"):
        df.DiscFunction("custom")


# ---------------------------------------------------------------------------
# derivative at the origin


def test_g_prime0_closed_forms_against_difference_oracle():
    cases = [
        (df.moebius(), -2.0),
        (df.starlike_order(0.25), -2.0 * 0.75),
        (df.almost_starlike(0.25), -2.0 * 0.75),
        (df.strongly_starlike(0.5), -1.0),
    ]
    for g, expected in cases:
        assert df.g_prime0(g) == pytest.approx(expected, abs=1e-12)
        assert df.g_prime0(g) == pytest.approx(derivative_oracle(g), abs=1e-9)


@pytest.mark.parametrize("g", catalog_members(), ids=df.describe)
def test_minus_one_is_g_minus_one_without_cancellation(g):
    rng = np.random.default_rng(41)
    zeta = 0.9 * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
    ref = df._eval_raw(g, zeta) - 1.0
    assert np.all(np.abs(df.minus_one(g, zeta) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # where g - 1 by subtraction keeps no digit, the closed form still
    # follows g'(0) zeta, down to 1e-300
    tiny = 10.0 ** rng.uniform(-300, -10, 400) * np.exp(2j * np.pi * rng.random(400))
    linear = df.g_prime0(g) * tiny
    assert np.all(np.abs(df.minus_one(g, tiny) - linear) <= 1e-10 * np.abs(linear))


@pytest.mark.parametrize("g", CATALOG, ids=df.describe)
def test_minus_one_owns_its_error_state_at_the_pole(g):
    # the flow integrator evaluates the unguarded form under its own error
    # state; the public one still divides by zero quietly at the pole
    pole = -1.0 / df._beta(g) if g.family in (df.MOEBIUS, df.STARLIKE_ORDER) else -1.0
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = df.minus_one(g, np.array([pole], dtype=complex))
    assert not np.all(np.isfinite(value)) and np.geterr() == before


# ---------------------------------------------------------------------------
# d1


def test_d1_closed_forms():
    assert df.d1(df.moebius()) == 1.0
    assert df.d1(df.starlike_order(0.75)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert df.d1(df.starlike_order(0.3)) == 1.0
    assert df.d1(df.almost_starlike(0.4)) == pytest.approx(0.6, abs=1e-15)
    assert df.d1(df.strongly_starlike(0.5)) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)


def test_d1_grid_matches_closed_forms():
    for g in catalog_members():
        assert df.d1_grid(g) == pytest.approx(df.d1(g), abs=1e-9)


def test_grid_minimum_refines_inside_the_grid_and_wraps_angles():
    grid = np.linspace(0.5, 1.0, 101)
    # a minimum between grid points is found to rounding ...
    assert df._grid_minimum(lambda x: (x - 0.7123456789) ** 2 + 2.0, grid) == 2.0
    # ... and a non-periodic bracket never leaves [grid[0], grid[-1]]
    assert df._grid_minimum(lambda x: x, grid) == 0.5
    # the minimum sits at theta = -1e-4, between the last grid angle of
    # d1_grid and 2 pi: only a bracket that wraps across theta = 0 reaches it
    theta = 2.0 * np.pi * np.arange(df.GRID_SIZE) / df.GRID_SIZE
    assert df._grid_minimum(lambda t: np.abs(1.5 - np.cos(t + 1e-4)), theta,
                            periodic=True) == pytest.approx(0.5, abs=1e-15)


def test_import_loads_no_scipy():
    code = ("import sys, loewner_lab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# a0


def test_a0_moebius_is_one():
    val = df.a0(df.moebius())
    assert val == pytest.approx(1.0, abs=1e-8)
    assert val == pytest.approx(a0_bruteforce(df.moebius(), 10**6), abs=1e-6)


def test_a0_starlike_cross_checked_by_bruteforce():
    g = df.starlike_order(0.75)
    assert df.a0(g) == pytest.approx(a0_bruteforce(g, 10**6), abs=1e-6)
    assert df.a0(g) == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("g", [df.almost_starlike(0.4), df.strongly_starlike(0.5)],
                         ids=df.describe)
def test_a0_cross_checked_by_bruteforce_beyond_the_starlike_family(g):
    assert df.a0(g) == pytest.approx(a0_bruteforce(g, 10**6), abs=1e-6)
    if g.family == df.ALMOST_STARLIKE:
        # the radial quotient (1 + beta) / (1 + rho) tends to 1 - alpha at rho = 1
        assert df.a0(g) == pytest.approx(1.0 - g.alpha, abs=1e-9)


def test_a0_dominates_d1_on_alpha_grid():
    for a in ALPHA_GRID[::3]:
        for g in (df.starlike_order(a), df.almost_starlike(a), df.strongly_starlike(a)):
            assert df.a0(g) >= df.d1(g) - 1e-9


def test_a0_radial_gaps_are_closed_forms_without_cancellation():
    # 1 - g(rho) and g(-rho) - 1 agree with g's own values where nothing
    # cancels, and keep their digits near rho = 0 where g(rho) - 1 cannot
    rho = np.array([1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-6])
    catalog = [df.moebius()] + [family(a) for a in (0.05, 0.5, 0.95) for family in
                                (df.starlike_order, df.almost_starlike, df.strongly_starlike)]
    for g in catalog:
        right, left = -df.minus_one(g, rho), df.minus_one(g, -rho)
        assert np.allclose(right, 1.0 - df._eval_raw(g, rho), rtol=1e-9, atol=1e-15)
        assert np.allclose(left, df._eval_raw(g, -rho) - 1.0, rtol=1e-9, atol=1e-15)
        slope = abs(df.g_prime0(g))
        for r in (1e-12, -1e-12):
            assert abs(df.minus_one(g, r)) == pytest.approx(slope * 1e-12, rel=1e-11)
    # g = 1 - z: the objective is exactly 1, and so is a0 (it read
    # 0.99999999989506 when the gaps were differences)
    assert abs(df.a0(df.starlike_order(0.5)) - 1.0) <= 1e-15


def test_starlike_order_zero_coincides_with_moebius():
    g0 = df.starlike_order(0.0)
    z = 0.8 * np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False))
    assert np.allclose(df.evaluate(g0, z), df.evaluate(df.moebius(), z), atol=1e-14)
    assert df.d1(g0) == df.d1(df.moebius())
    assert df.a0(g0) == pytest.approx(df.a0(df.moebius()), abs=1e-10)


# ---------------------------------------------------------------------------
# membership


def verdicts(g, w, eps):
    """``df.classify`` of w from its margins, as certification calls it."""
    w = np.asarray(w, dtype=complex)
    return df.classify(w, df.boundary_margin(g, w), eps)


def test_classify_decides_from_the_margins_it_is_given():
    # classify takes no g: the same values read by the sign and size of the
    # margins passed in, against the band eps*max(1, |w|)
    w = np.array([0.5, 3.0, 3.0, 0.5, math.nan])
    margins = np.array([1e-3, 2.9e-9, -2.9e-9, -2e-9, 5.0])
    assert df.classify(w, margins, 1e-9).tolist() == [1, 0, 0, -1, -1]
    assert df.classify(0.5, -1.0, 1e-9).tolist() == [-1]


def test_contains_center():
    for g in catalog_members():
        assert verdicts(g, 1.0, 1e-9).tolist() == [1]


def test_contains_examples():
    assert verdicts(df.moebius(), -0.1, 1e-9).tolist() == [-1]
    # image of starlike 3/4 is the disc with center 2/3 and radius 2/3
    assert verdicts(df.starlike_order(0.75), 1.5, 1e-9).tolist() == [-1]
    assert verdicts(df.starlike_order(0.75), 4.0 / 3.0 - 1e-12, 1e-9).tolist() == [0]


def test_contains_image_points():
    rng = np.random.default_rng(7)
    eps = 1e-9
    for g in catalog_members():
        z = (1.0 - 10 * eps) * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        vals = df.evaluate(g, z)
        codes = verdicts(g, vals, eps)
        assert np.all(codes == 1)


@pytest.mark.parametrize("g", [df.moebius(), df.starlike_order(0.3), df.starlike_order(0.75),
                               df.almost_starlike(0.4), df.strongly_starlike(0.5)],
                         ids=df.describe)
def test_classify_reads_the_forward_map_on_both_sides_of_the_circle(g):
    # an oracle free of the margin formulas: g maps the disc onto g(U) and
    # the rest of the plane off it, so w = g(z) reads inside or outside as z
    # lies inside or outside the unit circle
    rng = np.random.default_rng(13)
    z = rng.uniform(0.0, 3.0, 400) * np.exp(2j * np.pi * rng.random(400))
    z = z[np.abs(np.abs(z) - 1.0) > 1e-3]
    w = df._eval_raw(g, z)
    assert np.array_equal(verdicts(g, w, 1e-9), np.where(np.abs(z) < 1.0, 1, -1))


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf])
def test_classify_rejects_an_eps_that_is_not_finite_and_positive(eps):
    # a NaN eps made every comparison false, so every value read indeterminate
    with pytest.raises(DomainError, match="eps"):
        df.classify(np.array([0.5, -0.5]), np.array([0.5, -0.5]), eps)


NON_FINITE = np.array([math.nan, math.inf, -math.inf, complex(math.inf, 1.0),
                       complex(1.0, math.nan)])


@pytest.mark.parametrize("g", catalog_members(), ids=lambda g: df.describe(g))
def test_non_finite_values_are_outside_with_margin_minus_inf(g):
    # a NaN or infinite w is no point of g(U): it must not read as
    # indeterminate, nor as the deepest point inside (+inf margin)
    w = np.append(NON_FINITE, 1.0)
    assert verdicts(g, w, 1e-9).tolist() == [-1] * len(NON_FINITE) + [1]
    margins = df.boundary_margin(g, w)
    assert np.all(margins[:-1] == -np.inf) and margins[-1] > 0


def test_non_finite_scalars_are_outside():
    assert verdicts(df.moebius(), math.nan, 1e-9).tolist() == [-1]
    assert verdicts(df.strongly_starlike(0.5), math.inf, 1e-9).tolist() == [-1]
    assert df.boundary_margin(df.moebius(), math.inf) == -math.inf


def test_image_convexity_midpoints():
    rng = np.random.default_rng(11)
    for g in catalog_members():
        z = 0.999 * np.sqrt(rng.random(20000)) * np.exp(2j * np.pi * rng.random(20000))
        vals = df.evaluate(g, z)
        mid = 0.5 * (vals[:10000] + vals[10000:])
        codes = verdicts(g, mid, 1e-9)
        assert not np.any(codes == -1)


def test_real_symmetry():
    rng = np.random.default_rng(3)
    z = 0.95 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    for g in catalog_members():
        assert np.allclose(df.evaluate(g, np.conj(z)), np.conj(df.evaluate(g, z)), atol=1e-12)


def test_boundary_margin_at_center_equals_d1():
    for g in catalog_members():
        assert df.boundary_margin(g, 1.0) == pytest.approx(df.d1(g), abs=1e-12)


def test_boundary_margin_sign_agrees_with_contains():
    rng = np.random.default_rng(5)
    w = rng.normal(scale=2.0, size=200) + 1j * rng.normal(scale=2.0, size=200)
    for g in catalog_members():
        margins = df.boundary_margin(g, w)
        codes = verdicts(g, w, 1e-9)
        assert np.all(margins[codes == 1] > 0)
        assert np.all(margins[codes == -1] < 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.0, 2.0 * math.pi))
def test_membership_property_moebius(r, phi):
    # the moebius image is the right half-plane
    w = complex(df.evaluate(df.moebius(), r * np.exp(1j * phi)))
    assert w.real > 0


def test_classify_band_is_euclidean():
    # where the preimage modulus and the distance to the sector's edge
    # disagree: 34.64 - 17.69j lies 0.036 outside the sector of strongly
    # starlike 0.3 and 0.00109 + 0.00004j lies 4.6e-4 inside it, yet
    # |g^{-1}(w)| is within 4e-8 of 1 at both, so they read indeterminate
    # in a band of width 1e-9 * max(1, |w|) around modulus 1
    g = df.strongly_starlike(0.3)
    w = np.array([34.64 - 17.69j, 0.00109 + 0.00004j])
    assert df.boundary_margin(g, w) == pytest.approx([-0.0357, 4.59e-4], rel=0.01)
    assert verdicts(g, w, 1e-9).tolist() == [-1, 1]


def boundary_point_and_normal(g):
    """A point of the boundary of g(U) and the outward unit normal there."""
    if g.family == df.ALMOST_STARLIKE:
        return complex(g.alpha, 1.0), -1.0  # the line Re w = alpha
    return 0.0j, -1.0  # the half-planes, discs and sectors all touch 0 from the right


@pytest.mark.parametrize("g", catalog_members(), ids=df.describe)
def test_a_value_just_outside_the_boundary_is_indeterminate(g):
    point, normal = boundary_point_and_normal(g)
    w = point + 1e-16 * normal
    assert verdicts(g, w, 1e-9).tolist() == [0]
    assert verdicts(g, point - 1e-6 * normal, 1e-9).tolist() == [1]
    assert verdicts(g, point + 1e-6 * normal, 1e-9).tolist() == [-1]


SECTOR_ALPHAS = (0.3, 0.5, 0.77, 1.0)


def old_sector_radius(alpha, w):
    """The sector inverse |g^{-1}(w)| through the complex log and exp: the
    oracle for the codes, independent of the margin formulas."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.abs(np.angle(w))
        safe = phi <= min(alpha * np.pi, np.pi) * (1.0 + 1e-14)
        u = np.exp(np.log(np.where(w == 0, 1.0, w)) / alpha)
        r = np.where(safe, np.abs((1.0 - u) / (1.0 + u)), 2.0 + phi)
        r = np.where(w == 0, 1.0, r)
    return np.where(np.isnan(r), np.inf, r)


def exact_sector_radius(alpha, w):
    """|1 - u| / |1 + u| with u = w^(1/alpha) on the principal branch, to 50 digits."""
    with mpmath.workdps(50):
        u = mpmath.power(mpmath.mpc(w.real, w.imag), 1 / mpmath.mpf(alpha))
        return float(abs(1 - u) / abs(1 + u))


def assert_codes_follow_the_radius(alpha, w, radius):
    """Wherever the preimage modulus is farther than 1e-6 from 1, the code
    is decided and says what the modulus says."""
    codes = verdicts(df.strongly_starlike(alpha), w, 1e-9)
    decided = np.abs(radius - 1.0) > 1e-6
    assert decided.sum() >= len(w) // 2
    assert np.array_equal(codes[decided], np.where(radius[decided] < 1.0, 1, -1))


@pytest.mark.parametrize("alpha", SECTOR_ALPHAS)
def test_sector_codes_against_a_50_digit_reference(alpha):
    # random points of the sector, both sides of its edge |arg w| = alpha pi/2,
    # and moduli down to 1e-300 and up to 1e300 (where w^(1/alpha) overflows)
    rng = np.random.default_rng(61)
    edge = alpha * np.pi / 2.0
    w = np.exp(rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-1.5 * edge, 1.5 * edge, 200))
    mod = np.exp(rng.uniform(-3.0, 3.0, 16))
    at_edge = np.concatenate([mod * np.exp(1j * s * (edge + d))
                              for s in (1, -1) for d in (1e-12, -1e-12)])
    tiny_huge = np.array([1e-300, 1e300]) * np.exp(0.7j * edge)
    w = np.concatenate([w, at_edge, tiny_huge, [1e-300, 1e300]])
    exact = np.array([exact_sector_radius(alpha, x) for x in w])
    assert_codes_follow_the_radius(alpha, w, exact)
    # a point at the edge is indeterminate whatever side it lies on
    assert np.all(verdicts(df.strongly_starlike(alpha), at_edge, 1e-9) == 0)


@pytest.mark.parametrize("alpha", SECTOR_ALPHAS)
def test_sector_codes_at_zero_and_on_the_negative_axis(alpha):
    g = df.strongly_starlike(alpha)
    assert verdicts(g, 0.0, 1e-9).tolist() == [0]  # the vertex is on the boundary
    negative = -np.array([1e-3, 0.5, 2.0, 1e3])
    codes = verdicts(g, negative, 1e-9)
    # outside the sector; on the right half-plane (alpha = 1) too, since the
    # preimage of -x is (1 + x) / (1 - x), of modulus above 1
    assert np.all(codes == -1)
    # the lower side of the cut (imaginary part -0.0) gets the same verdicts
    assert np.array_equal(codes, verdicts(g, np.conj(negative + 0j), 1e-9))


@pytest.mark.parametrize("alpha", SECTOR_ALPHAS)
def test_sector_codes_match_the_complex_log_formula(alpha):
    rng = np.random.default_rng(67)
    w = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) * np.exp(
        rng.uniform(-3.0, 3.0, 100_000))
    assert_codes_follow_the_radius(alpha, w, old_sector_radius(alpha, w))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([df.STARLIKE_ORDER, df.ALMOST_STARLIKE, df.STRONGLY_STARLIKE]),
       st.floats(0.02, 0.98), st.floats(0.0, 0.98), st.floats(0.0, 2.0 * math.pi))
def test_image_membership_property(family, alpha, r, phi):
    if family == df.STRONGLY_STARLIKE:
        alpha = max(alpha, 0.05)
    g = df.DiscFunction(family, round(alpha, 6))
    w = complex(df.evaluate(g, r * np.exp(1j * phi)))
    assert verdicts(g, w, 1e-9)[0] >= 0  # inside or boundary-indeterminate
    assert df.boundary_margin(g, w) > -1e-9
