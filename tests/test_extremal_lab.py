import json

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import cli_reports as cli
from loewner_lab import disc_functions as df
from loewner_lab import extremal_lab as el
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import DomainError, FlowInstabilityError, NumericalInstabilityError
from oracles import CATALOG, leaving_form, random_member, sampled_schedule

P2 = bg.polydisc(2)
E2 = bg.euclidean(2)
SP = bg.spectral2()


def L12(f):
    """The support functional L_{1,2}(f) = (1/2) d^2 f_1 / d z_2^2 (0)."""
    return carath.second_coeff(f, 1, 2, carath.PURE)


def test_functional_values():
    g = df.starlike_order(0.75)
    F = el.support_map(g, P2, 1, 2, +1)
    assert L12(F) == pytest.approx(df.d1(g), abs=1e-12)
    assert L12(carath.identity_map(P2)) == pytest.approx(0.0, abs=1e-14)
    # the scan's functional needs distinct indices
    with pytest.raises(DomainError):
        el.scan_support(g, P2, 1, 1, N=0, rng=np.random.default_rng(0))


def test_functional_linearity_on_polynomials():
    g = df.moebius()
    f1 = el.support_map(g, P2, 1, 2, +1)
    f2 = el.support_map(g, P2, 1, 2, -1)
    lam = 0.3
    mix = carath.convex_combination([f1, f2], [lam, 1 - lam])
    expect = lam * L12(f1) + (1 - lam) * L12(f2)
    assert L12(mix) == pytest.approx(expect, abs=1e-12)


def test_sample_Sg0_determinism_and_bound():
    g = df.moebius()
    bound = df.d1(g)
    with pytest.raises(DomainError):
        el.sample_Sg0(g, P2, np.random.default_rng(0), 0, 1)
    # the draw is a function of the seed: the pieces of a schedule are the
    # members drawn from the same stream, in order
    field = sampled_schedule(g, P2, np.random.default_rng(9), 3)
    assert isinstance(field, lf.HerglotzField)
    assert field.times == (0.0, lf.SEGMENT_DT, 2 * lf.SEGMENT_DT)
    rng = np.random.default_rng(9)
    maps = [random_member(g, P2, rng, int(rng.integers(1, 4))) for _ in range(3)]
    Z = np.array([[0.3 + 0.2j, -0.1], [0.0, 0.5j]], dtype=complex)
    for drawn, ref in zip(field.maps, maps, strict=True):
        assert drawn.describe() == ref.describe()
        assert np.array_equal(drawn.values(Z), ref.values(Z))
    for schedule in el.sample_Sg0(g, P2, np.random.default_rng(5), 2, 3):
        assert abs(lf.parametric_quadratic(schedule)[0, 1, 1]) <= bound + 1e-6
        assert abs(L12(lf.parametric_holmap(schedule))) <= bound + 1e-6


def test_one_dimensional_ball_draws_are_not_the_identity():
    # E^1 has no index pair for a canonical field, but a g(l_u z) z block is
    # an M_g member there too: the draws are not all the identity, and each
    # flowed draw's coefficient agrees with its jet
    E1 = bg.euclidean(1)
    g = df.moebius()
    schedules = el.sample_Sg0(g, E1, np.random.default_rng(0), 3, 50)
    jets = np.stack([lf.parametric_quadratic(schedule) for schedule in schedules])
    assert np.count_nonzero(np.any(jets != 0, axis=(1, 2, 3))) >= 40
    for s in range(0, 50, 8):
        assert abs(jets[s, 0, 0, 0]) <= abs(df.g_prime0(g)) + 1e-12  # |a_2| <= |g'(0)|
        fmap = lf.parametric_holmap(schedules[s], ode_tol=el.SAMPLER_ODE_TOL)
        _, _, gap = el._exact_coeffs(jets[s], [(1, 1, carath.PURE)], fmap)
        assert gap <= el.ORACLE_TOL

def test_sampling_certifies_nothing(monkeypatch):
    # sampled generators are M_g members by construction
    # (carath.draw_Mg_member): drawing a schedule runs no certificate.
    # A scan, gprime or shear-commute run draws all its samples in one
    # sample_Sg0 call, which the benchmark tracer times as
    # extremal_lab.sample_Sg0, and which builds the schedule of every draw;
    # scan and gprime flow the checked draws #0, #8, ..., shear-commute all
    certified, drawn, sampled = [], [], []
    real_certify, real_make, real_sample = carath.certify_Mg, lf.make_field, el.sample_Sg0

    def certify_Mg(*args, **kwargs):
        certified.append(args[0])
        return real_certify(*args, **kwargs)

    def make_field(*args, **kwargs):
        drawn.append(args[0])
        return real_make(*args, **kwargs)

    def sample_Sg0(*args, **kwargs):
        sampled.append(args[1].kind)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(carath, "certify_Mg", certify_Mg)
    monkeypatch.setattr(lf, "make_field", make_field)
    monkeypatch.setattr(el, "sample_Sg0", sample_Sg0)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=9, rng=np.random.default_rng(8))
    assert report.passed and report.oracle_checks == 2 and len(drawn) == 9
    assert sampled == ["polydisc"]
    report = el.verify_gprime_bounds(df.moebius(), E2, N=3, rng=np.random.default_rng(8))
    assert report.passed and report.oracle_checks == 1 and len(drawn) == 12
    assert sampled == ["polydisc", "euclidean"]
    env = cli.run_experiment(cli.ExperimentConfig(experiment="shear_commute", seed=3, N=2))
    assert env.passed and len(drawn) == 14 and sampled == ["polydisc", "euclidean", "polydisc"]
    assert certified == []


def test_scan_support_polydisc_moebius():
    rng = np.random.default_rng(0)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=4, rng=rng)
    assert report.passed, report.violations
    assert report.theoretical_bound == pytest.approx(1.0)
    assert report.empirical_max == pytest.approx(1.0, abs=1e-8)
    assert report.attaining_map_id.startswith("F_12")


def test_scan_support_euclidean_factor():
    rng = np.random.default_rng(1)
    report = el.scan_support(df.moebius(), E2, 1, 2, N=2, rng=rng)
    assert report.passed, report.violations
    assert report.theoretical_bound == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-12)
    assert report.empirical_max == pytest.approx(report.theoretical_bound, abs=1e-8)


def test_scan_support_spectral_strongly_starlike():
    rng = np.random.default_rng(2)
    g = df.strongly_starlike(0.5)
    report = el.scan_support(g, SP, 1, 2, N=2, rng=rng)
    assert report.passed
    assert report.theoretical_bound == pytest.approx(np.sin(np.pi / 4), abs=1e-12)


def test_scan_bound_tracks_d1_alpha_with_kink():
    rng = np.random.default_rng(3)
    bounds = {}
    for a in (0.3, 0.5, 0.6, 0.75):
        report = el.scan_support(df.starlike_order(a), P2, 1, 2, N=0, rng=rng)
        assert report.passed
        bounds[a] = report.theoretical_bound
        expect = 1.0 if a <= 0.5 else (1 - a) / a
        assert report.theoretical_bound == pytest.approx(expect, abs=1e-12)
        assert report.empirical_max == pytest.approx(expect, abs=1e-8)
    assert bounds[0.3] == bounds[0.5] == 1.0
    assert bounds[0.6] < 1.0


def test_sign_symmetry_of_canonical_maps():
    g = df.almost_starlike(0.4)
    f_plus = el.support_map(g, P2, 1, 2, +1)
    f_minus = el.support_map(g, P2, 1, 2, -1)
    lp = L12(f_plus)
    lm = L12(f_minus)
    assert abs(lp) == pytest.approx(abs(lm), abs=1e-12)
    assert lp.real == pytest.approx(-lm.real, abs=1e-12)


def test_verify_gprime_bounds_polydisc():
    rng = np.random.default_rng(4)
    report = el.verify_gprime_bounds(df.moebius(), P2, N=3, rng=rng)
    assert report.passed, report.violations
    assert report.theoretical_bound == pytest.approx(2.0)
    assert report.empirical_max == pytest.approx(2.0, abs=1e-6)


def test_verify_shear_commutes_identity_field():
    field = lf.autonomous_field(carath.identity_map(P2), P2)
    assert el.verify_shear_commutes(field) < 1e-7


def test_verify_shear_commutes_canonical_field():
    g = df.moebius()
    field = lf.autonomous_field(carath.canonical_field(g, P2, 1, 2, +1), P2)
    assert el.verify_shear_commutes(field) < 1e-6


def test_verify_shear_commutes_random_field():
    g = df.moebius()
    rng = np.random.default_rng(6)
    field = sampled_schedule(g, P2, rng, 3)
    assert el.verify_shear_commutes(field) < 1e-5


def test_bound_report_json():
    rng = np.random.default_rng(7)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=0, rng=rng)
    blob = report.to_json()
    assert blob["functional"] == {"i": 1, "j": 2, "kind": "pure"}
    assert blob["violations"] == []


def expanding_samples(dom, count):
    """``sample_Sg0``'s list for ``count`` draws of a schedule whose flow
    leaves the ball from z_2 = -DFT_RADII[0], on the circles of that radius
    that scan and gprime take coefficients on."""
    return [lf.autonomous_field(leaving_form(dom, 2), dom)] * count


@pytest.mark.parametrize("command", ["scan", "gprime"])
def test_flow_failure_of_a_checked_draw_exits_3(command, monkeypatch, tmp_path, capsys):
    # a sampled map is its schedule: a checked draw whose flow fails ends the
    # run as a numerical instability, it is not silently redrawn
    draws = []

    def sample(g, dom, rng, pieces, count):
        draws.append(count)
        return expanding_samples(dom, count)

    monkeypatch.setattr(el, "sample_Sg0", sample)
    out = tmp_path / "report.json"
    assert cli.main([command, "--seed", "1", "--n", "2", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["instability"] is True and report["pass"] is False
    assert "ball exit" in report["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err
    # sample #0 is the checked draw: it is drawn once, in the run's one
    # sample_Sg0 call, and nothing is drawn after its flow fails
    assert draws == [2]


def test_two_radius_disagreement_is_not_resampled(monkeypatch, tmp_path):
    # a z_2^2 term that only the larger DFT circle meets
    cut = sum(carath.DFT_RADII) / 2

    def broken(Z):
        out = Z.copy()
        out[:, 0] += np.where(np.abs(Z[:, 1]) > cut, Z[:, 1] ** 2, 0.0)
        return out

    draws, built, real, real_make = [], [], el.sample_Sg0, lf.make_field

    def sample(*args):
        draws.append(args[-1])
        return real(*args)

    def make_field(*args):
        built.append(args)
        return real_make(*args)

    # the broken map stands in for the flowed limit of the checked draw
    monkeypatch.setattr(el, "sample_Sg0", sample)
    monkeypatch.setattr(lf, "make_field", make_field)
    monkeypatch.setattr(lf, "parametric_holmap",
                        lambda field, **kwargs: carath.BlackBoxMap(broken, field.domain,
                                                                   normalized=True))
    with pytest.raises(NumericalInstabilityError, match="between radii") as info:
        el.scan_support(df.moebius(), P2, 1, 2, N=1, rng=np.random.default_rng(0))
    assert not isinstance(info.value, FlowInstabilityError)
    # one draw, drawn once and built once: no second sample replaces it
    assert draws == [1] and len(built) == 1
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--seed", "1", "--n", "1", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["instability"] is True and "between radii" in report["payload"]["error"]


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), E2, bg.euclidean(3), SP],
                         ids=lambda d: f"{d.kind}-{d.n}")
def test_sampled_flows_do_not_fail(dom):
    # the standing evidence that a flow failure of a checked draw may end the
    # run: over the catalog and 1 or 3 pieces, no draw's flow fails on the
    # circles scan (1, 2) and gprime take coefficients on (e_1, e_2 and,
    # on rank 2, e_1 +- e_2), and every gap stays within ORACLE_TOL
    requests = [(a, 2, carath.PURE) for a in range(1, dom.n + 1)] + [(1, 1, carath.PURE)]
    if dom.rank >= 2:
        requests.append((1, 2, carath.MIXED))
    for g in (df.moebius(), df.starlike_order(0.7), df.almost_starlike(0.4),
              df.strongly_starlike(0.5)):
        for pieces in (1, 3):
            for schedule in el.sample_Sg0(g, dom, np.random.default_rng(pieces), pieces, 4):
                fmap = lf.parametric_holmap(schedule, ode_tol=el.SAMPLER_ODE_TOL)
                _, _, gap = el._exact_coeffs(lf.parametric_quadratic(schedule), requests, fmap)
                assert gap <= el.ORACLE_TOL, (df.describe(g), pieces)


def test_only_every_eighth_sample_is_flowed(monkeypatch):
    flowed = []
    real = carath.second_coeff_bundle

    def bundle(f, requests, **kwargs):
        if f.describe().startswith("Sg0_sample"):
            flowed.append(f)
        return real(f, requests, **kwargs)

    monkeypatch.setattr(carath, "second_coeff_bundle", bundle)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=9, rng=np.random.default_rng(9),
                             pieces=2)
    assert report.passed, report.violations
    assert len(flowed) == report.oracle_checks == 2
    assert 0.0 < report.oracle_gap <= el.ORACLE_TOL
    blob = report.to_json()
    assert (blob["oracle_checks"], blob["oracle_gap"]) == (2, report.oracle_gap)
    flowed.clear()
    report = el.verify_gprime_bounds(df.moebius(), P2, N=2, rng=np.random.default_rng(9))
    assert len(flowed) == report.oracle_checks == 1
    empty = el.scan_support(df.moebius(), P2, 1, 2, N=0, rng=np.random.default_rng(9))
    assert (empty.oracle_checks, empty.oracle_gap) == (0, 0.0)


def test_oracle_disagreement_exits_3(monkeypatch, tmp_path, capsys):
    # shifts every exact quadratic part, so the flow of sampled draw #0
    # disagrees with its jet
    real = lf.parametric_quadratic
    monkeypatch.setattr(lf, "parametric_quadratic", lambda field: real(field) + 1e-6)
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--seed", "1", "--n", "1", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["instability"] is True and report["pass"] is False
    assert "disagree" in report["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "gprime"])
def test_canonical_oracle_disagreement_exits_3_without_samples(command, monkeypatch, tmp_path,
                                                               capsys):
    # at N = 0 only the canonical and sharp parametric maps are scored: their
    # exact values are still cross-checked through the flow
    real = lf.parametric_quadratic
    monkeypatch.setattr(lf, "parametric_quadratic", lambda field: real(field) + 1e-6)
    out = tmp_path / "report.json"
    assert cli.main([command, "--seed", "1", "--n", "0", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["instability"] is True and report["pass"] is False
    assert "parametric[" in report["payload"]["error"]
    assert "disagree" in report["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("dom", [P2, E2, SP], ids=lambda d: d.kind)
def test_canonical_maps_are_scored_exactly_and_cross_checked(dom):
    g = df.moebius()
    scan = el.scan_support(g, dom, 1, 2, N=0, rng=np.random.default_rng(3))
    assert (scan.oracle_checks, scan.oracle_gap) == (0, 0.0)
    assert 0.0 < scan.canonical_gap <= 1e-9
    assert scan.to_json()["canonical_gap"] == scan.canonical_gap
    # only parametric[h+] is flowed: h-(z) = -h+(-z), so f-(z) = -f+(-z) and
    # the minus flow would give the same gap bit for bit.  parametric[h-]
    # scores its exact value, which equals F_12+'s exactly, so the
    # closed-form map (entered first) stays the attainer
    assert scan.attaining_map_id.startswith("F_12")
    assert scan.empirical_max == pytest.approx(scan.theoretical_bound, abs=1e-12)
    gprime = el.verify_gprime_bounds(g, dom, N=0, rng=np.random.default_rng(3))
    assert 0.0 < gprime.canonical_gap <= 1e-9
    assert gprime.attaining_map_id == "parametric[g(z1)z]:pure(1,1)"


def canonical_parametric(g, dom, sign):
    h_field = lf.autonomous_field(carath.canonical_field(g, dom, 1, 2, sign), dom)
    return h_field, lf.parametric_holmap(h_field, ode_tol=el.SAMPLER_ODE_TOL)


@pytest.mark.parametrize("dom", [P2, E2, SP], ids=lambda d: d.kind)
def test_minus_canonical_limit_is_the_negated_plus_limit(dom):
    # the reason scan_support flows parametric[h+] alone: on the 128 DFT points
    # of the e_2 circles, f-(z) = -f+(-z) bit for bit.  There only component 1
    # of f differs from z, and it is even in z, so the scan's ODE coefficients
    # (1, 2) are exact negatives and their gaps are equal floats
    g = df.moebius()
    (plus_field, plus), (minus_field, minus) = (canonical_parametric(g, dom, s) for s in (1, -1))
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    Z = np.zeros((128, dom.n), dtype=complex)
    Z[:, 1] = np.concatenate([r * circle for r in carath.DFT_RADII])
    f_minus = lf.parametric_map(minus_field, Z, ode_tol=el.SAMPLER_ODE_TOL)
    f_plus = lf.parametric_map(plus_field, -Z, ode_tol=el.SAMPLER_ODE_TOL)
    assert np.array_equal(f_minus.endpoint, -f_plus.endpoint)
    requests = [(1, 2, carath.PURE)]
    _, ode_plus, gap_plus = el._exact_coeffs(lf.parametric_quadratic(plus_field), requests, plus)
    _, ode_minus, gap_minus = el._exact_coeffs(lf.parametric_quadratic(minus_field), requests,
                                               minus)
    assert ode_minus[1, 2, carath.PURE] == -ode_plus[1, 2, carath.PURE]
    assert gap_minus == gap_plus > 0.0


@pytest.mark.parametrize("N,flows", [(0, 1), (5, 2)])
def test_scan_flows_the_plus_canonical_map_only(N, flows, monkeypatch):
    calls, scored = [], []
    real_map, real_exact = lf.parametric_map, el._exact_coeffs

    def parametric_map(*args, **kwargs):
        calls.append(args[0])
        return real_map(*args, **kwargs)

    def exact_coeffs(jet, requests, fmap=None):
        exact, ode, gap = real_exact(jet, requests, fmap)
        scored.append((jet, fmap.describe() if fmap else None, exact[requests[0]]))
        return exact, ode, gap

    monkeypatch.setattr(lf, "parametric_map", parametric_map)
    monkeypatch.setattr(el, "_exact_coeffs", exact_coeffs)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=N, rng=np.random.default_rng(4),
                             pieces=2)
    assert report.passed, report.violations
    # sample #0 is the one cross-checked draw at N = 5; of the canonical
    # maps only parametric[h+] is flowed, and parametric[h-] is scored last
    assert len(calls) == flows
    assert [label for _, label, _ in scored if label] == (
        ["Sg0_sample[pieces=2]"] * (flows - 1) + ["parametric[h+]"])
    jet, label, value = scored[-1]
    assert label is None and value.real == report.theoretical_bound
    assert np.array_equal(jet, lf.parametric_quadratic(lf.autonomous_field(
        carath.canonical_field(df.moebius(), P2, 1, 2, -1), P2)))


def sharp_parametric(g, dom, coord):
    e = np.eye(dom.n)[coord - 1]
    field = lf.autonomous_field(carath.disc_multiple_map(g, e, dom), dom)
    return field, lf.parametric_holmap(field)


@pytest.mark.parametrize("g", [df.moebius(), df.strongly_starlike(0.5)], ids=df.describe)
@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), SP], ids=lambda d: f"{d.kind}-{d.n}")
def test_swapped_sharp_map_reads_the_mixed_coefficient_of_the_first(g, dom):
    # the reason verify_gprime_bounds flows g(z_1) z alone: g(z_2) z is it
    # conjugated by the swap P of z_1 and z_2, so its limit is P f P and its
    # mixed (1, 2) coefficient is f's mixed (2, 1), exactly and through the flow
    (first_field, first), (second_field, second) = (sharp_parametric(g, dom, k) for k in (1, 2))
    swapped, own = (2, 1, carath.MIXED), (1, 2, carath.MIXED)
    ode_first = carath.second_coeff_bundle(first, [(1, 1, carath.PURE), swapped])
    ode_second = carath.second_coeff_bundle(second, [own])
    assert abs(ode_first[swapped] - ode_second[own]) <= 1e-13
    exact_first, _, _ = el._exact_coeffs(lf.parametric_quadratic(first_field), [swapped])
    exact_second, _, _ = el._exact_coeffs(lf.parametric_quadratic(second_field), [own])
    assert exact_first[swapped] == exact_second[own]
    assert abs(exact_first[swapped]) == abs(df.g_prime0(g))


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), SP], ids=lambda d: f"{d.kind}-{d.n}")
def test_one_sharp_circle_reads_the_three_circle_coefficients(dom, monkeypatch):
    # the reason verify_gprime_bounds flows g(z_1) z on the circle through
    # e_1 + e_2 alone: every unitary fixing e_1 commutes with it, so f_1 does
    # not depend on z_2 and f_2 is z_2 times a function of z_1.  Its (1, 1)
    # and (2, 1) values equal the e_1 and e_1 +- e_2 circles' bit for bit
    sharp, real_exact = [], el._exact_coeffs

    def exact_coeffs(jet, requests, fmap=None, dft=None):
        exact, ode, gap = real_exact(jet, requests, fmap, dft)
        if fmap is not None and fmap.describe() == "parametric[g(z1)z]":
            sharp.append((fmap, ode))
        return exact, ode, gap

    monkeypatch.setattr(el, "_exact_coeffs", exact_coeffs)
    for g in CATALOG:
        el.verify_gprime_bounds(g, dom, N=0, rng=np.random.default_rng(3))
        fmap, ode = sharp.pop()
        assert list(ode) == [(1, 1, carath.PURE), (2, 1, carath.MIXED)]
        assert ode == carath.second_coeff_bundle(fmap, list(ode)), df.describe(g)


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), SP, E2], ids=lambda d: f"{d.kind}-{d.n}")
def test_gprime_flows_one_sharp_map(dom, monkeypatch):
    calls, real_map = [], lf.parametric_map

    def parametric_map(*args, **kwargs):
        calls.append(len(args[1]))
        return real_map(*args, **kwargs)

    monkeypatch.setattr(lf, "parametric_map", parametric_map)
    report = el.verify_gprime_bounds(df.moebius(), dom, N=0, rng=np.random.default_rng(3))
    assert report.passed, report.violations
    # one circle at both DFT radii: e_1 + e_2 on rank >= 2, e_1 on E2
    assert calls == [128]
    assert 0.0 < report.canonical_gap <= 1e-9


def test_a_nan_coefficient_fails_both_cross_checks():
    # a NaN gap is not > tol: both gap tests must read "not <= tol"
    nan_map = carath.BlackBoxMap(lambda Z: np.full(Z.shape, np.nan), P2, normalized=True)
    with pytest.raises(NumericalInstabilityError, match="disagree by nan"):
        carath.second_coeff(nan_map, 1, 1, carath.PURE)
    nan_jet = np.full((2, 2, 2), np.nan, dtype=complex)
    with pytest.raises(NumericalInstabilityError):
        el._exact_coeffs(nan_jet, [(1, 1, carath.PURE)], carath.identity_map(P2))


@pytest.mark.parametrize("pieces", [1, 3])
@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), E2, bg.euclidean(3), SP],
                         ids=lambda d: f"{d.kind}-{d.n}")
def test_a_batch_of_draws_is_its_draws_one_by_one(dom, pieces):
    # a scan draws all its samples in one call: the batch leaves the stream
    # where N one-draw calls leave it and gives their schedules, whose
    # values and exact quadratic parts agree bit for bit
    Z = np.random.default_rng(0).standard_normal((3, dom.n)) * 0.1 + 0j
    for k, g in enumerate(CATALOG):
        batch_rng, loop_rng = (np.random.default_rng(100 + k) for _ in range(2))
        batch = el.sample_Sg0(g, dom, batch_rng, pieces, 6)
        singles = [el.sample_Sg0(g, dom, loop_rng, pieces, 1)[0] for _ in range(6)]
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        assert np.array_equal(batch_rng.random(4), loop_rng.random(4))
        assert len(batch) == 6
        for schedule, single in zip(batch, singles, strict=True):
            assert len(schedule.maps) == pieces and schedule.times == single.times
            assert np.array_equal(lf.parametric_quadratic(schedule).view(float),
                                  lf.parametric_quadratic(single).view(float))
            for h, ref in zip(schedule.maps, single.maps, strict=True):
                assert np.array_equal(h.values(Z).view(float), ref.values(Z).view(float))


def reference_member(g, dom, spec, rows):
    """A drawn member built from its blocks' own maps, the identity,
    g(l_u(z))*z and the canonical field, summed by ``convex_combination``."""
    return carath.convex_combination(
        [carath.identity_map(dom) if b is None else carath.disc_multiple_map(g, rows[b], dom)
         if isinstance(b, int) else carath.canonical_field(g, dom, *b) for b in spec[0]],
        spec[1])


def raw(x):
    """dtype, shape and bytes of an array or scalar, or None."""
    return None if x is None else (np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes())


@pytest.mark.parametrize("pieces", [1, 3])
@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), bg.euclidean(1), E2, bg.euclidean(3), SP],
                         ids=lambda d: f"{d.kind}-{d.n}")
def test_a_lowered_member_is_its_blocks_combination_bit_for_bit(dom, pieces):
    # random_Mg_member lowers a spec straight to its form, with the order and
    # arithmetic of convex_combination over the blocks' own maps
    for k, g in enumerate(CATALOG):
        rng, points = np.random.default_rng(200 + k), []
        specs = [carath.draw_Mg_member(dom, rng, int(rng.integers(1, 4)), points)
                 for _ in range(6 * pieces)]
        L, owner = bg.support_functionals(dom, np.concatenate([np.empty((0, dom.n)), *points]))
        rows = L[np.unique(owner, return_index=True)[1]]
        for spec in specs:
            got, ref = (f(g, dom, spec, rows).form
                        for f in (carath.random_Mg_member, reference_member))
            assert (raw(got.w0), raw(got.lin)) == (raw(ref.w0), raw(ref.lin))
            assert len(got.disc) == len(ref.disc)
            for (g1, lmat, w), (g2, ref_lmat, ref_w) in zip(got.disc, ref.disc):
                assert g1 is g2 and (raw(lmat), raw(w)) == (raw(ref_lmat), raw(ref_w))
            assert len(got.monomials) == len(ref.monomials)
            for (idx, coef, comp), (ref_idx, ref_coef, ref_comp) in zip(got.monomials,
                                                                        ref.monomials):
                assert (raw(idx), raw(coef), comp) == (raw(ref_idx), raw(ref_coef), ref_comp)
            assert raw(got.quadratic(dom.n)) == raw(ref.quadratic(dom.n))


def test_a_scan_builds_each_draw_from_its_replayed_specs(monkeypatch):
    # the draws of a scan, replayed one member spec at a time from the same
    # stream: per piece a block count, then each block, then the weights
    rng, points = np.random.default_rng(2), []
    draws = [[carath.draw_Mg_member(SP, rng, int(rng.integers(1, 4)), points)
              for _ in range(3)] for _ in range(17)]
    members, functional_calls = [], []
    real_member, real_functionals = carath.random_Mg_member, bg.support_functionals

    def random_Mg_member(*args):
        members.append(args[2])
        return real_member(*args)

    def support_functionals(dom, Z):
        functional_calls.append(len(Z))
        return real_functionals(dom, Z)

    monkeypatch.setattr(carath, "random_Mg_member", random_Mg_member)
    monkeypatch.setattr(bg, "support_functionals", support_functionals)
    # the scan takes all unit points' rows in one call and lowers every
    # member spec it draws, in order
    report = el.scan_support(df.moebius(), SP, 1, 2, N=17, rng=np.random.default_rng(2))
    assert report.passed and report.oracle_checks == 3
    assert functional_calls == [len(points)] and len(points) > 1
    expected = [spec for draw in draws for spec in draw]
    assert len(members) == len(expected) == 51
    for (blocks, weights), (ref_blocks, ref_weights) in zip(members, expected):
        assert blocks == ref_blocks and np.array_equal(weights, ref_weights)
