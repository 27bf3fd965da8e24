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
from oracles import leaving_form

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
    f_a = el.sample_Sg0(g, P2, np.random.default_rng(77), pieces=2)
    f_b = el.sample_Sg0(g, P2, np.random.default_rng(77), pieces=2)
    assert f_a.provenance is not None
    Z = np.array([[0.3 + 0.2j, -0.1], [0.0, 0.5j]], dtype=complex)
    assert np.allclose(f_a.values(Z), f_b.values(Z), atol=1e-12)
    for _ in range(3):
        f = el.sample_Sg0(g, P2, np.random.default_rng(5), pieces=2)
        assert abs(L12(f)) <= bound + 1e-6


def test_random_schedule_draws_pieces_in_order():
    g = df.moebius()
    with pytest.raises(DomainError):
        el.random_schedule(g, P2, np.random.default_rng(0), 0)
    field = el.random_schedule(g, P2, np.random.default_rng(9), 3)
    rng = np.random.default_rng(9)
    maps = [carath.random_Mg_member(g, P2, rng, int(rng.integers(1, 4))) for _ in range(3)]
    assert len(field.maps) == 3
    Z = np.array([[0.3 + 0.2j, -0.1], [0.0, 0.5j]], dtype=complex)
    for drawn, ref in zip(field.maps, maps):
        assert drawn.describe() == ref.describe()
        assert np.array_equal(drawn.values(Z), ref.values(Z))


def test_sampling_certifies_nothing(monkeypatch):
    # sampled generators are M_g members by construction
    # (carath.random_Mg_member): drawing a schedule runs no certificate
    certified, drawn = [], []
    real_certify, real_make = carath.certify_Mg, lf.make_field

    def certify_Mg(*args, **kwargs):
        certified.append(args[0])
        return real_certify(*args, **kwargs)

    def make_field(*args, **kwargs):
        drawn.append(args[0])
        return real_make(*args, **kwargs)

    monkeypatch.setattr(carath, "certify_Mg", certify_Mg)
    monkeypatch.setattr(lf, "make_field", make_field)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=5, rng=np.random.default_rng(8))
    assert report.passed and len(drawn) == 5
    env = cli.run_experiment(cli.ExperimentConfig(experiment="shear_commute", seed=3, N=2))
    assert env.passed and len(drawn) == 7
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
    assert el.verify_shear_commutes(field, samples=10) < 1e-7


def test_verify_shear_commutes_canonical_field():
    g = df.moebius()
    field = lf.autonomous_field(carath.canonical_field(g, P2, 1, 2, +1), P2)
    assert el.verify_shear_commutes(field, samples=10) < 1e-6


def test_verify_shear_commutes_random_field():
    g = df.moebius()
    rng = np.random.default_rng(6)
    field = el.random_schedule(g, P2, rng, 3)
    assert el.verify_shear_commutes(field, samples=12) < 1e-5


def test_bound_report_json():
    rng = np.random.default_rng(7)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=0, rng=rng)
    blob = report.to_json()
    assert blob["functional"] == {"i": 1, "j": 2, "kind": "pure"}
    assert blob["violations"] == []


def expanding_sample(dom):
    """A parametric map whose flow leaves the ball from z_2 = -0.4, on the
    e_2 circles of radius 0.4 that scan and gprime take coefficients on."""
    return lf.parametric_holmap(lf.autonomous_field(leaving_form(dom, 2), dom))


@pytest.mark.parametrize("experiment", ["scan", "gprime"])
def test_flow_failure_of_a_draw_is_resampled(monkeypatch, experiment):
    draws = []
    real = el.sample_Sg0

    def sample(g, dom, rng, pieces):
        draws.append(pieces)
        return expanding_sample(dom) if len(draws) == 1 else real(g, dom, rng, pieces)

    monkeypatch.setattr(el, "sample_Sg0", sample)
    rng = np.random.default_rng(8)
    if experiment == "scan":
        report = el.scan_support(df.moebius(), P2, 1, 2, N=2, rng=rng, pieces=2)
    else:
        report = el.verify_gprime_bounds(df.moebius(), P2, N=1, rng=rng, pieces=1)
    assert report.passed, report.violations
    assert report.n_samples == len(draws) - 1


def test_repeated_flow_failures_abort_the_scan(monkeypatch):
    monkeypatch.setattr(el, "sample_Sg0", lambda g, dom, rng, pieces: expanding_sample(dom))
    with pytest.raises(NumericalInstabilityError, match="failed to converge repeatedly"):
        el.scan_support(df.moebius(), P2, 1, 2, N=1, rng=np.random.default_rng(0))


def test_two_radius_disagreement_is_not_resampled(monkeypatch, tmp_path):
    def broken(Z):
        out = Z.copy()
        out[:, 0] += np.where(np.abs(Z[:, 1]) > 0.3, Z[:, 1] ** 2, 0.0)
        return out

    draws = []

    def sample(g, dom, rng, pieces):
        draws.append(pieces)
        return carath.BlackBoxMap(broken, dom, normalized=True)

    monkeypatch.setattr(el, "sample_Sg0", sample)
    with pytest.raises(NumericalInstabilityError) as info:
        el.scan_support(df.moebius(), P2, 1, 2, N=1, rng=np.random.default_rng(0))
    assert not isinstance(info.value, FlowInstabilityError)
    assert len(draws) == 1
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--seed", "1", "--n", "1", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["instability"] is True


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
    ode_plus = carath.second_coeff_bundle(plus, requests)
    ode_minus = carath.second_coeff_bundle(minus, requests)
    assert ode_minus[1, 2, carath.PURE] == -ode_plus[1, 2, carath.PURE]
    _, gap_plus = el._exact_coeffs(plus, requests, ode_plus)
    _, gap_minus = el._exact_coeffs(minus, requests, ode_minus)
    assert gap_minus == gap_plus > 0.0


@pytest.mark.parametrize("N,flows", [(0, 1), (5, 2)])
def test_scan_flows_the_plus_canonical_map_only(N, flows, monkeypatch):
    calls, scored = [], {}
    real_map, real_exact = lf.parametric_map, el._exact_coeffs

    def parametric_map(*args, **kwargs):
        calls.append(args[0])
        return real_map(*args, **kwargs)

    def exact_coeffs(f, requests, ode):
        exact, gap = real_exact(f, requests, ode)
        scored[f.describe()] = (exact[1, 2, carath.PURE], ode)
        return exact, gap

    monkeypatch.setattr(lf, "parametric_map", parametric_map)
    monkeypatch.setattr(el, "_exact_coeffs", exact_coeffs)
    report = el.scan_support(df.moebius(), P2, 1, 2, N=N, rng=np.random.default_rng(4),
                             pieces=2)
    assert report.passed, report.violations
    # sample #0 is the one cross-checked draw at N = 5; of the canonical
    # maps only parametric[h+] is flowed
    assert len(calls) == flows
    value, ode = scored["parametric[h-]"]
    assert ode is None and value.real == report.theoretical_bound
    assert scored["parametric[h+]"][1] is not None


def sharp_parametric(g, dom, coord):
    e = np.eye(dom.n)[coord - 1]
    return lf.parametric_holmap(lf.autonomous_field(carath.disc_multiple_map(g, e, dom), dom))


@pytest.mark.parametrize("g", [df.moebius(), df.strongly_starlike(0.5)], ids=df.describe)
@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), SP], ids=lambda d: f"{d.kind}-{d.n}")
def test_swapped_sharp_map_reads_the_mixed_coefficient_of_the_first(g, dom):
    # the reason verify_gprime_bounds flows g(z_1) z alone: g(z_2) z is it
    # conjugated by the swap P of z_1 and z_2, so its limit is P f P and its
    # mixed (1, 2) coefficient is f's mixed (2, 1), exactly and through the flow
    first, second = sharp_parametric(g, dom, 1), sharp_parametric(g, dom, 2)
    swapped, own = (2, 1, carath.MIXED), (1, 2, carath.MIXED)
    ode_first = carath.second_coeff_bundle(first, [(1, 1, carath.PURE), swapped])
    ode_second = carath.second_coeff_bundle(second, [own])
    assert abs(ode_first[swapped] - ode_second[own]) <= 1e-13
    exact_first, _ = el._exact_coeffs(first, [swapped], None)
    exact_second, _ = el._exact_coeffs(second, [own], None)
    assert exact_first[swapped] == exact_second[own]
    assert abs(exact_first[swapped]) == abs(df.g_prime0(g))


@pytest.mark.parametrize("dom", [P2, bg.polydisc(3), SP, E2], ids=lambda d: f"{d.kind}-{d.n}")
def test_gprime_flows_one_sharp_map(dom, monkeypatch):
    calls, real_map = [], lf.parametric_map

    def parametric_map(*args, **kwargs):
        calls.append(args[0])
        return real_map(*args, **kwargs)

    monkeypatch.setattr(lf, "parametric_map", parametric_map)
    report = el.verify_gprime_bounds(df.moebius(), dom, N=0, rng=np.random.default_rng(3))
    assert report.passed, report.violations
    assert len(calls) == 1
    assert 0.0 < report.canonical_gap <= 1e-9
