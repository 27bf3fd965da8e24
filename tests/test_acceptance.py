"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Budgets are wall-clock upper bounds, not targets."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import cli_reports as cli
from loewner_lab import disc_functions as df
from loewner_lab import extremal_lab as el
from loewner_lab import loewner_flow as lf

ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]
P2 = bg.polydisc(2)
P3 = bg.polydisc(3)
SP = bg.spectral2()
E2 = bg.euclidean(2)
#: the CLI subprocesses import the package from this tree, installed or not
SRC = Path(__file__).resolve().parents[1] / "src"


class Criterion:
    def __init__(self, number, label, budget):
        self.number, self.label, self.budget = number, label, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number}: {self.label} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s")
        return False


def closed_form_d1(family, alpha):
    if family == df.MOEBIUS:
        return 1.0
    if family == df.STARLIKE_ORDER:
        return 1.0 if alpha <= 0.5 else (1.0 - alpha) / alpha
    if family == df.ALMOST_STARLIKE:
        return 1.0 - alpha
    return float(np.sin(alpha * np.pi / 2.0))


def test_criterion_1_d1_closed_forms():
    with Criterion(1, "d1 boundary-grid scan matches the closed forms", budget=2.0):
        for family in df.FAMILIES:
            for alpha in ALPHAS:
                g = df.moebius() if family == df.MOEBIUS else df.DiscFunction(family, alpha)
                numeric = df.d1_grid(g)
                assert abs(numeric - closed_form_d1(family, alpha)) < 1e-9, (family, alpha)


def test_criterion_2_a0_dominates_d1():
    with Criterion(2, "a0 >= d1 - 1e-9 on the alpha grid; a0(moebius) = 1", budget=5.0):
        for family in df.FAMILIES:
            for alpha in ALPHAS:
                g = df.moebius() if family == df.MOEBIUS else df.DiscFunction(family, alpha)
                assert df.a0(g) >= df.d1(g) - 1e-9, (family, alpha)
        # brute-force 1e6-point oracle for the moebius value
        rho = np.arange(1, 10**6, dtype=float) / 10**6
        gm = df.moebius()
        right = np.abs(1.0 - df._eval_raw(gm, rho.astype(complex)))
        left = np.abs(df._eval_raw(gm, -rho.astype(complex)) - 1.0)
        oracle = float(np.min(np.minimum(right, left) / rho))
        value = df.a0(gm)
        assert abs(value - 1.0) < 1e-8
        assert abs(value - oracle) < 1e-6


@pytest.mark.parametrize("dom", [P2, P3, SP], ids=["polydisc2", "polydisc3", "spectral2"])
def test_criterion_3_certification(dom):
    with Criterion(3, f"canonical fields certify on {dom.kind}(n={dom.n}), inflation fails",
                   budget=30.0):
        g = df.moebius()
        rng = np.random.default_rng(2025)
        for sign in (+1, -1):
            h = carath.canonical_field(g, dom, 1, 2, sign)
            cert = carath.certify_Mg(h, g, dom, 10**4, rng=rng)
            assert cert.passed, cert.witness
        inflated = carath.scale_term(carath.canonical_field(g, dom, 1, 2, +1), 1,
                                     tuple(2 if k == 1 else 0 for k in range(dom.n)), 1.05)
        cert = carath.certify_Mg(inflated, g, dom, 10**4, rng=rng)
        assert not cert.passed
        z = cert.witness["z"]
        assert abs(abs(z[0]) - abs(z[1])) < 1e-9  # witness on the |z1| = |z2| torus


def test_criterion_4_flow_correctness():
    with Criterion(4, "flow matches closed form, semigroup, parametric limit", budget=60.0):
        g = df.moebius()
        c = df.d1(g)
        field = lf.autonomous_field(carath.canonical_field(g, P2, 1, 2, +1), P2)
        rng = np.random.default_rng(7)
        Z = np.stack([bg.sample_sphere(P2, rng) for _ in range(100)])
        Z *= rng.uniform(0.05, 0.95, 100)[:, None]

        def closed(Z, t):
            out = np.exp(-t) * Z.copy()
            out[:, 0] += c * Z[:, 1] ** 2 * (np.exp(-2 * t) - np.exp(-t))
            return out

        for t in (0.5, 2.0, 6.5, 10.0):
            got = lf.flow(field, Z, 0.0, t).endpoint
            assert np.max(np.abs(got - closed(Z, t))) < 1e-8

        mid = lf.flow(field, Z, 0.0, 2.0).endpoint
        relay = lf.flow(field, mid, 2.0, 7.0).endpoint
        direct = lf.flow(field, Z, 0.0, 7.0).endpoint
        assert np.max(np.abs(relay - direct)) < 1e-8

        Zs = Z * (0.7 / np.maximum(np.asarray(bg.norm(P2, Z)), 1e-12))[:, None] * 0.999
        res = lf.parametric_map(field, Zs)
        assert res.horizon_used == lf.HORIZON
        expect = Zs.copy()
        expect[:, 0] -= c * Zs[:, 1] ** 2
        assert np.max(np.abs(res.endpoint - expect)) < 1e-6


def test_criterion_5_sharp_bound_polydisc():
    with Criterion(5, "scan on polydisc n=2: max Re L <= 1 + 1e-6, F attains 1", budget=300.0):
        rng = np.random.default_rng(42)
        report = el.scan_support(df.moebius(), P2, 1, 2, N=200, rng=rng)
        assert not report.violations, report.violations
        assert report.theoretical_bound == pytest.approx(1.0)
        assert report.empirical_max <= 1.0 + 1e-6
        F = el.support_map(df.moebius(), P2, 1, 2, +1)
        assert carath.second_coeff(F, 1, 2, carath.PURE).real == pytest.approx(1.0, abs=1e-8)


def test_criterion_6_euclidean_factor():
    with Criterion(6, "Euclidean factor 3*sqrt(3)/2 attained; margin -> 0 on the torus",
                   budget=300.0):
        g = df.moebius()
        factor = 3.0 * np.sqrt(3.0) / 2.0
        rng = np.random.default_rng(43)
        report = el.scan_support(g, E2, 1, 2, N=100, rng=rng)
        assert not report.violations, report.violations
        assert report.theoretical_bound == pytest.approx(factor * df.d1(g), abs=1e-12)
        F = el.support_map(g, E2, 1, 2, +1)
        assert (carath.second_coeff(F, 1, 2, carath.PURE).real
                == pytest.approx(factor * df.d1(g), abs=1e-8))

        h = carath.canonical_field(g, E2, 1, 2, +1)
        cert = carath.certify_Mg(h, g, E2, 10**4, rng=rng)
        assert cert.passed, cert.witness
        # margin at the outermost torus: the sphere maximizer of |z1||z2|^2
        # sits at moduli (1/sqrt(3), sqrt(2/3)), scaled by the radius 0.999
        torus = np.concatenate(list(carath._torus_blocks(E2, radii=(0.999,))))
        vals, _ = bg.support_values(E2, torus, h.values(torus))
        margins = np.asarray(df.boundary_margin(g, vals))
        assert np.min(margins) >= 0.0
        assert np.min(margins) == pytest.approx(df.d1(g) * 1e-3, abs=2e-4)


def test_criterion_7_gprime_bounds():
    with Criterion(7, "second coefficients bounded by |g'(0)| = 2, sharp maps attain",
                   budget=300.0):
        rng = np.random.default_rng(44)
        report = el.verify_gprime_bounds(df.moebius(), P2, N=100, rng=rng)
        assert not report.violations, report.violations[:3]
        assert report.theoretical_bound == pytest.approx(2.0)
        assert report.empirical_max <= 2.0 + 1e-6
        assert report.empirical_max == pytest.approx(2.0, abs=1e-6)


def test_criterion_8_unbounded_support_point():
    with Criterion(8, "radial transform, growth floor and diagonal coefficient", budget=30.0):
        g = df.moebius()
        rng = np.random.default_rng(45)
        zeta = 0.95 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
        got = lf.koebe_transform(g, zeta)
        assert np.max(np.abs(got - zeta / (1.0 - zeta) ** 2)) < 1e-9

        fmap = lf.unbounded_support_map(g, E2)
        z = np.zeros((1, 2), dtype=complex)
        z[0, 0] = 0.99
        grown = float(np.asarray(bg.norm(E2, fmap.values(z)))[0])
        assert abs(grown - 9900.0) / 9900.0 < 1e-4

        C = lf.growth_constant(g)
        b_half = lf.koebe_transform(g, 0.5).real
        for rho in (0.9, 0.99, 0.999):
            b_rho = lf.koebe_transform(g, rho).real
            assert b_rho >= b_half * (2.0 * (1.0 - rho)) ** (-C) * (1.0 - 1e-12)

        diag = carath.second_coeff(fmap, 1, 1, carath.PURE)
        assert diag == pytest.approx(2.0, abs=1e-7)


def test_criterion_9_shear_commutation():
    with Criterion(9, "shearing commutes with the parametric limit on 20 random fields",
                   budget=600.0):
        g = df.moebius()
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(20):
            schedule = el.sample_Sg0(g, P2, rng, 3)
            worst = max(worst, el.verify_shear_commutes(schedule))
        assert worst < 1e-5, worst


def test_criterion_10_cli_reproducibility(tmp_path):
    with Criterion(10, "headless CLI runs are byte-identical under a fixed seed", budget=120.0):
        jobs = [
            ("d1", ["d1-table", "--family", "starlike_order", "--seed", "5"]),
            ("certify", ["certify", "--seed", "5", "--n", "500"]),
            ("scan", ["scan", "--seed", "5", "--n", "3", "--pieces", "2"]),
        ]
        for name, args in jobs:
            out = tmp_path / f"{name}.json"
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "loewner_lab", *args, "--out", str(out)],
                    capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
                assert proc.returncode == 0, proc.stderr
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], f"{name} runs differ"
