import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import cli_reports as cli
from loewner_lab import disc_functions as df
from loewner_lab import extremal_lab as el
from loewner_lab import loewner_flow as lf
from loewner_lab.errors import DegenerateFunctionalError, NumericalInstabilityError

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(tmp_path, name, *args):
    out = tmp_path / f"{name}.json"
    code = cli.main([*args, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# canonical serialization


def test_float_serialization_round_trips():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0, -1.5e17, 0.0, -0.0, np.float64(1.0)]
    blob = cli.dumps_canonical({"values": values})
    back = json.loads(blob)["values"]
    assert back == values
    # a whole float reads back as a float, not an int, and keeps its sign
    assert all(type(v) is float for v in back)
    assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in values]


def test_dumps_sorted_and_complex():
    blob = cli.dumps_canonical({"b": 1, "a": complex(1.0, -2.0)})
    assert blob.index('"a"') < blob.index('"b"')
    assert json.loads(blob)["a"] == {"re": 1.0, "im": -2.0}


def test_report_round_trip(tmp_path):
    config = cli.ExperimentConfig(experiment="d1_table", seed=7,
                                  g_spec={"family": "starlike_order"},
                                  alphas=[0.25, 0.75])
    env = cli.run_experiment(config)
    out = tmp_path / "report.json"
    cli.emit_report(env, out)
    parsed = json.loads(out.read_text())
    assert parsed["pass"] is True
    assert parsed["config"]["seed"] == 7
    assert parsed["payload"] == json.loads(cli.dumps_canonical(env.payload))
    assert "wall_time" not in json.dumps(parsed)


def test_a_table_spells_each_float_alike_in_csv_and_json(tmp_path):
    config = cli.ExperimentConfig(experiment="d1_table", seed=1,
                                  g_spec={"family": "starlike_order"}, alphas=[0.05, 0.5])
    out = tmp_path / "report.json"
    cli.emit_report(cli.run_experiment(config), out)
    rows = json.loads(out.read_text(), parse_float=str)["payload"]["rows"]
    with open(out.with_suffix(".csv"), newline="") as handle:
        cells = list(csv.DictReader(handle))
    assert cells == [{key: str(value) for key, value in row.items()} for row in rows]
    assert [row["alpha"] for row in cells] == ["0.05", "0.5"]


# ---------------------------------------------------------------------------
# golden reports

#: configs and the reports the package wrote for them before sphere sampling
#: was batched (certify, flow-check) and before composite generators stopped
#: being node trees (shear-commute and unbounded-growth: they pin the sheared
#: random members and the radial map).  The scan and gprime reports were
#: written once sampled maps took their second coefficients from the exact
#: oracle, with every 8th sample flowed as a cross-check (the reports' oracle
#: fields); scan_polydisc_n9 (N = 9) pins that stride: samples 0 and 8 are
#: cross-checked, samples 1-7 are not.  certify_polydisc and the three
#: certify_*_inflated reports were rewritten, and scan_polydisc_n9 with them,
#: once support values became the functional rows of
#: ``ball_geometry.support_functionals`` applied to the map values: values and
#: margins moved in the last bits, and a witness may be another of the
#: violations tied with it up to rounding.  flow-check, shear-commute and
#: every scan and gprime report were rewritten once the flow integrated
#: u = e^t v (smaller residuals and oracle gaps) and the canonical and sharp
#: maps took their exact coefficients, with the new ``canonical_gap`` field
#: recording their cross-check through the flow.  scan_polydisc and
#: scan_polydisc_n9 were rewritten (``oracle_gap`` only) once a scan's
#: cross-check covered every component of the e_j circle, not (i, j) alone.
#: flow-check_polydisc and shear-commute_polydisc were rewritten once polydisc
#: batches were drawn natively (all indices, then one block of doubles), which
#: moved their sampled points; their residuals stay far below the thresholds.
#: unbounded-growth_euclidean was rewritten once the radial transform became
#: its closed form (values moved in the last digits, and growth_constant is
#: exactly 1.4) and the report gained the ``starlike_chain`` certificate,
#: and again (``ode_residual`` and the summary that prints it) once b' came
#: from a Cauchy circle instead of a central difference.
#: shear-commute_polydisc was rewritten again once ``make_field`` stopped
#: certifying each sampled generator: the report's rng no longer feeds those
#: certificates between draws, so its second schedule moved.
#: gprime_euclidean pins the rank-1 branch of ``verify_gprime_bounds`` (the
#: diagonal candidate alone); it was written before gprime scored
#: ``parametric[g(z2)z]`` from the flow of ``parametric[g(z1)z]``, and that
#: change kept all three gprime reports byte-identical.
#: flow-check_polydisc, shear-commute_polydisc and every scan and gprime
#: report were rewritten once a flow integrated w = e^t v in compactified
#: time d = e^-t with the cancellation-free remainder h - id, and a
#: parametric limit became one flow to the horizon: only their ODE gaps and
#: residuals (and the summaries that print them) moved, each to below its
#: old value or below 1e-15; every verdict held.
#: Every report was rewritten once the stdlib ``json`` and ``csv`` writers
#: replaced the ``.17g`` spelling: each float is its shortest round-trip
#: ``repr``, so a whole float reads ``1.0``, not the int ``1``.  Every value
#: parsed equal to the old one, and every verdict held.
#: The three gprime reports were rewritten (``canonical_gap`` only, each still
#: below 1e-15) once the DOP853 step control became predictive: the sharp
#: flow takes other steps and its round-off moved.
#: The six certify reports were rewritten (``samples_used`` only) once a map
#: with an array form was certified at radius 0.999 alone: its samples moved
#: onto that radius and its tori at 0.9 and 0.99 went, so each report counts
#: fewer points (euclidean 26576 -> 10192, polydisc 39064 -> 14488,
#: spectral2 14288 -> 6096); every margin, witness and verdict held bit for
#: bit, and the black-box chain check of unbounded-growth_euclidean kept its
#: bytes.
#: A change that alters these bytes must say so in CHANGES.md.  A file is
#: named <subcommand>_<label>.
GOLDEN = Path(__file__).parent / "data" / "golden"


_ABSENT = "<absent>"


def json_differences(old, new, path="$"):
    """(path, old, new) for every leaf where two parsed JSON documents
    differ; a key or list tail present on one side only reads ``<absent>``
    on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [diff for key in sorted(set(old) | set(new))
                for diff in json_differences(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                             f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list):
        pad = max(len(old), len(new))
        old, new = old + [_ABSENT] * (pad - len(old)), new + [_ABSENT] * (pad - len(new))
        return [diff for k, (a, b) in enumerate(zip(old, new))
                for diff in json_differences(a, b, f"{path}[{k}]")]
    same = old == new or (old != old and new != new)  # NaN reads equal to NaN
    return [] if same else [(path, old, new)]


def golden_mismatch(golden: Path, written: Path) -> str:
    """What differs between a golden report and a rewritten one: the JSON
    paths with golden and new values, or the differing CSV lines."""
    old, new = golden.read_text(), written.read_text()
    if golden.suffix == ".json":
        diffs = [f"  {path}: {a!r} -> {b!r}"
                 for path, a, b in json_differences(json.loads(old), json.loads(new))]
    else:
        pairs = zip(old.splitlines(), new.splitlines())
        diffs = [f"  line {k + 1}: {a!r} -> {b!r}" for k, (a, b) in enumerate(pairs) if a != b]
    return "\n".join([f"{golden.name} differs from its golden bytes:"]
                     + (diffs or ["  same values, different bytes"]))


def test_golden_mismatch_names_each_changed_field(tmp_path):
    golden, written = tmp_path / "a.json", tmp_path / "b.json"
    golden.write_text('{"payload": {"gap": 1e-10, "rows": [1, 2]}, "pass": true}\n')
    written.write_text('{"payload": {"gap": 2e-16, "rows": [1, 2, 3]}, "pass": true}\n')
    assert golden_mismatch(golden, written).splitlines()[1:] == [
        "  $.payload.gap: 1e-10 -> 2e-16", "  $.payload.rows[2]: '<absent>' -> 3"]
    written.write_text('{"payload": {"gap": 1.0e-10, "rows": [1, 2]}, "pass": true}\n')
    assert golden_mismatch(golden, written).endswith("same values, different bytes")


@pytest.mark.parametrize("name", sorted(p.name[:-len(".config.json")]
                                        for p in GOLDEN.glob("*.config.json")))
def test_reports_match_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command = name.split("_")[0]
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    exit_code = 3 if expected["instability"] else (0 if expected["pass"] else 1)
    assert cli.main([command, "--config", str(GOLDEN / f"{name}.config.json")]) == exit_code
    for suffix in (".json", ".csv"):
        golden = GOLDEN / f"{name}{suffix}"
        written = tmp_path / f"{command.replace('-', '_')}_report{suffix}"
        assert written.exists() == golden.exists()
        if golden.exists():
            assert written.read_bytes() == golden.read_bytes(), golden_mismatch(golden, written)


@pytest.mark.parametrize("name", ["certify_spectral2", "certify_polydisc"])
def test_certify_points_need_no_svd_and_one_edge_batch(name, tmp_path, monkeypatch):
    # spectral singular pairs are closed forms, and the sphere and polydisc
    # edge points each come from one block generator (one batched draw per
    # source, taken block by block); the report keeps its golden bytes
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    calls = []
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for sampler in ("sphere_blocks", "polydisc_edge_blocks"):
        monkeypatch.setattr(bg, sampler, lambda *args, _s=getattr(bg, sampler), _n=sampler,
                            **kwargs: calls.append(_n) or _s(*args, **kwargs))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["certify", "--config", str(GOLDEN / f"{name}.config.json")]) == 0
    assert (tmp_path / "certify_report.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert calls == ["sphere_blocks"] + (["polydisc_edge_blocks"] if name == "certify_polydisc"
                                         else [])


# ---------------------------------------------------------------------------
# experiments through run_experiment


def test_d1_table_rows_match_closed_form():
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    config = cli.ExperimentConfig(experiment="d1_table", seed=1,
                                  g_spec={"family": "starlike_order"}, alphas=alphas)
    env = cli.run_experiment(config)
    assert env.passed
    rows = env.payload["rows"]
    assert len(rows) == 9
    for row in rows:
        a = row["alpha"]
        expect = 1.0 if a <= 0.5 else (1 - a) / a
        assert row["closed_form"] == pytest.approx(expect, abs=1e-12)
        assert row["gap"] <= 1e-9


def test_a0_table_respects_lower_bound():
    config = cli.ExperimentConfig(experiment="a0_table", seed=1,
                                  g_spec={"family": "strongly_starlike"},
                                  alphas=[0.2, 0.5, 0.9])
    env = cli.run_experiment(config)
    assert env.passed
    for row in env.payload["rows"]:
        assert row["a0"] >= row["d1"] - 1e-9


def test_certify_canonical_passes():
    config = cli.ExperimentConfig(experiment="certify", seed=3, N=300)
    env = cli.run_experiment(config)
    assert env.passed
    assert env.payload["certificate"]["pass"] is True


def test_certify_inflated_fails_with_witness():
    config = cli.ExperimentConfig(experiment="certify", seed=3, N=300,
                                  coefficient_scale=1.05)
    env = cli.run_experiment(config)
    assert not env.passed
    witness = env.payload["certificate"]["witness"]
    assert witness["margin"] < 0
    mags = [abs(complex(v["re"], v["im"])) for v in witness["z"]]
    assert abs(mags[0] - mags[1]) < 1e-9


def test_flow_check_experiment():
    config = cli.ExperimentConfig(experiment="flow_check", seed=5, N=20)
    env = cli.run_experiment(config)
    assert env.passed, env.payload


def test_validation_errors():
    with pytest.raises(cli.UsageError, match="seed"):
        cli.ExperimentConfig(experiment="scan").validate()
    with pytest.raises(cli.UsageError, match="experiment"):
        cli.ExperimentConfig(experiment="nope", seed=1).validate()
    with pytest.raises(cli.UsageError, match="g_spec"):
        cli.ExperimentConfig(experiment="scan", seed=1,
                             g_spec={"family": "exotic"}).validate()
    with pytest.raises(cli.UsageError, match="indices"):
        cli.ExperimentConfig(experiment="scan", seed=1, i=1, j=3).validate()


#: the permutation matrix [[0, 1], [1, 0]] in (E11, E22, E12, E21)
#: coordinates: a unit point with equal singular values, not frame-diagonal
ANTIDIAGONAL = np.array([0.0, 0.0, 1.0, 1.0], dtype=complex)


class DegenerateFirstDraw:
    """A Generator whose first normal draw, taken as spectral sphere rows
    (real and imaginary parts of 2x2 matrices), starts with ANTIDIAGONAL."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.first:
            out[0] = 0.0
            out[0, 0, 0, 1] = out[0, 0, 1, 0] = 1.0
            self.first = False
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def assert_degenerate_point_exits_3(args, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main([*args, "--domain", "spectral2", "--seed", "1", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["instability"] is True and report["pass"] is False
    assert "equal singular values" in report["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err
    assert issubclass(DegenerateFunctionalError, NumericalInstabilityError)


def test_degenerate_point_of_a_scan_member_exits_3(monkeypatch, tmp_path, capsys):
    # the unit point u of a g(l_u(z))*z block (a scan's only sphere draw) is
    # drawn once: a degenerate one ends the run as a numerical instability,
    # it is not redrawn.  The scan draws all its members' unit points, then
    # takes their functionals in one call, so the run draws exactly the
    # points of a clean run of the same scan, and no more
    draws, degenerate, real = [], [], bg.sample_sphere

    def sample(dom, rng, count):
        Z = real(dom, rng, count)
        if degenerate and not draws:
            Z[...] = ANTIDIAGONAL
        draws.append(Z)
        return Z

    monkeypatch.setattr(bg, "sample_sphere", sample)
    args = ["scan", "--n", "2", "--domain", "spectral2", "--seed", "1"]
    assert cli.main([*args, "--out", str(tmp_path / "clean.json")]) == 0
    members = len(draws)
    draws.clear()
    degenerate.append(True)
    assert_degenerate_point_exits_3(["scan", "--n", "2"], tmp_path, capsys)
    assert members > 1 and len(draws) == members


def test_degenerate_point_in_the_first_certification_block_exits_3(monkeypatch, tmp_path,
                                                                   capsys):
    # a sampled certification point is not dropped for its singular gap
    real = cli._RUNNERS["certify"]
    monkeypatch.setitem(cli._RUNNERS, "certify", lambda config, g, dom, rng:
                        real(config, g, dom, DegenerateFirstDraw(rng)))
    assert_degenerate_point_exits_3(["certify", "--n", "100"], tmp_path, capsys)


def test_instability_becomes_failed_envelope(monkeypatch):
    def boom(config, g, dom, rng):
        raise NumericalInstabilityError("synthetic blowup")

    monkeypatch.setitem(cli._RUNNERS, "certify", boom)
    env = cli.run_experiment(cli.ExperimentConfig(experiment="certify", seed=1))
    assert env.instability and not env.passed
    assert "synthetic blowup" in env.payload["error"]


# ---------------------------------------------------------------------------
# command line entry


def test_cli_certify_exit_codes(tmp_path):
    code, out = run_cli(tmp_path, "ok", "certify", "--seed", "11", "--n", "200")
    assert code == 0
    assert json.loads(out.read_text())["pass"] is True
    code, out = run_cli(tmp_path, "bad", "certify", "--seed", "11", "--n", "200",
                        "--coefficient-scale", "1.05")
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


def test_cli_usage_error_exit_code(tmp_path):
    code = cli.main(["certify"])  # no seed anywhere
    assert code == 2


# unbounded-growth certifies its chain on the tori at N = 0, but E^1 has none
@pytest.mark.parametrize("command,args", [
    ("flow-check", []), ("shear-commute", []),
    ("unbounded-growth", ["--domain", "euclidean", "--dim", "1"])],
    ids=["flow-check", "shear-commute", "unbounded-growth-E1"])
def test_cli_zero_samples_is_usage_error(command, args, tmp_path, capsys):
    code, out = run_cli(tmp_path, "empty", command, "--seed", "1", "--n", "0", *args)
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: N:" in err and "Traceback" not in err
    assert not out.exists()


BAD_NUMBERS = [("--eps", "0", "eps"), ("--eps", "-1e-9", "eps"), ("--eps", "nan", "eps"),
               ("--eps", "inf", "eps"), ("--tolerance", "nan", "tolerance"),
               ("--tolerance", "0", "tolerance"), ("--sign", "0", "sign"),
               ("--sign", "2", "sign"), ("--coefficient-scale", "nan", "coefficient_scale"),
               ("--coefficient-scale", "inf", "coefficient_scale")]


@pytest.mark.parametrize("flag,value,field", BAD_NUMBERS,
                         ids=[f"{flag[2:]}={value}" for flag, value, _ in BAD_NUMBERS])
def test_cli_bad_numbers_are_usage_errors(flag, value, field, tmp_path, capsys):
    # exit 1 means a failed certificate, so a bad number must not reach the
    # certifier: neither a DomainError traceback nor a NaN verdict
    code, out = run_cli(tmp_path, "bad", "certify", "--seed", "7", "--n", "200", f"{flag}={value}")
    assert code == 2
    err = capsys.readouterr().err
    assert f"usage error: {field}:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("g_args", [["--family", "almost_starlike", "--alpha", "0.3"],
                                    ["--family", "strongly_starlike", "--alpha", "0.5"],
                                    ["--family", "custom"]],
                         ids=["almost_starlike(0.3)", "strongly_starlike(0.5)", "custom"])
def test_cli_unbounded_growth_rejects_a_g_without_radial_map(g_args, tmp_path, capsys):
    # a g outside the radial construction is a usage error, not a traceback
    # or an exit 1 (which reads as a failed bound)
    code, out = run_cli(tmp_path, "bad", "unbounded-growth", "--seed", "1", *g_args)
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: g_spec:" in err and "Traceback" not in err
    assert not out.exists()


def growth_draw(seed):
    """The points at which ``unbounded-growth --seed <seed>`` checks zeta b'/b = 1/g."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, 64) * np.exp(2j * np.pi * rng.random(64))


@pytest.mark.parametrize("g", [df.moebius(), df.starlike_order(0.3), df.starlike_order(0.7)],
                         ids=df.describe)
def test_unbounded_growth_ode_residual_is_independent_of_the_draw(g):
    # a central difference of step 1e-5 crosses the report's 1e-6 gate on
    # some of these draws (seeds 56 and 113 among them, for moebius); the
    # Cauchy circle stays near rounding on every one
    zeta = np.concatenate([growth_draw(seed) for seed in range(1, 401)])
    assert lf.koebe_ode_residual(g, zeta) < 1e-12


@pytest.mark.parametrize("domain", [["polydisc", "--dim", "2"], ["euclidean", "--dim", "2"],
                                    ["spectral2"]], ids=lambda d: d[0])
def test_unbounded_growth_passes_on_seed_56(domain, tmp_path):
    code, out = run_cli(tmp_path, "growth", "unbounded-growth", "--seed", "56",
                        "--domain", *domain)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    residual = lf.koebe_ode_residual(df.moebius(), growth_draw(56))
    assert report["payload"]["ode_residual"] == residual < 1e-12


#: each experiment at the smallest N that draws past the first sample: scan
#: and gprime flow sample #8 as well as #0, shear-commute flows two schedules
SWEEP_N = {"certify": 1, "flow-check": 1, "scan": 9, "gprime": 9, "shear-commute": 2,
           "unbounded-growth": 1}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("domain", [["polydisc", "--dim", "2"], ["euclidean", "--dim", "2"],
                                    ["spectral2"]], ids=lambda d: d[0])
@pytest.mark.parametrize("command", sorted(SWEEP_N))
def test_seed_sweep_passes(command, domain, seed, tmp_path):
    code, out = run_cli(tmp_path, "sweep", command, "--seed", str(seed),
                        "--n", str(SWEEP_N[command]), "--domain", *domain)
    report = json.loads(out.read_text())
    assert code == 0 and report["pass"] is True and report["instability"] is False


@pytest.mark.parametrize("field,value", [("eps", "1e-9"), ("tolerance", None), ("sign", True),
                                         ("coefficient_scale", [1.05])])
def test_config_file_numbers_of_the_wrong_type_are_usage_errors(field, value, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "certify", "seed": 7, "N": 20, field: value}))
    with pytest.raises(cli.UsageError, match=field):
        cli.config_from_args(cli._build_parser().parse_args(
            ["certify", "--config", str(cfg)])).validate()


def test_cli_rejects_an_unknown_config_key(tmp_path, capsys):
    # a mistyped key ("n" for "N") used to be ignored: the scan ran N = 100
    # and passed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "scan", "seed": 1, "n": 0, "pieces": 2}))
    code, out = run_cli(tmp_path, "typo", "scan", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: config: unknown key(s) 'n'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body", [b"{bad", b'{"seed": "\xff"}'], ids=["json", "utf8"])
def test_cli_malformed_config_file_is_a_usage_error(body, tmp_path, capsys):
    # a decoding error used to end the run with a traceback and exit 1,
    # which reads as a bound violation
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(body)
    code, out = run_cli(tmp_path, "report", "scan", "--config", str(cfg), "--seed", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config: ") and "Traceback" not in err
    assert not out.exists()


def test_cli_validates_a_config_once(tmp_path, monkeypatch):
    calls, real = [], cli.ExperimentConfig.validate

    def validate(self):
        calls.append(self.experiment)
        return real(self)

    monkeypatch.setattr(cli.ExperimentConfig, "validate", validate)
    code, _ = run_cli(tmp_path, "certify", "certify", "--seed", "1", "--n", "10")
    assert code == 0 and calls == ["certify"]


def test_cli_bad_number_in_a_fresh_process(tmp_path):
    # the process itself: exit code 2 and no traceback on stderr
    proc = subprocess.run([sys.executable, "-m", "loewner_lab", "certify", "--seed", "7",
                           "--n", "2000", "--coefficient-scale", "nan"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC), "LOEWNER_LAB_THREADS": "1"})
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "usage error: coefficient_scale:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "certify_report.json").exists()


def test_cli_unwritable_out_is_a_usage_error(tmp_path):
    # exit 1 reads as a failed certificate: a report that cannot be written
    # is a usage error, with no traceback
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "loewner_lab", "certify", "--seed", "1",
                           "--n", "10", "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC), "LOEWNER_LAB_THREADS": "1"})
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("usage error: ")
    assert "Traceback" not in proc.stderr
    assert not out.parent.exists()


def test_cli_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys):
    # the directory is checked first, so a large --n does not run in vain
    def no_run(config):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["certify", "--seed", "1", "--n", "10", "--out", str(out)]) == 2
    assert "usage error: out:" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,key", [
    ("scan", {"seed": 1, "N": "5"}, "N"),
    ("scan", {"seed": 1, "g": "moebius"}, "g_spec"),
    ("scan", {"seed": 1, "N": 0, "i": 1.0, "j": 2}, "i"),
    ("scan", {"seed": 1, "N": 0, "j": True}, "j"),
    ("scan", {"seed": "1", "N": 0}, "seed"),
    ("scan", {"seed": 1, "N": 0, "pieces": 2.5}, "pieces"),
    ("gprime", {"seed": 1, "N": 0, "domain": [1]}, "domain_spec"),
    ("gprime", {"seed": 1, "N": 0, "domain": {"kind": "polydisc", "n": [2]}}, "domain_spec"),
    # a float or bool n used to run on int(n): polydisc(2) with "n": 2.5 in
    # the report, and E1 for "n": true
    ("certify", {"seed": 1, "N": 10, "domain": {"kind": "polydisc", "n": 2.5}}, "domain_spec"),
    ("gprime", {"seed": 1, "N": 0, "domain": {"kind": "euclidean", "n": True}}, "domain_spec"),
    ("scan", {"seed": 1, "N": 0, "g": {"family": "starlike_order", "alpha": "x"}}, "g_spec"),
    ("scan", {"seed": 1, "N": 0, "g": {"family": "strongly_starlike", "alpha": True}},
     "g_spec"),
    ("certify", {"seed": 1, "N": 0, "out": 5}, "out"),
    ("d1-table", {"seed": 1, "alphas": "x"}, "alphas"),
    ("d1-table", {"seed": 1, "alphas": [0.2, "0.4"]}, "alphas"),
    ("a0-table", {"seed": 1, "alphas": [0.2, float("nan")]}, "alphas"),
    # an alpha outside the family's range is found before the run, not in it
    ("d1-table", {"seed": 1, "alphas": [1.5], "g": {"family": "starlike_order"}}, "g_spec"),
    ("a0-table", {"seed": 1, "alphas": [0.0], "g": {"family": "strongly_starlike"}}, "g_spec"),
    # a table would write its default grid, or moebius its one row, while
    # echoing an empty grid or an alpha it never used
    ("d1-table", {"seed": 1, "alphas": [], "g": {"family": "starlike_order"}}, "alphas"),
    ("a0-table", {"seed": 1, "alphas": [0.3], "g": {"family": "moebius"}}, "alphas"),
    ("d1-table", {"seed": 1, "g": {"family": "moebius", "alpha": 0.3}}, "g_spec"),
    # shear-commute judges max_residual < tolerance, and no looser than 1e-3
    ("shear-commute", {"seed": 1, "N": 1, "tolerance": 1e-2}, "tolerance"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_config_file_of_the_wrong_type_is_a_usage_error(command, config, key, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": command.replace("-", "_"), **config}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {key}: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("residual,passed", [(5e-5, True), (2e-4, False)])
def test_shear_commute_judges_at_the_given_tolerance(residual, passed, monkeypatch):
    monkeypatch.setattr(el, "verify_shear_commutes", lambda schedule, i, j: residual)
    config = cli.ExperimentConfig(experiment="shear_commute", seed=1, N=1, tolerance=1e-4)
    env = cli.run_experiment(config)
    assert env.passed is passed and env.payload["max_residual"] == residual


def test_zero_samples_allowed_where_fixed_maps_are_checked():
    for experiment in ("scan", "gprime", "certify"):
        cli.ExperimentConfig(experiment=experiment, seed=1, N=0).validate()


def test_cli_instability_exit_code(tmp_path, monkeypatch):
    def boom(config, g, dom, rng):
        raise NumericalInstabilityError("synthetic blowup")

    monkeypatch.setitem(cli._RUNNERS, "certify", boom)
    code, _ = run_cli(tmp_path, "unstable", "certify", "--seed", "1")
    assert code == 3


def test_cli_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "d1_table",
        "g": {"family": "almost_starlike"},
        "alphas": [0.2, 0.4],
        "seed": 9,
    }))
    code, out = run_cli(tmp_path, "tbl", "d1-table", "--config", str(cfg))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["g_spec"]["family"] == "almost_starlike"
    assert out.with_suffix(".csv").exists()
    header = out.with_suffix(".csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "alpha"
    # flag overrides beat the config file
    code, out2 = run_cli(tmp_path, "tbl2", "d1-table", "--config", str(cfg),
                         "--family", "starlike_order")
    assert json.loads(out2.read_text())["config"]["g_spec"]["family"] == "starlike_order"
    # mismatched subcommand is a usage error
    assert cli.main(["a0-table", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("config", sorted((SRC.parent / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_pass(config, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = json.loads(config.read_text())
    assert cli.main([spec["experiment"].replace("_", "-"), "--config", str(config)]) == 0
    assert json.loads((tmp_path / spec["out"]).read_text())["pass"] is True


def test_cli_runs_are_byte_identical(tmp_path):
    args = ["scan", "--seed", "42", "--n", "2", "--pieces", "2"]
    _, out = run_cli(tmp_path, "scan", *args)
    first = out.read_bytes()
    code, out = run_cli(tmp_path, "scan", *args)
    assert code == 0
    assert out.read_bytes() == first
