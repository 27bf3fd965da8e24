import json
import math
from pathlib import Path

import pytest

from loewner_lab import cli_reports as cli
from loewner_lab.errors import NumericalInstabilityError


def run_cli(tmp_path, name, *args):
    out = tmp_path / f"{name}.json"
    code = cli.main([*args, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# canonical serialization


def test_float_serialization_round_trips():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0, -1.5e17]
    blob = cli.dumps_canonical({"values": values})
    back = json.loads(blob)
    assert back["values"] == values


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
    parsed = cli.parse_report(out)
    assert parsed["pass"] is True
    assert parsed["config"]["seed"] == 7
    assert parsed["payload"] == json.loads(cli.dumps_canonical(env.payload))
    assert "wall_time" not in json.dumps(parsed)


# ---------------------------------------------------------------------------
# golden reports

#: configs and the reports the package wrote for them before generators were
#: lowered to arrays (scan) and before sphere sampling was batched (certify,
#: flow-check); the gprime reports were written once mixed coefficients came
#: from two circles instead of a 2-torus, and the shear-commute and
#: unbounded-growth reports before composite generators stopped being node
#: trees (they pin the sheared random members and the radial map).  A change
#: that alters these bytes must say so in CHANGES.md.  A file is named
#: <subcommand>_<label>.
GOLDEN = Path(__file__).parent / "data" / "golden"


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
            assert written.read_bytes() == golden.read_bytes()


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
    assert cli.parse_report(out)["pass"] is True
    code, out = run_cli(tmp_path, "bad", "certify", "--seed", "11", "--n", "200",
                        "--coefficient-scale", "1.05")
    assert code == 1
    assert cli.parse_report(out)["pass"] is False


def test_cli_usage_error_exit_code(tmp_path):
    code = cli.main(["certify"])  # no seed anywhere
    assert code == 2


@pytest.mark.parametrize("command", ["flow-check", "shear-commute"])
def test_cli_zero_samples_is_usage_error(command, tmp_path, capsys):
    code, out = run_cli(tmp_path, "empty", command, "--seed", "1", "--n", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert "usage error: N:" in err and "Traceback" not in err
    assert not out.exists()


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
    report = cli.parse_report(out)
    assert report["config"]["g_spec"]["family"] == "almost_starlike"
    assert out.with_suffix(".csv").exists()
    header = out.with_suffix(".csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "alpha"
    # flag overrides beat the config file
    code, out2 = run_cli(tmp_path, "tbl2", "d1-table", "--config", str(cfg),
                         "--family", "moebius")
    assert cli.parse_report(out2)["config"]["g_spec"]["family"] == "moebius"
    # mismatched subcommand is a usage error
    assert cli.main(["a0-table", "--config", str(cfg)]) == 2


def test_cli_runs_are_byte_identical(tmp_path):
    args = ["scan", "--seed", "42", "--n", "2", "--pieces", "2"]
    _, out = run_cli(tmp_path, "scan", *args)
    first = out.read_bytes()
    code, out = run_cli(tmp_path, "scan", *args)
    assert code == 0
    assert out.read_bytes() == first
