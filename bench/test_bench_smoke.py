"""Smoke test of the benchmark: tiny experiment sizes, every metric printed,
reports byte-identical to the CLI's, and a gate that catches a wrong verdict."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_smoke_prints_every_metric_and_matches_the_cli():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--workload", "scan_mix", "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        for metric in DECLARED[kind]:
            assert f"\n{metric['name']} = " in proc.stdout, metric["name"]
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert "\nfailed_frac = 0.0 " in proc.stdout
        assert "machine {" in proc.stdout

    # the same config file through the command line writes the same bytes
    config_path = sorted((ROOT / workloads.OUT_DIR).glob("*.config.json"))[0]
    spec = json.loads(config_path.read_text())
    report = ROOT / spec["out"]
    emitted = report.read_bytes()
    cmd = [sys.executable, "-m", "loewner_lab", spec["experiment"], "--config", str(config_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(ROOT / "src"), "LOEWNER_LAB_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == emitted


def test_gate_catches_inflated_field_expected_to_pass(tmp_path):
    from loewner_lab import cli_reports as cli
    from loewner_lab import extremal_lab as el

    spec = next(s for s in workloads.build("certify_sweep", 5, smoke=True)
                if s.get("coefficient_scale", 1.0) != 1.0)
    config = cli.ExperimentConfig(spec["experiment"], g_spec=spec["g"],
                                  domain_spec=spec["domain"], N=spec["N"], seed=spec["seed"],
                                  coefficient_scale=spec["coefficient_scale"])
    cli.emit_report(cli.run_experiment(config), tmp_path / "certify.json")
    report = json.loads((tmp_path / "certify.json").read_text())
    assert workloads.check(spec, report, el._ATTAIN_TOL) == []
    expected_pass = dict(spec, coefficient_scale=1.0)
    assert workloads.check(expected_pass, report, el._ATTAIN_TOL) == [
        "canonical field failed certification"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out"))
    proc = run_bench("--workload", "certify_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
