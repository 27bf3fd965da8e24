"""The traced benchmark still runs the certify path end to end.

``bench/test_bench_smoke.py`` traces only ``scan_mix``; this runs the smoke
plan of ``certify_sweep`` under the tracer, whose wrappers replace the
certification layers by module attribute, and checks its verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_certify_sweep_smoke_runs_and_is_correct():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--workload", "certify_sweep", "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    # the support and membership layers saw every certified point
    assert metrics["ball_geometry.support_values.points"]["value"] > 0
    assert (metrics["disc_functions.classify.points"]["value"]
            == metrics["ball_geometry.support_values.points"]["value"])
