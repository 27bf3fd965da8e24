"""Set-up step of the benchmark: import loewner_lab single-threaded and warm
it up with tiny experiments on every geometry.

Run as a script (``python3 bench/warmup.py``) it sets up a fresh
interpreter, then prints the set-up seconds and the calibration kernel's
seconds measured right after; the benchmark does this several times per run
and reports the median normalized set-up time.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cap_threads() -> None:
    """Cap the numeric backend at one thread; effective only before the
    process first imports numpy."""
    os.environ["LOEWNER_LAB_THREADS"] = "1"


def set_up():
    """Import the package and run the warm-up; returns (package, seconds)."""
    start = time.perf_counter()
    cap_threads()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loewner_lab
    from loewner_lab import cli_reports as cli

    for domain, g in workloads.GEOMETRIES.values():
        cli.run_experiment(cli.ExperimentConfig("certify", g_spec=g, domain_spec=domain,
                                                N=64, seed=1))
    cli.run_experiment(cli.ExperimentConfig("flow_check", N=2, seed=1))
    return loewner_lab, time.perf_counter() - start


if __name__ == "__main__":
    seconds = set_up()[1]
    import calibrate

    print(repr(seconds), repr(calibrate.kernel_seconds()))
