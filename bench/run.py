#!/usr/bin/env python3
"""Benchmark of the loewner-lab experiment front end.

    python3 bench/run.py --workload scan_mix --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's experiments one after another
through ``cli_reports.run_experiment`` + ``cli_reports.emit_report`` (the
path of ``loewner-lab <cmd> --config file``), single-threaded, and checks
every report with the gate in ``workloads.py``.

``--trace 0`` times untraced passes over the workload for ``--seconds``
and prints the end-to-end metrics.  Times are normalized to a reference
machine speed with the calibration kernel in ``calibrate.py``; the raw
times are printed too and kept in ``bench/_out/result.json``.
``--trace 1`` runs one untraced pass and two traced passes, checks that the
two traced passes give identical counts and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every report passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import warmup

warmup.cap_threads()
import calibrate  # noqa: E402  (imports numpy, so after the thread cap)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = warmup.ROOT
BENCH = Path(__file__).resolve().parent
OUT = ROOT / workloads.OUT_DIR
#: set-up runs in fresh interpreters per benchmark run
SETUP_PROBES = 3
TIME_UNITS = ("s", "ms")


@dataclass
class Outcome:
    """One experiment of one pass: raw wall time (run + emit), report bytes,
    work items and gate problems."""

    spec: dict
    wall: float
    data: bytes = b""
    items: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    """Experiments of one pass and the calibration kernel times taken
    before the first and after each of them."""

    outcomes: list
    kernels: list

    def normalized(self) -> list:
        """Each experiment's raw time at the reference speed, judged by the
        mean of the kernel readings just before and after it."""
        return [o.wall * 2.0 * calibrate.REFERENCE_S / (before + after)
                for o, before, after in zip(self.outcomes, self.kernels, self.kernels[1:])]

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def norm(self) -> float:
        return sum(self.normalized())

    def geometry_norm(self, kind: str) -> float:
        return sum(t for o, t in zip(self.outcomes, self.normalized())
                   if workloads.geometry(o.spec) == kind)

    @property
    def items(self) -> int:
        return sum(o.items for o in self.outcomes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny experiment sizes, one set-up probe")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """HEAD commit read from the checkout's own .git, or 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "LOEWNER_LAB_THREADS": os.environ.get("LOEWNER_LAB_THREADS"),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def setup_probe() -> tuple:
    """Raw and normalized set-up seconds of a fresh interpreter, as measured
    inside it."""
    proc = subprocess.run([sys.executable, str(BENCH / "warmup.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    seconds, kernel = map(float, proc.stdout.split())
    return seconds, seconds * calibrate.REFERENCE_S / kernel


def load_config(cli, path: Path):
    """The CLI's own config-file reading, without argparse."""
    flags = dict.fromkeys(("seed", "out", "family", "alpha", "domain", "dim", "i", "j", "N",
                           "pieces", "sign", "coefficient_scale", "eps", "tolerance"))
    spec = json.loads(path.read_text())
    args = argparse.Namespace(command=spec["experiment"].replace("_", "-"),
                              config=str(path), **flags)
    return cli.config_from_args(args)


@dataclass
class Runner:
    """The loaded program and one workload's jobs: (config spec, parsed
    ExperimentConfig) pairs."""

    package: object
    workload: str
    jobs: list

    def run_one(self, spec: dict, config) -> Outcome:
        cli = self.package.cli_reports
        path = ROOT / spec["out"]
        start = time.perf_counter()
        try:
            env = cli.run_experiment(config)
            cli.emit_report(env, path)
        except Exception as exc:  # the loop must go on; the experiment counts as failed
            traceback.print_exc()
            return Outcome(spec, time.perf_counter() - start,
                           problems=[f"raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        data = path.read_bytes()
        csv_path = path.with_suffix(".csv")
        if csv_path.exists():
            data += csv_path.read_bytes()
        report = json.loads(path.read_text())
        return Outcome(spec, wall, data, workloads.items(self.workload, spec, report),
                       workloads.check(spec, report, self.package.extremal_lab._ATTAIN_TOL))

    def run_pass(self, reference=None, first_only=False) -> Pass:
        """One pass over the workload (or its first experiment); with a
        reference pass, every report must repeat it byte for byte."""
        done = Pass([], [calibrate.kernel_seconds()])
        for k, (spec, config) in enumerate(self.jobs[:1] if first_only else self.jobs):
            outcome = self.run_one(spec, config)
            done.kernels.append(calibrate.kernel_seconds())
            if reference is not None and outcome.data != reference.outcomes[k].data:
                outcome.problems.append(f"report {spec['out']} differs from the first pass")
            print(f"  {spec['experiment']} {workloads.geometry(spec)} N={spec['N']}: "
                  f"{'ok' if not outcome.problems else '; '.join(outcome.problems)} "
                  f"[{outcome.wall:.3f} s raw]", flush=True)
            done.outcomes.append(outcome)
        print(f"  pass: {done.wall:.3f} s raw, {done.norm:.3f} s normalized")
        return done


def end_to_end(runner: Runner, args):
    setups = [setup_probe() for _ in range(1 if args.smoke else SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(passes[0] if passes else None))
        if time.perf_counter() - start + passes[-1].wall > args.seconds:
            break
    # byte-identity check of the first experiment when only one pass fitted
    rerun = [] if len(passes) > 1 else [runner.run_pass(passes[0], first_only=True)]
    wall = statistics.median(p.norm for p in passes)
    metrics = {
        "setup_s": statistics.median(norm for raw, norm in setups),
        "wall_s": wall,
        "items_per_s": passes[0].items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"setup_s": statistics.median(raw for raw, norm in setups),
           "wall_s": statistics.median(p.wall for p in passes)}
    print(f"passes {len(passes)}, set-up runs {len(setups)}, raw " + json.dumps(raw))
    return metrics, passes + rerun, []


def per_layer(runner: Runner, units: dict):
    untraced = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install(runner.package)
    traced = []
    try:
        for run in (1, 2):
            tracer.run = run
            traced.append(runner.run_pass(untraced))
    finally:
        tracer.uninstall()
    tracer.write(OUT / "spans.npz")
    runs = [tracer.layer_metrics(run) for run in (1, 2)]
    metrics, errors = {}, []
    for name, value in runs[0].items():
        if units[name] in TIME_UNITS:
            # normalized like the pass walls, then averaged over the two runs
            value = statistics.mean(m[name] * p.norm / p.wall for m, p in zip(runs, traced))
        elif value != runs[1][name]:
            errors.append(f"count {name} differs between traced runs: {value!r} != "
                          f"{runs[1][name]!r}")
        metrics[name] = value
    traced_norm = statistics.median(p.norm for p in traced)
    metrics["trace_overhead_frac"] = (traced_norm - untraced.norm) / untraced.norm
    for kind in workloads.GEOMETRIES:
        metrics[f"wall_s.{kind}"] = untraced.geometry_norm(kind)
    return metrics, [untraced] + traced, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    declared_path = ROOT / "BENCHMARK.json"
    if not (warmup.SRC / "loewner_lab" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"no loewner_lab sources under {warmup.SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    package = warmup.set_up()[0]

    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.iterdir():
        old.unlink()
    specs = workloads.build(args.workload, args.seed, smoke=args.smoke)
    jobs = []
    for spec in specs:
        config_path = (ROOT / spec["out"]).with_suffix(".config.json")
        config_path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        jobs.append((spec, load_config(package.cli_reports, config_path)))
    runner = Runner(package, args.workload, jobs)
    facts = machine_facts(args)
    print("machine " + json.dumps(facts, sort_keys=True), flush=True)

    if args.trace:
        metrics, passes, errors = per_layer(runner, units)
    else:
        metrics, passes, errors = end_to_end(runner, args)
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    for message in errors:
        print("error: " + message)
    for name in units:
        print(f"{name} = {metrics.get(name)!r} {units[name]}")
    print(f"failed_frac = {failed / len(outcomes)!r} ({failed}/{len(outcomes)} experiments)")
    correct = failed == 0 and not errors
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, machine=facts,
                  passes=[{"raw_s": p.wall, "normalized_s": p.norm, "kernel_s": p.kernels,
                           "experiments": [{"out": o.spec["out"], "raw_s": o.wall,
                                            "items": o.items, "problems": o.problems}
                                           for o in p.outcomes]} for p in passes])
    (OUT / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
