"""Workload configs of the benchmark and the correctness gate on their reports.

A workload is a list of experiment configs in the CLI config-file format
(the JSON that ``loewner-lab <cmd> --config`` reads), generated from the
workload seed alone.  The gate checks each emitted report against closed
forms that do not come from the code under test.
"""

from __future__ import annotations

import math
import random

#: (domain, g) pair of each geometry; every workload runs all three, so the
#: per-geometry wall times exist on every workload
GEOMETRIES = {
    "polydisc": ({"kind": "polydisc", "n": 2}, {"family": "moebius"}),
    "euclidean": ({"kind": "euclidean", "n": 2}, {"family": "starlike_order", "alpha": 0.3}),
    "spectral2": ({"kind": "spectral2", "n": 4}, {"family": "strongly_starlike", "alpha": 0.5}),
}
#: certify_sweep certifies on the tri-disc, where the field has more frame tori
CERTIFY_POLYDISC = {"kind": "polydisc", "n": 3}

#: one small scan closes the workloads that do not sample maps, so that every
#: traced layer reports a measured time on every workload; it is about 5% of
#: their pass
_PROBE_SCAN = ("scan", "euclidean", 1, {"pieces": 3})
#: workload -> list of (experiment, geometry, N, extra fields); the first
#: entry is the one re-run for the byte-identity check, so it is a small one
PLANS = {
    "scan_mix": [("scan", geo, 5, {"pieces": 3})
                 for geo in ("polydisc", "euclidean", "spectral2") for _ in range(4)],
    # only the sharp maps (N = 0): the cost of one sampled map varies up to
    # 3x with its random generator mix, and the few samples a run can afford
    # swung the pass time by 0.2-0.5 of its median from seed to seed
    "gprime_bundle": [("gprime", geo, 0, {"pieces": 2})
                      for _ in range(3) for geo in ("polydisc", "euclidean", "spectral2")]
    + [_PROBE_SCAN],
    "certify_sweep": [
        ("certify", geo, 40_000, extra)
        for geo in ("euclidean", "polydisc", "spectral2")
        for extra in ({"sign": 1}, {"sign": -1}, {"sign": 1, "coefficient_scale": 1.05}) * 2
    ] + [_PROBE_SCAN],
}
#: the same plans at the smallest sizes that still touch every layer
SMOKE_PLANS = {
    "scan_mix": [("scan", geo, 1, {"pieces": 2})
                 for geo in ("polydisc", "euclidean", "spectral2")],
    "gprime_bundle": [("gprime", geo, 0, {"pieces": 2})
                      for geo in ("euclidean", "polydisc", "spectral2")]
    + [("scan", "euclidean", 1, {"pieces": 2})],
    "certify_sweep": [
        ("certify", geo, 500, extra)
        for geo in ("euclidean", "polydisc", "spectral2")
        for extra in ({"sign": 1}, {"sign": 1, "coefficient_scale": 1.05})
    ] + [("scan", "euclidean", 1, {"pieces": 2})],
}
#: the experiment whose work items a workload counts
ITEM_EXPERIMENT = {"scan_mix": "scan", "gprime_bundle": "gprime", "certify_sweep": "certify"}
WORKLOADS = tuple(PLANS)
#: where reports go, relative to the checkout root (the CLI's --out value)
OUT_DIR = "bench/_out"


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """Configs of one workload; each experiment gets its own seed drawn from
    the workload seed, so equal seeds give equal configs."""
    rng = random.Random(seed)
    configs = []
    for k, (experiment, geo, n, extra) in enumerate((SMOKE_PLANS if smoke else PLANS)[workload]):
        domain, g = GEOMETRIES[geo]
        if experiment == "certify" and geo == "polydisc":
            domain = CERTIFY_POLYDISC
        config = {"experiment": experiment, "g": dict(g), "domain": dict(domain),
                  "i": 1, "j": 2, "N": n, "seed": rng.randrange(2**63),
                  "out": f"{OUT_DIR}/{k:02d}_{experiment}_{geo}.json"}
        config.update(extra)
        configs.append(config)
    return configs


def geometry(config: dict) -> str:
    return config["domain"]["kind"]


def items(workload: str, config: dict, report: dict) -> int:
    """Work items of one experiment: sampled parametric maps in scan_mix,
    bound reports (the sharp maps of one geometry) in gprime_bundle,
    evaluated certification points in certify_sweep."""
    experiment = config["experiment"]
    if experiment != ITEM_EXPERIMENT[workload]:
        return 0
    if experiment == "certify":
        return int(report["payload"]["certificate"]["samples_used"])
    if experiment == "gprime":
        return 1
    return int(report["payload"]["n_samples"])


# ---------------------------------------------------------------------------
# closed forms for the gate (independent of the code under test)


def closed_d1(g: dict) -> float:
    family, alpha = g["family"], g.get("alpha")
    if family == "moebius":
        return 1.0
    if family == "starlike_order":
        return 1.0 if alpha <= 0.5 else (1.0 - alpha) / alpha
    if family == "strongly_starlike":
        return math.sin(alpha * math.pi / 2.0)
    raise ValueError(f"no closed form for {family}")


def closed_gprime0(g: dict) -> float:
    family, alpha = g["family"], g.get("alpha")
    if family == "moebius":
        return 2.0
    if family == "starlike_order":
        return 2.0 * (1.0 - alpha)
    if family == "strongly_starlike":
        return 2.0 * alpha
    raise ValueError(f"no closed form for {family}")


def shear_factor(domain: dict) -> float:
    return 3.0 * math.sqrt(3.0) / 2.0 if domain["kind"] == "euclidean" else 1.0


def check(config: dict, report: dict, attain_tol: float) -> list:
    """Problems with one report; an empty list means the report is correct.

    ``attain_tol`` is the code's own attainment tolerance for the sharp
    scan bound; the scan and gprime reports carry their own ``tolerance``.
    """
    problems = []
    if report.get("instability"):
        problems.append("numerical instability")
    payload = report.get("payload", {})
    experiment = config["experiment"]
    if experiment in ("scan", "gprime"):
        if experiment == "scan":
            bound = shear_factor(config["domain"]) * closed_d1(config["g"])
            low = bound - attain_tol
        else:
            bound = closed_gprime0(config["g"])
            low = bound - payload["tolerance"]
        if not report["pass"]:
            problems.append("report failed")
        if abs(payload["theoretical_bound"] - bound) > 1e-12 * bound:
            problems.append(f"bound {payload['theoretical_bound']!r} != closed form {bound!r}")
        if payload["empirical_max"] > bound + payload["tolerance"]:
            problems.append(f"empirical max {payload['empirical_max']!r} above the bound")
        if payload["empirical_max"] < low:
            problems.append(f"bound not attained: max {payload['empirical_max']!r} < {low!r}")
        if payload["n_samples"] != config["N"]:
            problems.append("sample count differs from the config")
    elif experiment == "certify":
        cert = payload["certificate"]
        if config.get("coefficient_scale", 1.0) == 1.0:
            if not (report["pass"] and cert["pass"]):
                problems.append("canonical field failed certification")
        else:
            witness = cert.get("witness")
            if report["pass"] or cert["pass"]:
                problems.append("inflated field passed certification")
            elif witness is None or not witness["margin"] < 0.0:
                problems.append("inflated field failed without a witness")
    else:
        problems.append(f"no gate for experiment {experiment!r}")
    return problems
