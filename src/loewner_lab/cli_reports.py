"""Batch experiment front end: JSON configs in, canonical JSON/CSV reports out.

Every run is driven by an explicit 64-bit seed and the emitted report is
byte-reproducible: ``json`` and ``csv`` write each float as its shortest
round-trip ``repr``, keys are sorted, and volatile data (wall time) goes to
the console only.

Exit codes: 0 pass, 1 bound violation / certificate failure, 2 usage error,
3 numerical instability.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import ball_geometry as bg
from . import carath
from . import disc_functions as df
from . import extremal_lab as el
from . import loewner_flow as lf
from .errors import LoewnerLabError, NumericalInstabilityError

EXPERIMENTS = (
    "d1_table", "a0_table", "certify", "flow_check", "scan", "gprime",
    "unbounded_growth", "shear_commute",
)

_DEFAULT_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    g_spec: dict = field(default_factory=lambda: {"family": "moebius"})
    domain_spec: dict = field(default_factory=lambda: {"kind": "polydisc", "n": 2})
    i: int = 1
    j: int = 2
    N: int = 100
    pieces: int = 3
    seed: Optional[int] = None
    eps: float = 1e-9
    tolerance: float = 1e-6
    alphas: Optional[list] = None
    sign: int = 1
    coefficient_scale: float = 1.0
    out: Optional[str] = None

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"experiment: unknown value {self.experiment!r}")
        if self.seed is None:
            raise UsageError("seed: required for reproducibility")
        for name in ("seed", "i", "j", "N", "pieces"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool)):
                raise UsageError(f"{name}: must be an integer, not {value!r}")
        for name in ("g_spec", "domain_spec"):
            if not isinstance(getattr(self, name), dict):
                raise UsageError(f"{name}: must be a JSON object")
        if self.alphas is not None and not (
                isinstance(self.alphas, list) and self.alphas
                and all(_is_real(a) and math.isfinite(a) for a in self.alphas)):
            raise UsageError("alphas: must be a nonempty list of finite reals")
        if self.out is not None and not isinstance(self.out, str):
            raise UsageError("out: must be a path")
        if not 0 <= self.seed < 2**64:
            raise UsageError("seed: must fit in 64 bits")
        try:
            if self.experiment in ("d1_table", "a0_table"):
                # a table sweeps an alpha grid: its g is the (alpha, g) list
                g = _family_grid(self)
            else:
                g = df.from_json(self.g_spec)
            if self.experiment == "unbounded_growth":
                lf.radial_beta(g)  # a g the radial map does not admit is a usage error
        except (KeyError, LoewnerLabError) as exc:
            raise UsageError(f"g_spec: {exc}") from exc
        try:
            dom = bg.from_json(self.domain_spec)
        except (KeyError, LoewnerLabError) as exc:
            raise UsageError(f"domain_spec: {exc}") from exc
        if self.experiment in ("certify", "scan", "shear_commute", "flow_check"):
            try:
                carath._check_pair(dom, self.i, self.j)
            except LoewnerLabError as exc:
                raise UsageError(f"indices: {exc}") from exc
        if self.N < 0:
            raise UsageError("N: must be nonnegative")
        # residuals over no points are no evidence (scan, gprime and certify
        # still check their fixed maps or tori at N = 0, and so does the chain
        # check of unbounded_growth, but E^1 has no torus)
        if self.N < 1 and (self.experiment in ("flow_check", "shear_commute")
                           or (self.experiment == "unbounded_growth" and dom.n == 1)):
            raise UsageError(f"N: {self.experiment} needs at least one sample")
        if self.pieces < 1:
            raise UsageError("pieces: must be positive")
        for name in ("eps", "tolerance"):
            if not (_is_real(getattr(self, name)) and 0 < getattr(self, name) < math.inf):
                raise UsageError(f"{name}: must be finite and positive")
        if self.experiment == "shear_commute" and self.tolerance >= 1e-3:
            raise UsageError("tolerance: shear_commute takes a tolerance below 1e-3")
        if not (_is_real(self.sign) and self.sign in (1, -1)):
            raise UsageError("sign: must be +1 or -1")
        if not (_is_real(self.coefficient_scale) and math.isfinite(self.coefficient_scale)):
            raise UsageError("coefficient_scale: must be finite")
        return g, dom


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ReportEnvelope:
    config: dict
    version: str
    payload: dict
    passed: bool
    summary: str
    instability: bool = False
    wall_time_s: float = 0.0  # console only; excluded from the report file


# ---------------------------------------------------------------------------
# canonical JSON


def _canonical(obj):
    """A report value in JSON types: numpy scalars and arrays become Python
    numbers and lists, and a complex number becomes {"re": .., "im": ..}."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def dumps_canonical(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# experiment dispatch


def _family_grid(config: ExperimentConfig):
    """(alpha, g) for each alpha of the table's grid, which comes from
    ``alphas`` alone; moebius has no alpha, and an alpha or alpha grid given
    to it is a usage error, as is an alpha in ``g_spec`` of any family."""
    family = config.g_spec.get("family", "moebius")
    if family == df.MOEBIUS:
        if config.alphas is not None:
            raise UsageError("alphas: moebius takes no alpha")
        return [(None, df.DiscFunction(family, config.g_spec.get("alpha")))]
    if config.g_spec.get("alpha") is not None:
        raise UsageError("g_spec: a table takes no alpha; give its grid as alphas")
    return [(a, df.DiscFunction(family, a)) for a in config.alphas or _DEFAULT_ALPHAS]


def _run_d1_table(config, grid, dom, rng):
    rows = []
    worst = 0.0
    for alpha, gf in grid:
        closed = df.d1(gf)
        numeric = df.d1_grid(gf)
        gap = abs(closed - numeric)
        worst = max(worst, gap)
        rows.append({"alpha": alpha, "closed_form": closed, "numeric": numeric, "gap": gap})
    passed = worst <= 1e-9
    return {"rows": rows, "max_gap": worst}, passed, f"max |closed - numeric| = {worst:.3e}"


def _run_a0_table(config, grid, dom, rng):
    rows = []
    worst = -np.inf
    for alpha, gf in grid:
        a0v = df.a0(gf)
        d1v = df.d1(gf)
        rows.append({"alpha": alpha, "a0": a0v, "d1": d1v, "slack": a0v - d1v})
        worst = max(worst, d1v - a0v)
    passed = worst <= 1e-9
    return {"rows": rows, "max_deficit": worst}, passed, f"max d1 - a0 = {worst:.3e}"


def _run_certify(config, g, dom, rng):
    h = carath.canonical_field(g, dom, config.i, config.j, config.sign)
    if config.coefficient_scale != 1.0:
        exps = tuple(2 if k == config.j - 1 else 0 for k in range(dom.n))
        h = carath.scale_term(h, config.i, exps, config.coefficient_scale)
        h.label += f"*scale{config.coefficient_scale:g}"
    cert = carath.certify_Mg(h, g, dom, config.N, eps=config.eps, rng=rng)
    return ({"map": h.describe(), "certificate": cert.to_json()}, cert.passed,
            f"{h.describe()}: worst margin {cert.worst_margin:.3e}")


def _run_flow_check(config, g, dom, rng):
    c = df.d1(g) * dom.shear_factor
    h = carath.canonical_field(g, dom, config.i, config.j, +1)
    schedule = lf.autonomous_field(h, dom)
    Z = bg.sample_sphere(dom, rng, config.N)
    Z *= rng.uniform(0.1, 0.9, config.N)[:, None]
    ii, jj = config.i - 1, config.j - 1
    worst_flow = 0.0
    for t in (0.5, 2.0, 10.0):
        got = lf.flow(schedule, Z, 0.0, t).endpoint
        expect = np.exp(-t) * Z.copy()
        expect[:, ii] += c * Z[:, jj] ** 2 * (np.exp(-2 * t) - np.exp(-t))
        worst_flow = max(worst_flow, float(np.max(np.abs(got - expect))))
    mid = lf.flow(schedule, Z, 0.0, 1.0).endpoint
    semigroup = float(np.max(np.abs(
        lf.flow(schedule, mid, 1.0, 3.0).endpoint - lf.flow(schedule, Z, 0.0, 3.0).endpoint)))
    Zs = Z * (0.7 / np.maximum(np.asarray(bg.norm(dom, Z)), 1e-12))[:, None] * 0.999
    limit = lf.parametric_map(schedule, Zs).endpoint
    expect = Zs.copy()
    expect[:, ii] -= c * Zs[:, jj] ** 2
    worst_param = float(np.max(np.abs(limit - expect)))
    payload = {"flow_residual": worst_flow, "semigroup_residual": semigroup,
               "parametric_residual": worst_param}
    passed = worst_flow < 1e-8 and semigroup < 1e-8 and worst_param < 1e-6
    return payload, passed, (f"flow {worst_flow:.2e}, semigroup {semigroup:.2e}, "
                             f"parametric {worst_param:.2e}")


def _run_scan(config, g, dom, rng):
    report = el.scan_support(g, dom, config.i, config.j, config.N, rng,
                             tolerance=config.tolerance, pieces=config.pieces)
    payload = report.to_json()
    payload["rows"] = [{
        "alpha": config.g_spec.get("alpha"),
        "bound": report.theoretical_bound,
        "empirical_max": report.empirical_max,
        "attained_by": report.attaining_map_id,
    }]
    return payload, report.passed, (
        f"bound {report.theoretical_bound:.9g}, empirical max {report.empirical_max:.9g}")


def _run_gprime(config, g, dom, rng):
    report = el.verify_gprime_bounds(g, dom, config.N, rng, tolerance=config.tolerance,
                                     pieces=config.pieces)
    return report.to_json(), report.passed, (
        f"bound {report.theoretical_bound:.9g}, empirical max {report.empirical_max:.9g}")


def _run_unbounded_growth(config, g, dom, rng):
    zeta = rng.uniform(0.05, 0.95, 64) * np.exp(2j * np.pi * rng.random(64))
    ode_residual = lf.koebe_ode_residual(g, zeta)
    fmap = lf.unbounded_support_map(g, dom)
    C = lf.growth_constant(g)
    rows, growth_ok = [], True
    b_half = lf.koebe_transform(g, 0.5).real
    for rho in (0.9, 0.99, 0.999):
        z = np.zeros((1, dom.n), dtype=complex)
        z[0, 0] = rho
        grown = float(np.asarray(bg.norm(dom, fmap.values(z)))[0])
        floor = b_half * (2.0 * (1.0 - rho)) ** (-C)
        rows.append({"rho": rho, "norm": grown, "floor": floor})
        growth_ok = growth_ok and grown >= floor * (1.0 - 1e-9)
    diag = carath.second_coeff(fmap, 1, 1, carath.PURE)
    diag_gap = abs(diag - (-df.g_prime0(g)))
    # the report claims a support point of S_g^0: check that the map is in it
    chain = lf.check_starlike_chain(fmap, g, dom, config.N, rng, config.eps)
    payload = {"ode_residual": ode_residual, "growth_constant": C, "rows": rows,
               "diagonal_coefficient": diag, "diagonal_gap": diag_gap,
               "starlike_chain": chain.to_json()}
    passed = ode_residual < 1e-6 and growth_ok and diag_gap < 1e-6 and chain.passed
    return payload, passed, (f"ode residual {ode_residual:.2e}, "
                             f"diag gap {diag_gap:.2e}, C = {C:.6g}, "
                             f"chain margin {chain.worst_margin:.2e}")


def _run_shear_commute(config, g, dom, rng):
    worst = 0.0
    rows = []
    for k, schedule in enumerate(el.sample_Sg0(g, dom, rng, config.pieces, config.N)):
        residual = el.verify_shear_commutes(schedule, i=config.i, j=config.j)
        rows.append({"field": k, "residual": residual})
        worst = max(worst, residual)
    passed = worst < config.tolerance
    return ({"rows": rows, "max_residual": worst}, passed,
            f"max commutation residual {worst:.3e}")


_RUNNERS = {
    "d1_table": _run_d1_table,
    "a0_table": _run_a0_table,
    "certify": _run_certify,
    "flow_check": _run_flow_check,
    "scan": _run_scan,
    "gprime": _run_gprime,
    "unbounded_growth": _run_unbounded_growth,
    "shear_commute": _run_shear_commute,
}


def run_experiment(config: ExperimentConfig, checked=None) -> ReportEnvelope:
    """Dispatch one experiment; numerical-instability errors become a failed
    envelope instead of an exception.  ``checked`` is the (g, dom) that
    ``config.validate()`` returned, if the caller has validated already."""
    g, dom = checked or config.validate()
    rng = np.random.default_rng(int(config.seed))
    start = time.perf_counter()
    try:
        payload, passed, summary = _RUNNERS[config.experiment](config, g, dom, rng)
        instability = False
    except NumericalInstabilityError as exc:
        payload, passed, summary = {"error": str(exc)}, False, f"numerical instability: {exc}"
        instability = True
    wall = time.perf_counter() - start
    return ReportEnvelope(
        config=_canonical(asdict(config)),
        version=__version__,
        payload=_canonical(payload),
        passed=bool(passed),
        summary=("PASS: " if passed else "FAIL: ") + summary,
        instability=instability,
        wall_time_s=wall,
    )


def emit_report(env: ReportEnvelope, path) -> None:
    """Write the canonical JSON report (and a CSV companion for tabular
    payloads).  Wall time stays off the file so reruns are byte-identical."""
    path = Path(path)
    body = {
        "config": env.config,
        "version": env.version,
        "payload": env.payload,
        "pass": env.passed,
        "summary": env.summary,
        "instability": env.instability,
    }
    path.write_text(dumps_canonical(body))
    rows = env.payload.get("rows") if isinstance(env.payload, dict) else None
    if rows:
        csv_path = path.with_suffix(".csv")
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            keys = list(rows[0])
            writer.writerow(keys)
            for row in rows:
                writer.writerow([row.get(k) for k in keys])


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner-lab",
        description="bound-verification and support-point experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name.replace("_", "-"))
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--family", type=str, default=None)
        cmd.add_argument("--alpha", type=float, default=None)
        cmd.add_argument("--domain", type=str, default=None)
        cmd.add_argument("--dim", type=int, default=None)
        cmd.add_argument("--i", type=int, default=None)
        cmd.add_argument("--j", type=int, default=None)
        cmd.add_argument("--n", dest="N", type=int, default=None)
        cmd.add_argument("--pieces", type=int, default=None)
        cmd.add_argument("--sign", type=int, default=None)
        cmd.add_argument("--coefficient-scale", type=float, default=None)
        cmd.add_argument("--eps", type=float, default=None)
        cmd.add_argument("--tolerance", type=float, default=None)
    return parser


#: config-file keys that differ from the ``ExperimentConfig`` field they set
_FILE_KEYS = {"g": "g_spec", "domain": "domain_spec"}


def config_from_args(args) -> ExperimentConfig:
    """The config file's keys, then the command-line flags; the defaults are
    ``ExperimentConfig``'s, and an unknown file key is a usage error."""
    base = {}
    if args.config:
        with open(args.config) as handle:
            try:
                base = json.load(handle)
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise UsageError(f"config: not a JSON file: {exc}") from exc
    if not isinstance(base, dict):
        raise UsageError("config: must be a JSON object")
    experiment = args.command.replace("-", "_")
    if base.get("experiment", experiment) != experiment:
        raise UsageError("experiment: config file disagrees with the subcommand")
    known = {f.name for f in fields(ExperimentConfig)} - set(_FILE_KEYS.values())
    unknown = sorted(set(base) - known - set(_FILE_KEYS))
    if unknown:
        raise UsageError(f"config: unknown key(s) {', '.join(map(repr, unknown))}")
    config = ExperimentConfig(**{_FILE_KEYS.get(k, k): v for k, v in base.items()
                                 if k != "experiment"}, experiment=experiment)
    if args.family is not None:
        config.g_spec = {"family": args.family}
    if args.alpha is not None:
        config.g_spec = dict(config.g_spec, alpha=args.alpha)
    if args.domain is not None:
        config.domain_spec = dict(config.domain_spec, kind=args.domain)
        if args.domain == bg.SPECTRAL2:
            config.domain_spec["n"] = 4
    if args.dim is not None:
        config.domain_spec = dict(config.domain_spec, n=args.dim)
    for name in ("seed", "out", "i", "j", "N", "pieces", "sign", "eps", "tolerance",
                 "coefficient_scale"):
        val = getattr(args, name)
        if val is not None:
            setattr(config, name, val)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        out = config.out or f"{config.experiment}_report.json"
        # an unwritable --out is a usage error, not a failed bound; a missing
        # directory is found before the run, other write failures after it
        checked = config.validate()
        parent = Path(out).parent
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise UsageError(f"out: cannot write into {str(parent)!r}")
        env = run_experiment(config, checked)
        emit_report(env, out)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"{env.summary}  [{env.wall_time_s:.2f}s] -> {out}")
    if env.instability:
        return 3
    return 0 if env.passed else 1


if __name__ == "__main__":
    sys.exit(main())
