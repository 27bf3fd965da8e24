"""Per-layer tracing of loewner_lab from outside the package.

``Tracer.install`` replaces public functions of the six modules (and the
``values`` methods of the map classes) with wrappers that record one span
per call: name, start, end, parent span and run id, plus one size
attribute (rows, points, bytes or horizon; 0 where none applies).  Spans
live in flat arrays until the run ends; ``uninstall`` puts the original
attributes back.  Self time is derived afterwards from the child spans.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

#: (module, function, size of the call) for each traced module function
_FUNCTIONS = (
    ("disc_functions", "classify", lambda a, k, out: len(out)),
    ("disc_functions", "boundary_margin", None),
    ("ball_geometry", "norm", None),
    ("ball_geometry", "support_values", lambda a, k, out: len(out[0])),
    ("ball_geometry", "sample_sphere", None),
    ("carath", "second_coeff_bundle", None),
    ("carath", "certification_points", lambda a, k, out: len(out)),
    ("carath", "certify_values", lambda a, k, out: out.samples_used),
    ("carath", "random_Mg_member", None),
    ("loewner_flow", "flow", None),
    ("loewner_flow", "parametric_map", lambda a, k, out: out.horizon_used),
    ("loewner_flow", "make_field", None),
    ("extremal_lab", "sample_Sg0", None),
    ("cli_reports", "run_experiment", None),
    ("cli_reports", "emit_report", lambda a, k, out: _report_bytes(a[1])),
)
#: map classes whose ``values`` is the generator RHS inside ``flow`` and the
#: evaluation batch inside ``second_coeff_bundle``
_MAP_CLASSES = ("PolynomialMap", "BlackBoxMap", "CompositeMap")
RHS = "carath.rhs"


def _report_bytes(path) -> int:
    path = os.fspath(path)
    csv_path = os.path.splitext(path)[0] + ".csv"
    return os.path.getsize(path) + (os.path.getsize(csv_path) if os.path.exists(csv_path) else 0)


class Tracer:
    """Span recorder; one instance per benchmark run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.run = 0
        self._stack = [-1]
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, parent: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.run_id.append(self.run)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.size.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap_function(self, name: str, fn, size):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id, self._stack[-1])
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if size is not None:
                self.size[sid] = size(args, kwargs, out)
            return out

        return traced

    def _wrap_values(self, fn):
        """Span for a generator RHS call made directly by ``flow``; rows of a
        call made directly by ``second_coeff_bundle`` add to that span's size.
        Nested calls (composite nodes) pass straight through."""
        rhs_id, flow_id = self._id(RHS), self._id("loewner_flow.flow")
        bundle_id = self._id("carath.second_coeff_bundle")

        @functools.wraps(fn)
        def traced(obj, Z):
            parent = self._stack[-1]
            owner = self.name_id[parent] if parent >= 0 else -1
            if owner == bundle_id:
                self.size[parent] += len(Z)
            if owner != flow_id:
                return fn(obj, Z)
            sid = self._open(rhs_id, parent)
            try:
                return fn(obj, Z)
            finally:
                self._close(sid)
                self.size[sid] = len(Z)

        return traced

    def install(self, package) -> None:
        """Replace the traced attributes of ``package``'s modules."""
        for module_name, fn_name, size in _FUNCTIONS:
            module = getattr(package, module_name)
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name,
                    self._wrap_function(f"{module_name}.{fn_name}", original, size))
        for cls_name in _MAP_CLASSES:
            cls = getattr(package.carath, cls_name)
            original = cls.__dict__["values"]
            self._saved.append((cls, "values", original))
            cls.values = self._wrap_values(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self) -> dict:
        """Spans as numpy arrays, with per-span duration and self time."""
        spans = {key: np.array(getattr(self, key)) for key in
                 ("name_id", "parent", "run_id", "start", "end", "size")}
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        spans["dur"] = dur
        spans["self"] = dur - child
        return spans

    def write(self, path) -> None:
        """Write every span (names, start, end, parent, run id, size)."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names),
                 **{k: spans[k] for k in ("name_id", "parent", "run_id", "start", "end", "size")})

    def layer_metrics(self, run: int) -> dict:
        """Per-layer counts and times of one traced run, by metric name."""
        spans = self.arrays()
        in_run = spans["run_id"] == run
        parent_name = np.where(spans["parent"] >= 0,
                               spans["name_id"][np.maximum(spans["parent"], 0)], -1)

        def select(name, under=None):
            if name not in self._ids:
                return np.zeros(len(in_run), dtype=bool)
            mask = in_run & (spans["name_id"] == self._ids[name])
            if under is not None:
                mask &= parent_name == self._ids.get(under, -2)
            return mask

        def total(key, mask):
            return float(spans[key][mask].sum())

        def sizes(mask):
            return float(spans["size"][mask].sum())

        out = {}
        flow = select("loewner_flow.flow")
        rhs = select(RHS)
        rhs_calls = int(rhs.sum())
        out["loewner_flow.flow.calls"] = int(flow.sum())
        out["loewner_flow.flow.s"] = total("dur", flow)
        out["loewner_flow.flow.self_s"] = total("self", flow)
        out["carath.rhs.calls"] = rhs_calls
        out["carath.rhs.rows"] = int(sizes(rhs))
        out["carath.rhs.self_s"] = total("self", rhs)
        # one step attempt is a full RK4 step plus two half steps: 12 RHS calls
        out["loewner_flow.step_attempts"] = rhs_calls // 12
        out["loewner_flow.rows_per_rhs"] = sizes(rhs) / rhs_calls if rhs_calls else 0.0
        bundle = select("carath.second_coeff_bundle")
        out["carath.second_coeff_bundle.calls"] = int(bundle.sum())
        out["carath.second_coeff_bundle.points"] = int(sizes(bundle))
        out["carath.second_coeff_bundle.s"] = total("dur", bundle)
        out["carath.second_coeff_bundle.self_s"] = total("self", bundle)
        pmap = select("loewner_flow.parametric_map")
        out["loewner_flow.parametric_map.calls"] = int(pmap.sum())
        out["loewner_flow.parametric_map.s"] = total("dur", pmap)
        out["loewner_flow.parametric_map.horizon_mean"] = (
            sizes(pmap) / int(pmap.sum()) if pmap.any() else 0.0)
        sample = select("extremal_lab.sample_Sg0")
        sample_ms = 1e3 * spans["dur"][sample]
        draws = int(select("loewner_flow.make_field", under="extremal_lab.sample_Sg0").sum())
        out["extremal_lab.sample_Sg0.calls"] = int(sample.sum())
        out["extremal_lab.sample_Sg0.s"] = total("dur", sample)
        out["extremal_lab.sample_Sg0.ms.p50"] = (
            float(np.percentile(sample_ms, 50)) if sample_ms.size else 0.0)
        out["extremal_lab.sample_Sg0.ms.p90"] = (
            float(np.percentile(sample_ms, 90)) if sample_ms.size else 0.0)
        out["extremal_lab.sample_Sg0.probe_s"] = total(
            "dur", select("loewner_flow.parametric_map", under="extremal_lab.sample_Sg0"))
        out["extremal_lab.sample_Sg0.accept_ratio"] = int(sample.sum()) / draws if draws else 0.0
        for name in ("loewner_flow.make_field", "carath.random_Mg_member",
                     "ball_geometry.sample_sphere", "ball_geometry.norm"):
            mask = select(name)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.s"] = total("dur", mask)
        out["carath.certification_points.s"] = total("dur", select("carath.certification_points"))
        for name in ("carath.certify_values", "ball_geometry.support_values",
                     "disc_functions.classify"):
            mask = select(name)
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.points"] = int(sizes(mask))
            out[f"{name}.s"] = total("dur", mask)
        out["disc_functions.boundary_margin.s"] = total(
            "dur", select("disc_functions.boundary_margin"))
        out["cli_reports.run_experiment.s"] = total("dur", select("cli_reports.run_experiment"))
        emit = select("cli_reports.emit_report")
        out["cli_reports.emit_report.s"] = total("dur", emit)
        out["cli_reports.report_bytes"] = int(sizes(emit))
        return out

