"""Spans around the package's layers, recorded from outside the package.

Tracer.install() replaces each traced public function with a wrapper in
every ``wellpoles.*`` module that refers to it, so calls made inside the
package through ``from .x import f`` or ``_k.f`` are caught too. Spans
(name, start, end, parent) are kept in flat arrays in memory, with one
integer and one flag taken from each call's arguments or return value, and
are written out when the run ends.

layer_metrics() turns the spans of a traced pass into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (layer, module, function) for every traced function; the span name is
# "<layer>.<function>"
TRACED = [
    ("kernel", "wellpoles._kernels", "denom_scaled"),
    ("kernel", "wellpoles._kernels", "denom_plain"),
    ("kernel", "wellpoles._kernels", "newton_pole"),
    ("kernel", "wellpoles._kernels", "axis_phi"),
    ("kernel", "wellpoles._kernels", "grid_denom_dk"),
    ("rootfinder", "wellpoles.rootfinder", "scan_axis"),
    ("rootfinder", "wellpoles.rootfinder", "newton_refine"),
    ("rootfinder", "wellpoles.rootfinder", "count_zeros"),
    ("rootfinder", "wellpoles.rootfinder", "count_zeros_padded"),
    ("rootfinder", "wellpoles.rootfinder", "multiplicity_at"),
    ("trajectory", "wellpoles.trajectory", "trace"),
    ("trajectory", "wellpoles.trajectory", "trace_branch"),
    ("trajectory", "wellpoles.trajectory", "branch_at_double_zero"),
    ("chart", "wellpoles.chart", "build_chart"),
    ("chart", "wellpoles.chart", "critical_depth"),
    ("chart", "wellpoles.chart", "bound_count"),
    ("chart", "wellpoles.chart", "threshold_flip"),
    ("chart", "wellpoles.chart", "depth_sweep"),
    ("document", "wellpoles.document", "chart_document"),
    ("document", "wellpoles.document", "canonical_dumps"),
    ("svgplot", "wellpoles.svgplot", "chart_svg"),
]
NAMES = [f"{layer}.{fn}" for layer, _, fn in TRACED]
_ID = {name: i for i, name in enumerate(NAMES)}


def _payload(name: str, args: tuple, result) -> tuple[int, int]:
    """(n, flag) recorded with a span, from the call's arguments or result."""
    if name == "kernel.newton_pole":
        return int(result[1]), int(bool(result[2]))
    if name in ("kernel.axis_phi", "kernel.grid_denom_dk"):
        return len(args[0]), 0
    if name == "trajectory.trace":
        return len(result.alphas), int(args[1] > 0)
    if name == "trajectory.trace_branch":
        return len(result.alphas), 0
    if name == "chart.build_chart":
        cert = result.completeness
        return len(result.trajectories), 2 if cert is None else int(bool(cert["complete"]))
    if name == "document.canonical_dumps":
        return len(result.encode()), 0
    return 0, 0


class Spans:
    """Flat span columns; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.flag = array("b")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "n": np.frombuffer(self.n, dtype=np.int64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
        }


class Tracer:
    """Installs span-recording wrappers; records only while active."""

    def __init__(self):
        self.spans = Spans()
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        nid = _ID[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(spans.stack[-1] if spans.stack else -1)
            spans.n.append(0)
            spans.flag.append(0)
            spans.stack.append(idx)
            spans.start.append(clock())
            spans.end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                spans.stack.pop()
            spans.n[idx], spans.flag[idx] = _payload(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "wellpoles" or key.startswith("wellpoles."))]
        for (_, modname, fn_name), name in zip(TRACED, NAMES):
            original = getattr(sys.modules[modname], fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval. Spans come from one
    thread, so siblings never overlap.
    """
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    covered_len = np.clip(
        np.minimum(end[child], end[p]) - np.maximum(start[child], start[p]), 0.0, None
    )
    covered = np.bincount(p, weights=covered_len, minlength=len(dur))
    return dur - covered


def layer_metrics(cols: dict[str, np.ndarray], op_of_span: np.ndarray,
                  op_factor: np.ndarray, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass over n_ops ops.

    op_of_span gives each span's op index and op_factor each op's probe
    scale factor, so that every time is in reference seconds.
    """
    name, parent, n, flag = cols["name"], cols["parent"], cols["n"], cols["flag"]
    factor = op_factor[op_of_span]
    dur = (cols["end"] - cols["start"]) * factor
    own = self_times(cols) * factor
    is_ = {nm: name == i for nm, i in _ID.items()}
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def under(child: str, *parents: str) -> np.ndarray:
        return is_[child] & np.isin(parent_name, [_ID[p] for p in parents])

    def count(nm: str) -> int:
        return int(is_[nm].sum())

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    kernel = np.zeros(len(name), dtype=bool)
    for nm in NAMES:
        if nm.startswith("kernel."):
            kernel |= is_[nm]
    traces = is_["trajectory.trace"] | is_["trajectory.trace_branch"]
    documents = is_["document.chart_document"] | is_["document.canonical_dumps"]

    newton = is_["kernel.newton_pole"]
    grids = is_["kernel.axis_phi"] | is_["kernel.grid_denom_dk"]
    zero_points = n[under("kernel.grid_denom_dk", "rootfinder.count_zeros")].sum()
    correctors = under("kernel.newton_pole", "trajectory.trace", "trajectory.trace_branch").sum()
    mid_splits = under("trajectory.branch_at_double_zero",
                       "trajectory.trace", "trajectory.trace_branch").sum()
    accepted = max(int(np.clip(n[traces] - 1, 0, None).sum()) - int(mid_splits), 0)
    traced_curves = (under("trajectory.trace", "chart.build_chart") & (flag == 1)).sum() \
        + under("trajectory.trace_branch", "chart.build_chart").sum()
    charts = is_["chart.build_chart"]

    per_op = 1.0 / n_ops
    return {
        "kernel.denom_scaled.calls_per_op": (count("kernel.denom_scaled") * per_op, "count"),
        "kernel.denom_scaled.us_per_call": (
            1e6 * ratio(dur[is_["kernel.denom_scaled"]].sum(), count("kernel.denom_scaled")), "us"),
        "kernel.newton_pole.calls_per_op": (count("kernel.newton_pole") * per_op, "count"),
        "kernel.newton_pole.iters_per_call": (ratio(n[newton].sum(), newton.sum()), "count"),
        "kernel.newton_pole.converged_frac": (ratio(flag[newton].sum(), newton.sum()), "ratio"),
        "kernel.self_s_per_op": (own[kernel].sum() * per_op, "s"),
        "kernel.grid_points_per_op": (n[grids].sum() * per_op, "count"),
        "rootfinder.scan_axis.calls_per_op": (count("rootfinder.scan_axis") * per_op, "count"),
        "rootfinder.scan_axis.self_s_per_op": (own[is_["rootfinder.scan_axis"]].sum() * per_op, "s"),
        "rootfinder.count_zeros.calls_per_op": (count("rootfinder.count_zeros") * per_op, "count"),
        "rootfinder.count_zeros.s_per_op": (dur[is_["rootfinder.count_zeros"]].sum() * per_op, "s"),
        "rootfinder.count_zeros.points_per_call": (
            ratio(zero_points, count("rootfinder.count_zeros")), "count"),
        "rootfinder.multiplicity_at.calls_per_op": (
            count("rootfinder.multiplicity_at") * per_op, "count"),
        "trajectory.trace.calls_per_op": (traces.sum() * per_op, "count"),
        "trajectory.trace.self_s_per_op": (own[traces].sum() * per_op, "s"),
        "trajectory.trace.s_per_op": (dur[traces].sum() * per_op, "s"),
        "trajectory.samples_per_op": (n[traces].sum() * per_op, "count"),
        "trajectory.accept_frac": (ratio(accepted, correctors), "ratio"),
        "trajectory.branch_splits_per_op": (
            count("trajectory.branch_at_double_zero") * per_op, "count"),
        "chart.build_chart.self_s_per_op": (own[charts].sum() * per_op, "s"),
        "chart.dedup_keep_frac": (ratio(n[charts].sum(), traced_curves), "ratio"),
        "chart.critical_depth.s_per_op": (dur[is_["chart.critical_depth"]].sum() * per_op, "s"),
        "chart.threshold_flip.s_per_op": (dur[is_["chart.threshold_flip"]].sum() * per_op, "s"),
        "chart.depth_sweep.self_s_per_op": (own[is_["chart.depth_sweep"]].sum() * per_op, "s"),
        "chart.incomplete_per_op": ((charts & (flag == 0)).sum() * per_op, "count"),
        "document.s_per_op": (dur[documents].sum() * per_op, "s"),
        "document.bytes_per_op": (n[is_["document.canonical_dumps"]].sum() * per_op, "bytes"),
        "svgplot.s_per_op": (dur[is_["svgplot.chart_svg"]].sum() * per_op, "s"),
    }
