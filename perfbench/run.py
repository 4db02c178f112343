"""Layered benchmark of wellpoles: one closed-loop client, probe-scaled timings.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. One
client runs the workload's ops one after another in this process. A frozen
speed probe runs between ops and every time is scaled by it (see
probe.py), so `_s` metrics are seconds at a reference machine speed. Each
op's output is checked after the op, outside the timed interval.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 the panel runs once untraced and once with spans around every
layer, and the last line holds the per-layer metrics. The line before it
holds context that is not a metric: the failure breakdown, a SHA-256
digest of every document the run emitted, and machine facts. Reports and
spans are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_CHILDREN = 5
IMPORTTIME_CHILDREN = 3


def thread_count() -> int:
    """Threads of this process, native ones included where the OS shows them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Client:
    """Runs a panel of ops in order, one probe between each two ops."""

    def __init__(self, wp, workload: workloads.Workload, threads_after_setup: int):
        self.wp = wp
        self.workload = workload
        self.threads = threads_after_setup

    def _probe(self) -> tuple[float, bool]:
        return probe.probe(), thread_count() > self.threads

    def run(self, panel: list, order: list[int], tracer: tracing.Tracer | None = None) -> dict:
        """Times every op; returns per-op records in run order."""
        wl = self.workload
        records = []
        before, leak_before = self._probe()
        for i in order:
            inp = panel[i]
            gc.collect()
            first_span = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, error = wl.op(self.wp, inp), None
            except Exception as exc:  # an op that raises is a counted failure
                out, error = None, type(exc).__name__
            raw = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            after, leak_after = self._probe()
            causes = [] if error is None else [f"exception:{error}"]
            if leak_before or leak_after:
                causes.append("thread_leak")
            if out is not None:
                try:
                    causes += wl.check(self.wp, inp, out)
                except Exception as exc:  # a check that cannot run is a mismatch
                    causes.append(f"check:{type(exc).__name__}")
            scaled = probe.scale(raw, before, after)
            if scaled > wl.limit_s:
                causes.append("over_limit")
            records.append({
                "index": i, "raw_s": raw, "scaled_s": scaled, "probe_s": (before, after),
                "causes": causes,
                "sha256": hashlib.sha256(wl.to_bytes(out) if out is not None else b"").digest(),
                "spans": (first_span, len(tracer.spans)) if tracer else None,
            })
            before, leak_before = after, leak_after
        return records


def summarize(records: list[dict], limit_s: float) -> dict:
    failed = [bool(r["causes"]) for r in records]
    scaled = [r["scaled_s"] for r in records]
    raw = [r["raw_s"] for r in records]
    charged = probe.charged(scaled, failed, limit_s)
    tail_s, tail_pct = probe.tail(charged)
    ok = failed.count(False)
    return {
        "attempted": len(records),
        "failed": failed.count(True),
        "ok": ok,
        "op_s_p50": statistics.median(charged),
        "op_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "ok_per_s": ok / sum(scaled),
        # uncharged medians: the raw one audits the scaling, the scaled one
        # gives the tracing overhead even where most ops fail
        "raw_op_s_p50": statistics.median(raw),
        "uncharged_op_s_p50": statistics.median(scaled),
        "probe_raw_s": statistics.median(p for r in records for p in r["probe_s"]),
        # the first cause is the one an op is counted under
        "breakdown": dict(Counter(r["causes"][0] for r in records if r["causes"])),
        "mismatched": sum(any(c.startswith("check:") for c in r["causes"]) for r in records),
        "digest": workloads.digest([r["sha256"] for r in sorted(records, key=lambda r: r["index"])]),
    }


def child_seconds(args: list[str]) -> tuple[float, float, str]:
    """(scaled, raw) wall seconds of one child interpreter, and its stderr."""
    before = probe.probe()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    raw = time.perf_counter() - t0
    after = probe.probe()
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()[-500:]}")
    return probe.scale(raw, before, after), raw, proc.stderr


def setup_seconds(workload: workloads.Workload, first_input: tuple) -> float:
    """Median scaled time of fresh interpreters importing wellpoles and
    making the workload's first call."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import wellpoles as wp; "
            + workload.first_call.format(*first_input))
    return statistics.median(child_seconds(["-c", code])[0] for _ in range(SETUP_CHILDREN))


def import_seconds() -> tuple[float, float]:
    """(wellpoles, scipy) import seconds from `python -X importtime`, scaled."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import wellpoles"
    total, scipy = [], []
    for _ in range(IMPORTTIME_CHILDREN):
        scaled, raw, err = child_seconds(["-X", "importtime", "-c", code])
        factor = scaled / raw
        cumulative_us = {}
        scipy_us = 0
        # a module is printed after its imports, so reversed lines list each
        # importer before what it imported; the indent gives the depth
        importers: list[str] = []
        for line in reversed(err.splitlines()):
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
            name = fields[2].strip()
            del importers[depth:]
            cumulative_us[name] = int(fields[1])
            if name.split(".")[0] == "scipy" and not (
                    importers and importers[-1].split(".")[0] == "scipy"):
                scipy_us += int(fields[1])
            importers.append(name)
        total.append(cumulative_us.get("wellpoles", 0) * 1e-6 * factor)
        scipy.append(scipy_us * 1e-6 * factor)
    return statistics.median(total), statistics.median(scipy)


def machine_facts() -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def traced_metrics(records: list[dict], tracer: tracing.Tracer, spans_file: Path) -> dict:
    cols = tracer.spans.columns()
    op_of_span = np.zeros(len(cols["name"]), dtype=np.int64)
    factor = np.empty(len(records))
    for j, r in enumerate(records):
        lo, hi = r["spans"]
        op_of_span[lo:hi] = j
        factor[j] = probe.scale(1.0, *r["probe_s"])
    np.savez_compressed(spans_file, names=np.array(tracing.NAMES), **cols)
    return tracing.layer_metrics(cols, op_of_span, factor, len(records))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wellpoles" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'wellpoles'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wellpoles as wp

    wl = workloads.WORKLOADS[args.workload]
    panel = wl.panel(workloads.panel_size(wl, args.seconds))
    order = workloads.order(len(panel), args.seed)

    wl.op(wp, panel[0])  # warm-up: lazy set-up is measured by setup_s instead
    # objects alive now are never garbage; freezing them keeps the collection
    # before each op short
    gc.collect()
    gc.freeze()
    client = Client(wp, wl, thread_count())
    untraced = summarize(client.run(panel, order), wl.limit_s)

    OUT_DIR.mkdir(exist_ok=True)
    mismatched = untraced["mismatched"]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_records = client.run(panel, order, tracer)
        finally:
            tracer.uninstall()
        traced = summarize(traced_records, wl.limit_s)
        # the wrappers must not change what the package returns
        mismatched += traced["mismatched"] + (traced["digest"] != untraced["digest"])
        import_s, scipy_s = import_seconds()
        metrics = {
            "setup.import_s": metric(import_s, "s"),
            "setup.scipy_import_s": metric(scipy_s, "s"),
        }
        for name, (value, unit) in traced_metrics(
                traced_records, tracer, OUT_DIR / f"{wl.name}-seed{args.seed}-spans.npz").items():
            metrics[name] = metric(value, unit)
        metrics["ops.fail_frac"] = metric(untraced["failed"] / untraced["attempted"], "ratio")
        metrics["probe.raw_s"] = metric(untraced["probe_raw_s"], "s")
        metrics["raw.op_s_p50"] = metric(untraced["raw_op_s_p50"], "s")
        metrics["trace.overhead_frac"] = metric(
            traced["uncharged_op_s_p50"] / untraced["uncharged_op_s_p50"] - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": metric(setup_seconds(wl, panel[0]), "s"),
            "op_s_p50": metric(untraced["op_s_p50"], "s"),
            "op_s_tail": metric(untraced["op_s_tail"], "s"),
            "ok_per_s": metric(untraced["ok_per_s"], "1/s"),
            "ok_frac": metric(untraced["ok"] / untraced["attempted"], "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "ops": untraced["attempted"], "ok": untraced["ok"],
        "failure_breakdown": untraced["breakdown"],
        "check_mismatches": mismatched,
        "tail_percentile": untraced["tail_percentile"],
        "raw_op_s_p50": untraced["raw_op_s_p50"],
        "probe_raw_s": untraced["probe_raw_s"],
        "time_limit_s": wl.limit_s,
        "nominal_probe_s": probe.NOMINAL_PROBE_S,
        "documents_sha256": untraced["digest"],
        "machine": machine_facts(),
    }
    result = {
        "correct": mismatched == 0,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": metrics,
    }
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
