"""The state of the named panels, one JSON line per panel.

Run from the repository root:

    PYTHONPATH=src python tests/panel_state.py --panel box --panel grid
    PYTHONPATH=src python tests/panel_state.py --panel all

Chart panels (each chart built with ``build_chart(certify=True)`` and
written as ``wellpoles chart --svg`` writes it):

- ``atlas`` and ``deep``: the benchmark's panels, read from
  ``perfbench/workloads.py`` at its 15-second sizes (143 and 120 charts);
- ``box``, ``grid``, ``below``: ``panels.box()``,
  ``panels.collision_grid()`` and the deep panel below c = 1000;
- ``deep1000``: the deep panel at c = 1000 and 2121.3;
- ``deep5000``: the deep panel at c = 5000 and 1e4 (about 1 to 2.5 s a
  chart).

A chart panel's line holds the chart count, the number complete, the
number whose topology equals ``chart._closed_form_topology``, the count of
each warning code, the build seconds (``build_chart`` alone, serial) and
one SHA-256 over every chart's document and SVG bytes.

``depth`` runs 60 depth-study ops of ``perfbench/workloads.py`` and counts
the 79 collision pairs of ``PAIR_COLLISIONS``; ``sweeps`` runs the 40
certified sweeps of ``random_sweeps()`` and the c = 1e4 certified sweep
(``wellpoles sweep --m 0.5 --a 1 --channel plus --depths 1e8``). Their
digests cover every value the ops return (``workloads.depth_bytes``) and
every sweep document.

``verify`` runs the verify grid (the runs that exit 0, the exit codes, the
failures and the null ones among them), ``weak`` the four weak-well
commands (each one's exit code and error type) and ``scheck`` the mpmath
S check (per channel the samples compared, the worst relative error and
the number above 1e-12).

pytest does not collect this file; it is a script over the package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import panels  # noqa: E402
import workloads  # noqa: E402
import wellpoles as wp  # noqa: E402
from wellpoles import rootfinder  # noqa: E402
from wellpoles.chart import _closed_form_topology  # noqa: E402
from wellpoles.cli import main as main_cli  # noqa: E402
from wellpoles.document import depth_sweep_document  # noqa: E402

BENCH_SECONDS = 15.0
DEPTH_OPS = 60
# (channel, attractive, index) of every collision pair counted: the first 39
# attractive collisions of each channel and the even repulsive one
PAIR_COLLISIONS = tuple((ch, True, i) for ch in ("plus", "minus") for i in range(1, 40)) + (
    ("plus", False, 1),)
SWEEP_SEED = 11
SWEEP_COUNT = 40


def random_sweeps() -> list[tuple[float, float, str, tuple[float, ...]]]:
    """(m, a, channel, depths) of 40 sweeps from ``random.Random(11)``: per
    sweep m uniform in [0.5, 2], a uniform in [0.75, 3], the channel by
    ``rng.choice``, then four depths log-uniform in [0.05, 300], sorted."""
    rng = random.Random(SWEEP_SEED)
    sweeps = []
    for _ in range(SWEEP_COUNT):
        m, a = rng.uniform(0.5, 2.0), rng.uniform(0.75, 3.0)
        channel = rng.choice(["plus", "minus"])
        depths = sorted(math.exp(rng.uniform(math.log(0.05), math.log(300.0))) for _ in range(4))
        sweeps.append((m, a, channel, tuple(depths)))
    return sweeps


def _bench_panel(name: str) -> list[tuple]:
    wl = workloads.WORKLOADS[name]
    return wl.panel(workloads.panel_size(wl, BENCH_SECONDS))


CHART_PANELS = {
    "atlas": lambda: _bench_panel("atlas"),
    "deep": lambda: _bench_panel("deep"),
    "box": panels.box,
    "grid": panels.collision_grid,
    "below": lambda: panels.deep_panel(panels.BELOW_DEEP_STRENGTHS),
    "deep1000": lambda: panels.deep_panel((1000.0, 2121.3)),
    "deep5000": lambda: panels.deep_panel((5000.0, 1e4)),
}


def chart_state(name: str) -> dict:
    chunks, warnings = [], Counter()
    complete = closed_form = 0
    build_s = 0.0
    wells = CHART_PANELS[name]()
    for m, a, U, channel in wells:
        spec, ch = wp.PotentialSpec(m=m, a=a, U=U), wp.Channel.parse(channel)
        t0 = time.perf_counter()
        chart = wp.build_chart(spec, ch, certify=True)
        build_s += time.perf_counter() - t0
        cfg = wp.RunConfig(m=m, a=a, U=U, channel=channel, svg="chart.svg")
        chunks.append(wp.canonical_dumps(wp.chart_document(chart, cfg)).encode())
        chunks.append(wp.chart_svg(chart).encode())
        complete += bool(chart.completeness["complete"])
        closed_form += chart.topology == _closed_form_topology(spec, ch)
        warnings.update(w.code for w in chart.warnings)
    return {"panel": name, "charts": len(wells), "complete": complete,
            "closed_form_topology": closed_form, "warnings": dict(sorted(warnings.items())),
            "build_s": round(build_s, 3), "sha256": workloads.digest(chunks)}


def depth_state() -> dict:
    t0 = time.perf_counter()
    chunks = [workloads.depth_bytes(workloads.depth_op(wp, inp))
              for inp in workloads.depth_panel(DEPTH_OPS)]
    pairs = [rootfinder.collision_pair_count(wp.Channel.parse(ch), att, i)
             for ch, att, i in PAIR_COLLISIONS]
    chunks.append(repr(pairs).encode())
    return {"panel": "depth", "ops": DEPTH_OPS,
            "pair_counts": {repr(n): count for n, count in Counter(pairs).items()},
            "build_s": round(time.perf_counter() - t0, 3), "sha256": workloads.digest(chunks)}


def sweeps_state() -> dict:
    chunks, warnings = [], Counter()
    t0 = time.perf_counter()
    runs = random_sweeps() + [(0.5, 1.0, "plus", (1e8,))]
    for m, a, channel, depths in runs:
        result = wp.depth_sweep(wp.Channel.parse(channel), list(depths), m=m, a=a, certify=True)
        cfg = wp.RunConfig(m=m, a=a, channel=channel, depths=depths)
        chunks.append(wp.canonical_dumps(depth_sweep_document(result, cfg)).encode())
        warnings.update(w.code for e in result.entries for w in e.warnings)
    return {"panel": "sweeps", "sweeps": len(runs), "warnings": dict(sorted(warnings.items())),
            "build_s": round(time.perf_counter() - t0, 3), "sha256": workloads.digest(chunks)}


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main_cli(argv)
    return code, out.getvalue(), err.getvalue()


def verify_state() -> dict:
    codes, failures = Counter(), []
    t0 = time.perf_counter()
    for a, U in panels.verify_grid():
        code, out, _ = _cli(panels.verify_argv(a, U))
        codes[code] += 1
        if out:
            failures += json.loads(out)["failures"]
    return {"panel": "verify", "runs": sum(codes.values()), "passed": codes[0],
            "exit_codes": {str(c): n for c, n in sorted(codes.items())},
            "failures": len(failures), "null": sum(f["residual"] is None for f in failures),
            "build_s": round(time.perf_counter() - t0, 3)}


def weak_state() -> dict:
    commands = []
    for argv in panels.WEAK_WELL_COMMANDS:
        code, _, err = _cli(argv)
        commands.append({"argv": " ".join(argv), "exit": code,
                         "error": json.loads(err)["error"]["type"] if err else None})
    return {"panel": "weak", "commands": commands}


def scheck_state() -> dict:
    t0 = time.perf_counter()
    channels = {}
    for channel in ("plus", "minus"):
        errors = panels.s_check_errors(channel)
        channels[channel] = {"samples": len(errors), "worst": max(errors),
                             "above_1e-12": sum(e >= 1e-12 for e in errors)}
    return {"panel": "scheck", **channels, "build_s": round(time.perf_counter() - t0, 3)}


STATES = {**{name: (lambda name=name: chart_state(name)) for name in CHART_PANELS},
          "depth": depth_state, "sweeps": sweeps_state, "verify": verify_state,
          "weak": weak_state, "scheck": scheck_state}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panel", action="append", required=True,
                    choices=sorted(STATES) + ["all"], help="a panel name, or all; repeatable")
    names = ap.parse_args(argv).panel
    for name in (list(STATES) if "all" in names else names):
        print(json.dumps(STATES[name]()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
