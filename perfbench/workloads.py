"""The benchmark's workloads: fixed input panels, the op each runs, and checks.

Each workload draws a fixed panel of inputs once, from its own panel seed,
so that the share of failing ops is a property of the code and not of the
draw. The run seed fixes the order in which the panel's ops run. The
package receives only the generated inputs.

An op's checks run after it, outside the timed interval. A check returns
the causes of failure it finds; "check:" causes mean the program presented
an output as valid and it was wrong, the others are failures the program
reports itself (an exception, an uncertified chart, a topology change it
could not attribute).
"""

from __future__ import annotations

import hashlib
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import oracle

RESIDUAL_TOL = 1e-8
CRITICAL_REL_TOL = 1e-8
FLIP_TOL = 1e-4
# a requested depth this close to a collision takes the sweep's nudge path
NUDGE_DELTA = 9e-8


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _moderate(rng: random.Random) -> tuple[float, float, float]:
    return rng.uniform(0.5, 2.0), rng.uniform(0.75, 3.0), _log_uniform(rng, 0.05, 20.0)


def atlas_panel(n: int) -> list[tuple]:
    """Moderate wells in both channels: (m, a, U, channel)."""
    rng = random.Random(101)
    return [(*_moderate(rng), ("plus", "minus")[i % 2]) for i in range(n)]


# the ROADMAP's known-incomplete charts, verbatim
DEEP_FIXED = [(1.0, 1.5, 50.0, "plus"), (1.0, 1.5, 200.0, "plus"), (1.0, 5.0, 30.0, "plus")]


def deep_panel(n: int) -> list[tuple]:
    """Deep, wide and heavy wells in turn, after the ROADMAP cases."""
    rng = random.Random(202)
    panel = list(DEEP_FIXED[:n])
    while len(panel) < n:
        kind = len(panel) % 3
        channel = ("plus", "minus")[(len(panel) // 3) % 2]
        if kind == 0:
            m, a, U = rng.uniform(0.5, 2.0), rng.uniform(0.75, 2.0), rng.uniform(50.0, 300.0)
        elif kind == 1:
            m, a, U = rng.uniform(0.5, 2.0), rng.uniform(4.0, 6.0), rng.uniform(5.0, 30.0)
        else:
            m, a, U = rng.uniform(4.0, 10.0), rng.uniform(0.75, 3.0), _log_uniform(rng, 0.05, 20.0)
        panel.append((m, a, U, channel))
    return panel


def depth_panel(n: int) -> list[tuple]:
    """(m, a, sweep channel, three sweep depths) per well.

    The depths straddle the channel's first attractive collision; the
    middle one lies within NUDGE_DELTA of it.
    """
    rng = random.Random(303)
    panel = []
    for i in range(n):
        m, a = rng.uniform(0.5, 2.0), rng.uniform(0.75, 3.0)
        channel = ("plus", "minus")[i % 2]
        frac, delta = rng.uniform(0.1, 0.3), rng.uniform(-NUDGE_DELTA, NUDGE_DELTA)
        u1 = oracle.critical_depth(channel, True, 1, m, a)
        panel.append((m, a, channel, (u1 * (1.0 - frac), u1 + delta, u1 * (1.0 + frac))))
    return panel


def order(n: int, seed: int) -> list[int]:
    """The run seed's order of the panel's ops."""
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    return idx


# -- ops ---------------------------------------------------------------------


def chart_op(wp, inp):
    """One chart as `wellpoles chart --svg` makes it."""
    m, a, U, channel = inp
    cfg = wp.RunConfig(m=m, a=a, U=U, channel=channel, svg="chart.svg")
    chart = wp.build_chart(wp.PotentialSpec(m=m, a=a, U=U), wp.Channel(channel), certify=True)
    text = wp.canonical_dumps(wp.chart_document(chart, cfg))
    svg = wp.chart_svg(chart)
    return chart, text, svg


CRITICALS = [("plus", True, 1), ("plus", True, 2), ("minus", True, 1), ("minus", True, 2),
             ("plus", False, 1)]
THRESHOLDS = [("plus", 1), ("plus", 2), ("minus", 1), ("minus", 2)]


def depth_op(wp, inp):
    """Critical depths, checked thresholds and one sweep for one well."""
    m, a, sweep_channel, depths = inp
    crits = [wp.critical_depth(wp.Channel(ch), attractive=att, m=m, a=a, index=i)
             for ch, att, i in CRITICALS]
    flips = []
    for ch, n in THRESHOLDS:
        u_n = wp.bound_threshold(wp.Channel(ch), n, m=m, a=a)
        span = max(0.2 * u_n, 0.05)
        flips.append((u_n, wp.threshold_flip(wp.Channel(ch), max(u_n - span, 1e-9), u_n + span,
                                             m=m, a=a, tol=1e-6)))
    sweep = wp.depth_sweep(wp.Channel(sweep_channel), list(depths), m=m, a=a)
    return crits, flips, sweep


# -- checks ------------------------------------------------------------------


def check_chart(wp, inp, out) -> list[str]:
    m, a, U, channel = inp
    chart, text, svg = out
    causes = []
    if not chart.completeness["complete"]:
        causes.append("uncertified")
    if any(oracle.pole_residual(k, channel, m, a, U) >= RESIDUAL_TOL
           for k in chart.completeness["inventory"]):
        causes.append("check:residual")
    try:
        if wp.canonical_dumps(wp.parse_chart_document(text)) != text:
            causes.append("check:roundtrip")
    except wp.DocumentError:
        causes.append("check:roundtrip")
    try:
        ET.fromstring(svg)
    except ET.ParseError:
        causes.append("check:svg")
    return causes


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def check_depth(wp, inp, out) -> list[str]:
    m, a, sweep_channel, depths = inp
    crits, flips, sweep = out
    causes = []
    for (ch, att, i), cd in zip(CRITICALS, crits):
        if cd.pair_count != 2 or _rel(cd.U, oracle.critical_depth(ch, att, i, m, a)) > CRITICAL_REL_TOL:
            causes.append("check:critical")
    for (ch, n), (u_n, flip) in zip(THRESHOLDS, flips):
        ref = oracle.bound_threshold(ch, n, m, a)
        if _rel(u_n, ref) > 1e-12 or abs(flip - ref) > FLIP_TOL:
            causes.append("check:threshold")
    if not sweep.entries[1].nudged:
        causes.append("check:nudge")
    # every collision of this channel at or below the sweep's top depth
    refs = [oracle.critical_depth(sweep_channel, True, i, m, a) for i in (1, 2, 3)]
    if sweep_channel == "plus":
        refs.append(oracle.critical_depth("plus", False, 1, m, a))
    for tr in sweep.transitions:
        if tr.critical is None:
            causes.append("unattributed_transition")
        elif not any(_rel(tr.critical.U, r) <= CRITICAL_REL_TOL for r in refs):
            causes.append("check:sweep")
    return causes


# -- digests -----------------------------------------------------------------


def chart_bytes(out) -> bytes:
    chart, text, svg = out
    return text.encode() + svg.encode()


def depth_bytes(out) -> bytes:
    """Every number a depth op returns, in exact (repr) form."""
    crits, flips, sweep = out
    parts = [repr((cd.U, cd.k, cd.transition, cd.pair_count)) for cd in crits]
    parts += [repr(f) for f in flips]
    for e in sweep.entries:
        parts.append(repr((e.U_requested, e.U_used, e.nudged, sorted(e.topology.items()),
                           [complex(k) for k in e.attractive_poles])))
    for t in sweep.transitions:
        parts.append(repr((t.u_below, t.u_above, t.description)))
    return "\n".join(parts).encode()


def digest(chunks: list[bytes]) -> str:
    """One SHA-256 over a sequence of byte strings, each length-prefixed."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    panel: Callable[[int], list]
    op: Callable
    check: Callable[..., list[str]]
    to_bytes: Callable[..., bytes]
    # reference seconds one op takes, which sizes the panel to --seconds
    nominal_op_s: float
    # an op over this many reference seconds counts as failed
    limit_s: float
    # the first package call of the workload's first op, for setup_s
    first_call: str
    # the tail needs ten samples beyond it
    min_ops: int = 21


_CHART_CALL = ("wp.build_chart(wp.PotentialSpec(m={0!r}, a={1!r}, U={2!r}), "
               "wp.Channel({3!r}), certify=True)")

WORKLOADS = {
    "atlas": Workload("atlas", atlas_panel, chart_op, check_chart, chart_bytes,
                      nominal_op_s=0.105, limit_s=2.0, first_call=_CHART_CALL),
    "deep": Workload("deep", deep_panel, chart_op, check_chart, chart_bytes,
                     nominal_op_s=0.125, limit_s=5.0, first_call=_CHART_CALL),
    "depth-study": Workload("depth-study", depth_panel, depth_op, check_depth, depth_bytes,
                            nominal_op_s=0.85, limit_s=10.0,
                            first_call="wp.critical_depth(wp.Channel({2!r}), attractive=True, "
                                       "m={0!r}, a={1!r}, index=1)",
                            # its ops are long; thirty puts the tail at the
                            # 66th percentile in about 25 reference seconds
                            min_ops=30),
}


def panel_size(workload: Workload, seconds: float) -> int:
    return max(workload.min_ops, round(seconds / workload.nominal_op_s))
