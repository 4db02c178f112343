"""The frozen speed probe and the arithmetic that scales op times by it.

The machine this benchmark runs on drifts in speed by tens of percent over
minutes, so raw op times are not comparable between runs. A short fixed
piece of work, the probe, runs between ops; an op's time is divided by the
mean of the two probes around it and multiplied by the probe's nominal
time. Scaled times are therefore seconds at the reference speed at which
NOMINAL_PROBE_S was measured.

The probe mixes pure-Python complex arithmetic with numpy scalar ufuncs,
the same kinds of work as the package's scalar kernel, but shares no code
with the package. Its body and NOMINAL_PROBE_S are frozen: changing either
changes every scaled number.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median probe time on a 2-CPU x86-64 container, Python 3.11, numpy 2.4
NOMINAL_PROBE_S = 0.0015
_PROBE_ITERS = 800
_PROBE_REPS = 3


def _probe_body(n: int) -> complex:
    z = complex(0.3, 0.2)
    acc = 0j
    for _ in range(n):
        w = z * z + (0.5 - 0.25j)
        e = np.exp(-abs(w.imag))
        c = np.cos(w.real)
        r = np.sqrt(w)
        acc += (w * c - 1j * r * e) / (1.0 + abs(w))
        z = 0.5 * z + 0.05 * acc / (1.0 + abs(acc))
    return acc


def probe() -> float:
    """Raw seconds of one probe: the median of a few timed repetitions."""
    times = []
    for _ in range(_PROBE_REPS):
        t0 = time.perf_counter()
        _probe_body(_PROBE_ITERS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(raw_s: float, probe_before: float, probe_after: float,
          nominal_s: float = NOMINAL_PROBE_S) -> float:
    """Raw seconds converted to seconds at the reference machine speed."""
    return raw_s * nominal_s / (0.5 * (probe_before + probe_after))


def charged(times: list[float], failed: list[bool], limit_s: float) -> list[float]:
    """Op times with each failed op charged the limit on top of its time.

    Successes never exceed the limit (an op over it counts as failed), so
    every failed op ranks above every success.
    """
    return [t + limit_s if f else t for t, f in zip(times, failed)]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the eleventh largest value and the share
    of samples at or below it, in whole percent.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(values)[n - 11], math.floor(100 * (n - 10) / n)
