"""Fast tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import probe
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reproduces_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.panel(30) == wl.panel(30)
    assert wl.panel(30)[:10] == wl.panel(10)
    assert workloads.order(30, 7) == workloads.order(30, 7)
    assert workloads.order(30, 7) != workloads.order(30, 8)
    assert sorted(workloads.order(30, 7)) == list(range(30))


def test_panels_hold_the_specified_cases():
    assert workloads.deep_panel(5)[:3] == workloads.DEEP_FIXED
    for m, a, channel, depths in workloads.depth_panel(10):
        u1 = oracle.critical_depth(channel, True, 1, m, a)
        assert depths[0] < u1 < depths[2]
        assert abs(depths[1] - u1) <= workloads.NUDGE_DELTA


def test_oracle_matches_known_critical_depths():
    known = [
        (("plus", True, 1), 1.96243654694),
        (("plus", True, 2), 8.5488238397),
        (("plus", False, 1), 0.0976064088646),
        (("minus", True, 1), 4.7090507903),
        (("minus", True, 2), 13.4843368765),
    ]
    for (channel, attractive, index), value in known:
        u = oracle.critical_depth(channel, attractive, index, 1.0, 1.5)
        assert u == pytest.approx(value, rel=1e-10)
    with pytest.raises(ValueError):
        oracle.critical_depth("minus", False, 1, 1.0, 1.5)


def test_oracle_residual_vanishes_on_a_bound_state():
    # odd channel bound state at m=1, a=1.5, U=2: kappa solves
    # cos(aK) + (kappa/K) sin(aK) = 0 with K = sqrt(2mU - kappa^2)
    def f(kappa):
        K = math.sqrt(4.0 - kappa * kappa)
        return math.cos(1.5 * K) + kappa / K * math.sin(1.5 * K)

    kappa = oracle.bisect(f, 0.1, 1.9)
    assert oracle.pole_residual(1j * kappa, "minus", 1.0, 1.5, 2.0) < 1e-13
    assert oracle.pole_residual(1j * kappa + 0.01, "minus", 1.0, 1.5, 2.0) > 1e-4


def test_probe_scaling_arithmetic():
    # an op of 0.2 s between probes of 1 ms and 3 ms ran at half the
    # reference speed if the nominal probe is 1 ms
    assert probe.scale(0.2, 1e-3, 3e-3, nominal_s=1e-3) == pytest.approx(0.1)
    assert probe.scale(0.2, 2e-3, 2e-3, nominal_s=2e-3) == pytest.approx(0.2)
    assert probe.probe() > 0.0


def test_failed_ops_are_charged_and_rank_last():
    times = [0.1, 0.3, 0.2]
    assert probe.charged(times, [False, True, False], 5.0) == [0.1, 5.3, 0.2]
    values = [float(i) for i in range(1, 21)]
    assert probe.tail(values) == (10.0, 50)
    assert probe.tail(list(range(100))) == (89, 90)
    with pytest.raises(ValueError):
        probe.tail(values[:10])


def test_self_time_subtracts_covered_child_time():
    # 0: [0, 10] with children 1: [1, 3], 2: [4, 6] and 4: [9, 12], which
    # reaches past its parent's end and is clipped; 3: [4.5, 5] inside 2
    cols = {
        "start": np.array([0.0, 1.0, 4.0, 4.5, 9.0]),
        "end": np.array([10.0, 3.0, 6.0, 5.0, 12.0]),
        "parent": np.array([-1, 0, 0, 2, 0]),
    }
    assert tracing.self_times(cols).tolist() == pytest.approx([5.0, 2.0, 1.5, 0.5, 3.0])


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.skipif(not (SRC / "wellpoles").is_dir(), reason="package source not present")
def test_tracer_catches_calls_inside_the_package():
    sys.path.insert(0, str(SRC))
    import wellpoles as wp

    original = wp.scan_axis
    tracer = tracing.Tracer()
    tracer.install()
    assert wp.scan_axis is not original
    try:
        tracer.active = True
        wp.bound_count(wp.PotentialSpec(1.0, 1.5, 2.0), wp.Channel.PLUS)
        tracer.active = False
    finally:
        tracer.uninstall()
    cols = tracer.spans.columns()
    names = [tracing.NAMES[i] for i in cols["name"]]
    assert names[0] == "chart.bound_count"
    scan = names.index("rootfinder.scan_axis")
    assert cols["parent"][scan] == 0
    # axis_phi is reached through the kernel module attribute from inside
    # rootfinder, newton_pole from inside newton_refine
    assert "kernel.axis_phi" in names and "kernel.newton_pole" in names
    assert all(cols["parent"][i] >= 0 for i in range(1, len(names)))
    assert wp.scan_axis is original
