"""A thin tier-1 slice of the panels (see ``panels``): the box's draw is
pinned, every 40th box well and the 9 exact collision depths of item 7's
grid chart complete with the closed-form topology, and the charts known to
fail today are strict xfails that name the ROADMAP item meant to fix them."""

from __future__ import annotations

import pytest

from panels import BOX_SIZE, box, collision_grid, deep_panel
from wellpoles import Channel, PotentialSpec, build_chart
from wellpoles.chart import _closed_form_topology

# the one box well whose chart is not complete today
WELL_1871 = (4.797483204295837, 5.2081703345730554, 266.34213016434455, "minus")


def _assert_complete(m: float, a: float, U: float, channel: str) -> None:
    spec = PotentialSpec(m=m, a=a, U=U)
    ch = Channel.parse(channel)
    chart = build_chart(spec, ch)
    assert chart.completeness["complete"], [w.code for w in chart.warnings]
    assert chart.topology == _closed_form_topology(spec, ch)


def test_box_draw_is_pinned():
    wells = box()
    assert len(wells) == BOX_SIZE
    assert wells[1871] == WELL_1871


@pytest.mark.parametrize("index", range(0, BOX_SIZE, 40))
def test_every_40th_box_well_is_complete(index):
    _assert_complete(*box()[index])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 19: a march step on well 1871 lands on a neighbouring "
    "loop, and the chart carries a trace_stalled warning"))
def test_box_well_1871_is_complete():
    _assert_complete(*box()[1871])


@pytest.mark.parametrize("well", collision_grid((0.0,)),
                         ids=lambda w: f"{w[3]}-m{w[0]}-a{w[1]}-U{w[2]:.6g}")
def test_exact_collision_depth_is_complete(well):
    # the only panel charts that split a coalesced pair; at the repulsive
    # depth the bound state's loop closes through the pair
    _assert_complete(*well)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 19 and 30: at c = 1000 march steps land on neighbouring "
    "loops and turns of the open curve, so the chart carries trace_stalled "
    "and phase_guard warnings and misses six window poles"))
@pytest.mark.parametrize("well", deep_panel((1000.0,)), ids=lambda w: w[3])
def test_deep_panel_at_c_1000_is_complete(well):
    _assert_complete(*well)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 19: a march step of (m, a, U) = (10, 6, 300) lands on a "
    "neighbouring loop, and the chart stalls with 663 of 667 poles"))
def test_heavy_wide_deep_well_is_complete():
    _assert_complete(10.0, 6.0, 300.0, "plus")
