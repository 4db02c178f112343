"""A thin tier-1 slice of the box (see ``panels``): its draw is pinned, and
every 40th well charts complete with the closed-form topology."""

from __future__ import annotations

import pytest

from panels import BOX_SIZE, box
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
