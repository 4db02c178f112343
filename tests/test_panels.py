"""A thin tier-1 slice of the panels (see ``panels``): the box's and the S
check's draws are pinned; every 40th box well, box well 1871, the deep
panel's c = 1000 pair, the heavy wide deep well (10, 6, 300) and the 9
exact collision depths of item 7's grid chart complete with the
closed-form topology; and the verify runs, S check and weak-well commands
known to fail today are strict xfails that name the ROADMAP item meant to
fix them."""

from __future__ import annotations

import json

import pytest

from panels import (
    BOX_SIZE,
    S_CHECK_SIZE,
    WEAK_WELL_COMMANDS,
    box,
    collision_grid,
    deep_panel,
    s_check_draws,
    s_check_errors,
    verify_argv,
    verify_grid,
)
from wellpoles import Channel, PotentialSpec, build_chart
from wellpoles.chart import _closed_form_topology
from wellpoles.cli import main

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


def test_box_well_1871_is_complete():
    _assert_complete(*box()[1871])


@pytest.mark.parametrize("well", collision_grid((0.0,)),
                         ids=lambda w: f"{w[3]}-m{w[0]}-a{w[1]}-U{w[2]:.6g}")
def test_exact_collision_depth_is_complete(well):
    # the only panel charts that split a coalesced pair; at the repulsive
    # depth the bound state's loop closes through the pair
    _assert_complete(*well)


@pytest.mark.parametrize("well", deep_panel((1000.0,)), ids=lambda w: w[3])
def test_deep_panel_at_c_1000_is_complete(well):
    _assert_complete(*well)


def test_heavy_wide_deep_well_is_complete():
    _assert_complete(10.0, 6.0, 300.0, "plus")


def test_verify_grid_and_s_check_draw_are_pinned():
    grid = verify_grid()
    assert len(grid) == 70 and len(set(grid)) == 70
    assert verify_argv(*grid[0]) == ["verify", "--a", "0.1", "--U", "1e-300",
                                     "--samples", "200", "--seed", "5"]
    draws = s_check_draws()
    assert len(draws) == S_CHECK_SIZE
    assert draws[0] == (0.35282857026592307, 1.1884473014377772e-05,
                        -1.5605380014230494 + 0.6235202315771669j, 3.9315166211756676)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 25: the channel pole functions cancel where q ~ +-z at "
    "large |Im z|; 56 (plus) and 55 (minus) of the 300 samples fail, worst "
    "3.9e-5 and 4.1e-5"))
@pytest.mark.parametrize("channel", ["plus", "minus"])
def test_s_check_at_1e_12(channel):
    errors = s_check_errors(channel)
    assert len(errors) == S_CHECK_SIZE
    assert max(errors) < 1e-12


def _cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 26: verify samples a fixed box in k, so at a = 1000 "
    "e^{-2iq} leaves the float range and all 720 failures are null"))
def test_verify_at_a_1000(capsys):
    code, out, _ = _cli(capsys, verify_argv(1000.0, 1.0))
    assert json.loads(out)["failures"] == []
    assert code == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 25: in this shallow wide well the channel pole functions "
    "cancel, and 309 samples fail"))
def test_verify_shallow_wide_well(capsys):
    code, out, _ = _cli(capsys, verify_argv(5.0, 1e-8))
    assert json.loads(out)["failures"] == []
    assert code == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 25: very weak wells exit 3, with SeedNotOnPole, "
    "ConvergedElsewhere and NoConvergence in turn"))
@pytest.mark.parametrize("argv", WEAK_WELL_COMMANDS[:3], ids=lambda argv: " ".join(argv))
def test_weak_well_command_exits_0(capsys, argv):
    code, _, err = _cli(capsys, argv)
    assert (code, err) == (0, "")
