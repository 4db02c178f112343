"""Continuation tracer: closures, anchors, mirroring, pair splitting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from wellpoles.chart import build_chart
from wellpoles.errors import NoConvergence, SeedNotOnPole, StallAtDoubleZero
from wellpoles.rootfinder import Pole, PoleKind, newton_refine, scan_axis
from wellpoles import trajectory
from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
from wellpoles.trajectory import (
    Closure,
    ClosureKind,
    ExitReason,
    TraceCaps,
    _on_half_grid,
    branch_at_double_zero,
    combine,
    mirror,
    mirror_defect,
    point_at,
    trace,
    trace_branch,
)

M, A = 1.0, 1.5
HALF_PI = math.pi / 2.0

ATT = ComplexCoupling(0.0)
REP = ComplexCoupling(math.pi)

# anchor momenta locked from a verified run (m=1, a=1.5)
SHALLOW_BOUND = 0.2197277744451186j
SHALLOW_LOOP_VIRTUAL = -0.45793740602342864j
SHALLOW_OPEN_VIRTUAL = -0.9115191862697131j
SHALLOW_QUARTER = -0.24382410395574347 + 0.05822568830339964j

DEEP_BOUND = 1.841595559696953j
DEEP_LOOP_VIRTUAL = -0.9207432348573997j
DEEP_OPEN_VIRTUAL = -0.4041815185991784j
DEEP_ODD_PI = -2.1981616631333747 - 0.13443999258137454j
DEEP_QUARTER = -1.4886454469758164 + 1.2541684250557736j

MINUS5_DEEP_BOUND = 2.65825027459033j
MINUS5_LOOP_VIRTUAL = -1.3986419695071621j
MINUS5_ODD_PI = -3.73843597405481 - 0.21845184944483467j

X_CRIT_PLUS_ATT = brentq(
    lambda t: t * math.tan(t) + 1.0,
    math.pi / 2 + 1e-9, math.pi - 1e-9, xtol=1e-15,
)
U_CRIT_PLUS_ATT = (X_CRIT_PLUS_ATT ** 2 + 1.0) / (2 * M * A * A)


def _spec(U):
    return PotentialSpec(m=M, a=A, U=U)


def _seed(U, coupling, channel, k_near):
    poles = scan_axis(_spec(U), coupling, channel)
    best = min(poles, key=lambda p: abs(p.k - k_near))
    assert abs(best.k - k_near) < 1e-6
    return best


def _fine_trace(seed, spec, caps=None):
    """The forward march at half the initial step and a sixteenth of the
    step cap, a finer reference for the default schedule."""
    # scoped, so that no later trace marches on the finer schedule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_STEP_INITIAL", 0.005)
        mp.setattr(trajectory, "_STEP_MAXIMUM", 0.025)
        return trace(seed, +1, spec, caps)


def classify_closure(traj, closure_tol: float = 1e-6) -> Closure:
    """Re-derive the closure label from the recorded anchors."""
    amap = traj.anchor_index_map()
    n0 = _on_half_grid(traj.seed_alpha)
    if n0 is not None and n0 in amap:
        k0 = amap[n0]
        for turns, kind in ((1, ClosureKind.CLOSED_2PI), (2, ClosureKind.CLOSED_4PI)):
            for sgn in (+1, -1):
                n = n0 + sgn * 4 * turns
                if n in amap and abs(amap[n] - k0) < closure_tol:
                    return Closure(kind=kind)
    return traj.closure


class TestClosureDetection:
    def test_shallow_bound_closes_in_one_turn(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_2PI
        amap = t.anchor_index_map()
        assert sorted(amap) == [0, 1, 2, 3, 4]
        assert abs(amap[0] - SHALLOW_BOUND) < 1e-8
        assert abs(amap[2] - SHALLOW_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[1] - SHALLOW_QUARTER) < 1e-8
        assert abs(amap[4] - amap[0]) < 1e-6

    def test_same_loop_from_its_virtual_member(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_LOOP_VIRTUAL), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_2PI
        amap = t.anchor_index_map()
        # same loop, phase-shifted by pi: bound appears two anchors later
        assert abs(amap[2] - SHALLOW_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[4] - SHALLOW_BOUND) < 1e-8

    def test_deep_virtual_runs_open_to_cap(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL), +1, spec)
        assert t.closure.kind is ClosureKind.OPEN
        assert t.closure.forward_reason is ExitReason.ALPHA_CAP
        assert abs(t.alphas[-1] - (math.pi + 8 * math.pi)) < 1e-9

    def test_deep_bound_closes_in_two_turns(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_4PI
        amap = t.anchor_index_map()
        assert sorted(amap) == list(range(9))
        assert abs(amap[0] - DEEP_BOUND) < 1e-8
        assert abs(amap[2] - DEEP_ODD_PI) < 1e-8
        assert abs(amap[4] - DEEP_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[6] - (-DEEP_ODD_PI.conjugate())) < 1e-8
        assert abs(amap[1] - DEEP_QUARTER) < 1e-8

    def test_two_turn_loop_not_reported_closed_early(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        amap = t.anchor_index_map()
        # after one full turn the pole sits on the partner sheet
        assert abs(amap[4] - amap[0]) > 1.0

    def test_shallow_deep_virtual_is_open_at_depth_two(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_OPEN_VIRTUAL), +1, spec)
        assert t.closure.kind is ClosureKind.OPEN

    def test_minus_channel_two_turn_loop(self):
        spec = _spec(5.0)
        t = trace(_seed(5.0, ATT, Channel.MINUS, MINUS5_DEEP_BOUND), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_4PI
        amap = t.anchor_index_map()
        assert abs(amap[2] - MINUS5_ODD_PI) < 1e-8
        assert abs(amap[4] - MINUS5_LOOP_VIRTUAL) < 1e-8

    def test_classify_closure_rederives_label(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert classify_closure(t).kind is t.closure.kind

    def test_backward_direction_mirrors_forward_anchors(self):
        spec = _spec(2.0)
        f = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        b = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), -1, spec)
        assert b.closure.kind is ClosureKind.CLOSED_4PI
        fmap, bmap = f.anchor_index_map(), b.anchor_index_map()
        for n in range(0, 9):
            assert abs(bmap[-n] - (-fmap[n].conjugate())) < 1e-8


class TestStepControl:
    def test_alpha_strictly_monotone_and_bounded_steps(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        da = np.diff(t.alphas)
        assert np.all(da > 0)
        assert np.max(da) <= trajectory._STEP_MAXIMUM + 1e-12

    def test_anchors_hit_exactly(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        sampled = set(t.alphas.tolist())
        for n, _ in t.anchors:
            assert n * HALF_PI in sampled

    def test_halved_steps_reproduce_the_path(self):
        spec = _spec(2.0)
        seed = _seed(2.0, ATT, Channel.PLUS, DEEP_BOUND)
        t = trace(seed, +1, spec)
        th = _fine_trace(seed, spec)
        worst = 0.0
        for a_, k_ in zip(t.alphas[::5], t.ks[::5]):
            worst = max(worst, abs(point_at(th, a_, spec) - k_))
        assert worst < 1e-8

    def test_trace_is_deterministic(self):
        spec = _spec(2.0)
        seed = _seed(2.0, ATT, Channel.PLUS, DEEP_BOUND)
        t1 = trace(seed, +1, spec)
        t2 = trace(seed, +1, spec)
        assert np.array_equal(t1.alphas, t2.alphas)
        assert np.array_equal(t1.ks, t2.ks)

    def test_displacement_bound_respected(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        dk = np.abs(np.diff(t.ks))
        scale = 0.1 * (1.0 + np.abs(t.ks[:-1]))
        assert np.all(dk <= scale + 1e-12)


class TestCombine:
    def test_stitches_open_halves(self):
        spec = _spec(0.09)
        seed = _seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL)
        f = trace(seed, +1, spec)
        b = trace(seed, -1, spec)
        c = combine(b, f)
        assert c.direction == "both"
        assert np.all(np.diff(c.alphas) > 0)
        assert len(c.alphas) == len(f.alphas) + len(b.alphas) - 1
        assert c.closure.forward_reason is ExitReason.ALPHA_CAP
        assert c.closure.backward_reason is ExitReason.ALPHA_CAP

    def test_order_agnostic(self):
        spec = _spec(0.09)
        seed = _seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL)
        f = trace(seed, +1, spec)
        b = trace(seed, -1, spec)
        c1, c2 = combine(b, f), combine(f, b)
        assert np.array_equal(c1.alphas, c2.alphas)
        assert np.array_equal(c1.ks, c2.ks)

    def test_rejects_unrelated_traces(self):
        spec = _spec(0.09)
        f = trace(_seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND), +1, spec)
        g = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL), +1, spec)
        with pytest.raises(ValueError):
            combine(f, g)


class TestMirror:
    def test_defect_tiny_on_closed_loop(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert mirror_defect(t, spec) < 1e-8

    def test_defect_tiny_on_open_trajectory(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL), +1, spec)
        assert mirror_defect(t, spec) < 1e-8

    def test_involution(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        mm = mirror(mirror(t))
        assert np.array_equal(mm.alphas, t.alphas)
        assert np.array_equal(mm.ks, t.ks)

    def test_anchor_map(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        m = mirror(t)
        tmap, mmap = t.anchor_index_map(), m.anchor_index_map()
        for n, k in tmap.items():
            assert abs(mmap[-n] - (-k.conjugate())) < 1e-15

    def test_closure_preserved(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert mirror(t).closure.kind is t.closure.kind

    def test_split_branch_mirror_keeps_resonance_side(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        dz = [p for p in scan_axis(spec, ATT, Channel.PLUS) if p.multiplicity == 2][0]
        event, branches = branch_at_double_zero(0.0, spec, Channel.PLUS, +1)
        t = trace_branch(dz, branches[0][1], 1e-3, spec,
                         caps=TraceCaps(alpha_cap=1.5 * math.pi), event=event)
        m = mirror(t)
        assert m.direction == "backward"
        assert m.closure.forward_reason is t.closure.backward_reason is None
        assert m.closure.backward_reason is t.closure.forward_reason is ExitReason.ALPHA_CAP
        mirrored = dict(m.collisions[0].branches)
        assert mirrored["resonance_side"].real > 0 > mirrored["antiresonance_side"].real
        # the mirrored event is the split in the backward direction
        _, bwd = branch_at_double_zero(0.0, spec, Channel.PLUS, -1)
        for lbl, kb in bwd:
            assert abs(mirrored[lbl] - kb) < 1e-10


class TestBackwardByMirror:
    """Backward traces are mirrored forward marches from the mirrored seed."""

    def test_off_axis_seed_backward_trace_lies_on_the_poles(self):
        spec = _spec(2.0)
        seed = newton_refine(3.5 - 1.0j, ATT, spec, Channel.PLUS)
        assert seed.kind is PoleKind.RESONANCE
        t = trace(seed, -1, spec)
        assert t.direction == "backward"
        assert t.seed.k == seed.k
        assert t.alphas[-1] == 0.0 and t.ks[-1] == seed.k
        assert np.all(np.diff(t.alphas) > 0)
        for alpha, k in zip(t.alphas, t.ks):
            assert abs(point_at(t, alpha, spec) - k) < 1e-10 * (1.0 + abs(k))

    def test_off_real_coupling_seed_refused(self):
        spec = _spec(2.0)
        f = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        third = ComplexCoupling(math.pi / 3)
        seed = newton_refine(point_at(f, math.pi / 3, spec), third, spec, Channel.PLUS)
        with pytest.raises(ValueError):
            trace(seed, -1, spec)
        with pytest.raises(ValueError):
            mirror(trace(seed, +1, spec, caps=TraceCaps(alpha_cap=0.5)))


class TestPointAt:
    def test_reproduces_samples(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND), +1, spec)
        for i in range(0, len(t.alphas), 11):
            assert abs(point_at(t, t.alphas[i], spec) - t.ks[i]) < 1e-12

    def test_interpolates_between_samples(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND), +1, spec)
        a_mid = 0.5 * (t.alphas[3] + t.alphas[4])
        k_mid = point_at(t, a_mid, spec)
        assert abs(k_mid - t.ks[3]) < 0.1

    def test_mid_step_matches_a_fine_trace(self):
        # default steps here run to 0.2 rad; Newton started from the nearest
        # sample lands on a neighbouring pole at 33 of the 83 mid-step
        # phases, so point_at must continue from the sample below
        spec = PotentialSpec(1.558586768171243, 2.492577328251638, 6.3782986596754965)
        seed = min(scan_axis(spec, ATT, Channel.PLUS),
                   key=lambda p: abs(p.k - (-4.4048071991275455j)))
        caps = TraceCaps(alpha_cap=4 * math.pi)
        t = trace(seed, +1, spec, caps)
        fine = _fine_trace(seed, spec, caps)
        assert np.max(np.diff(t.alphas)) > 0.2
        for al in 0.5 * (t.alphas[:-1] + t.alphas[1:]):
            assert abs(point_at(t, al, spec) - point_at(fine, al, spec)) < 1e-8

    def test_outside_span_raises(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND), +1, spec)
        with pytest.raises(ValueError):
            point_at(t, t.alphas[-1] + 1.0, spec)


class TestSeedValidation:
    def test_off_manifold_seed_rejected(self):
        spec = _spec(0.09)
        good = _seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND)
        bad = replace(good, k=good.k + 0.05)
        with pytest.raises(SeedNotOnPole):
            trace(bad, +1, spec)

    def test_direction_validated(self):
        spec = _spec(0.09)
        seed = _seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND)
        with pytest.raises(ValueError):
            trace(seed, 2, spec)

    def test_seed_off_the_quarter_turn_grid_rejected(self):
        # closure is decided at whole-turn anchors, so a seed must sit on one
        spec = _spec(2.0)
        seed = newton_refine(DEEP_BOUND, ComplexCoupling(0.3), spec, Channel.PLUS)
        with pytest.raises(ValueError, match="quarter-turn"):
            trace(seed, +1, spec)
        with pytest.raises(ValueError, match="quarter-turn"):
            trace_branch(seed, seed.k, 0.3, spec)


class TestBranching:
    def test_trace_refuses_coalesced_seed(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        with pytest.raises(StallAtDoubleZero):
            trace(dz, +1, spec)

    def test_split_produces_residual_clean_branches(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        event, branches = branch_at_double_zero(0.0, spec, Channel.PLUS, +1)
        assert event.kind == "axis_pair_to_plane_pair"
        assert {lbl for lbl, _ in branches} == {"resonance_side", "antiresonance_side"}
        ks = {lbl: k for lbl, k in branches}
        assert ks["resonance_side"].real > 0 > ks["antiresonance_side"].real
        for _, kb in branches:
            assert abs(kb - (-1j / A)) < 0.1
            p = newton_refine(kb, ComplexCoupling(1e-3), spec, Channel.PLUS)
            assert abs(p.k - kb) < 1e-10

    def test_forward_backward_splits_mirror(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        _, fwd = branch_at_double_zero(0.0, spec, Channel.PLUS, +1)
        _, bwd = branch_at_double_zero(0.0, spec, Channel.PLUS, -1)
        f = {lbl: k for lbl, k in fwd}
        b = {lbl: k for lbl, k in bwd}
        assert abs(b["resonance_side"] - (-f["antiresonance_side"].conjugate())) < 1e-10
        assert abs(b["antiresonance_side"] - (-f["resonance_side"].conjugate())) < 1e-10

    def test_branches_continue_as_trajectories(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        event, branches = branch_at_double_zero(0.0, spec, Channel.PLUS, +1)
        lbl, kb = branches[0]
        t = trace_branch(dz, kb, 1e-3, spec,
                         caps=TraceCaps(alpha_cap=1.5 * math.pi), event=event)
        assert len(t.collisions) == 1
        assert t.collisions[0].kind == "axis_pair_to_plane_pair"
        assert len(t.alphas) > 20

    def test_split_momentum_near_collision_point(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        assert abs(dz.k - (-1j / A)) < 1e-6


class TestWindowExit:
    def test_far_pole_leaves_window(self):
        # tight window forces the k-exit branch
        spec = _spec(0.09)
        seed = _seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL)
        t = trace(seed, +1, spec, caps=TraceCaps(alpha_cap=100 * math.pi, k_window=5.0))
        assert t.closure.kind is ClosureKind.OPEN
        assert t.closure.forward_reason is ExitReason.K_WINDOW
        assert abs(t.ks[-1]) > 5.0

    @pytest.mark.parametrize("channel,U", [("plus", 2.0), ("minus", 5.0)])
    def test_no_anchor_past_the_window(self, channel, U):
        # an open curve that leaves the window on a step clipped to an
        # anchor records no anchor there
        spec = _spec(U)
        window = TraceCaps().window(spec)
        chart = build_chart(spec, Channel.parse(channel))
        assert any(t.closure.forward_reason is ExitReason.K_WINDOW for t in chart.trajectories)
        for t in chart.trajectories:
            assert all(abs(k) <= window for _, k in t.anchors)
