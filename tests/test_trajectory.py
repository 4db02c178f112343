"""Continuation tracer: closures, anchors, mirroring, pair splitting."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wellpoles.chart import build_chart, critical_depth
from wellpoles.errors import ModelInvalid, SeedNotOnPole, StallAtDoubleZero
from wellpoles.rootfinder import (
    TOL_AXIS,
    Pole,
    PoleKind,
    collision_depth,
    newton_refine,
    scan_axis,
)
import wellpoles
from wellpoles import _kernels as _k
from wellpoles import trajectory
from wellpoles.smatrix import (
    Channel,
    ComplexCoupling,
    PotentialSpec,
    _anchor_index,
    _phase_to_gamma,
)
from wellpoles.trajectory import (
    Closure,
    ClosureKind,
    CollisionEvent,
    ExitReason,
    branch_at_double_zero,
    trace,
    trace_branch,
)

from trajectory_checks import meets_pair, mirror_defect, point_at

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


def _fine_trace(seed, spec):
    """The forward march at half the initial step and 1/4096 of the local
    error tolerance, which the cubic error test turns into steps about a
    sixteenth as long: a finer reference for the default schedule."""
    # scoped, so that no later trace marches on the finer schedule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_STEP_INITIAL", 0.005)
        mp.setattr(trajectory, "_LOCAL_ERROR_TOL", trajectory._LOCAL_ERROR_TOL / 4096)
        return trace(seed, +1, spec)


def classify_closure(traj, closure_tol: float = 1e-6) -> Closure:
    """Re-derive the closure label from the recorded anchors."""
    amap = dict(traj.anchors)
    n0 = _anchor_index(traj.seed_alpha)
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
        amap = dict(t.anchors)
        assert sorted(amap) == [0, 1, 2, 3, 4]
        assert abs(amap[0] - SHALLOW_BOUND) < 1e-8
        assert abs(amap[2] - SHALLOW_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[1] - SHALLOW_QUARTER) < 1e-8
        assert abs(amap[4] - amap[0]) < 1e-6

    def test_same_loop_from_its_virtual_member(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_LOOP_VIRTUAL), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_2PI
        amap = dict(t.anchors)
        # same loop, phase-shifted by pi: bound appears two anchors later
        assert abs(amap[2] - SHALLOW_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[4] - SHALLOW_BOUND) < 1e-8

    def test_deep_virtual_runs_open_to_cap(self, monkeypatch):
        # the window at |q| = 40 lets a guard patched to 8 pi stop the march first
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 8 * math.pi)
        monkeypatch.setattr(trajectory, "_trace_window", lambda c: 40.0)
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL), +1, spec)
        assert t.closure == Closure(ClosureKind.OPEN, ExitReason.ALPHA_CAP)
        assert abs(t.alphas[-1] - (math.pi + 8 * math.pi)) < 1e-9

    def test_deep_bound_closes_in_two_turns(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_4PI
        amap = dict(t.anchors)
        assert sorted(amap) == list(range(9))
        assert abs(amap[0] - DEEP_BOUND) < 1e-8
        assert abs(amap[2] - DEEP_ODD_PI) < 1e-8
        assert abs(amap[4] - DEEP_LOOP_VIRTUAL) < 1e-8
        assert abs(amap[6] - (-DEEP_ODD_PI.conjugate())) < 1e-8
        assert abs(amap[1] - DEEP_QUARTER) < 1e-8

    def test_two_turn_loop_not_reported_closed_early(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        amap = dict(t.anchors)
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
        amap = dict(t.anchors)
        assert abs(amap[2] - MINUS5_ODD_PI) < 1e-8
        assert abs(amap[4] - MINUS5_LOOP_VIRTUAL) < 1e-8

    def test_classify_closure_rederives_label(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert classify_closure(t).kind is t.closure.kind


class TestStepControl:
    def test_alpha_strictly_monotone_and_bounded_steps(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        da = np.diff(t.alphas)
        assert np.all(da > 0)
        # the quarter-turn anchors are the only cap on a step
        assert np.max(da) <= HALF_PI + 1e-12

    @pytest.mark.parametrize("well,k_seed", [
        ((1.0, 1.5, 0.09), SHALLOW_OPEN_VIRTUAL),
        # stalled at alpha = 24 pi after a 1.4e-14 rad step
        ((0.39966547877327313, 1.5381798689847033, 0.0024896980151035975), -3.2354277555653534j),
    ])
    def test_open_curve_runs_to_the_window_without_a_sliver_step(self, well, k_seed):
        # a step that would end a rounding residue short of its anchor ends
        # on it: the sliver left over would divide the next Hermite
        # predictor, and every later step would be rejected to a stall
        spec = PotentialSpec(*well)
        seed = min(scan_axis(spec, REP, Channel.PLUS), key=lambda p: abs(p.k - k_seed))
        t = trace(seed, +1, spec)
        assert t.closure.reason is ExitReason.K_WINDOW
        assert np.min(np.diff(t.alphas)) > 1e-9

    def test_anchors_hit_exactly(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        sampled = set(t.alphas)
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
    def test_stitches_open_halves(self, monkeypatch):
        # trace joins an open curve's forward march and its mirror image
        # about the seed
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 8 * math.pi)
        monkeypatch.setattr(trajectory, "_trace_window", lambda c: 40.0)
        spec = _spec(0.09)
        seed = _seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL)
        c = trace(seed, +1, spec)
        i = c.alphas.index(math.pi)
        # the backward half, the seed once, then the forward one, in
        # ascending alpha
        assert np.all(np.diff(c.alphas) > 0)
        assert c.ks[i] == seed.k and len(c.alphas) == 2 * i + 1
        assert np.array_equal(c.ks[:i], -np.conj(c.ks[i + 1:])[::-1])
        # both halves stop at the phase guard, one on either side of the seed
        assert c.alphas[0] == -7 * math.pi and c.alphas[-1] == 9 * math.pi
        assert c.closure == Closure(ClosureKind.OPEN, ExitReason.ALPHA_CAP)


class TestMirror:
    def test_defect_tiny_on_closed_loop(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        assert mirror_defect(t, spec) < 1e-8

    def test_defect_tiny_on_open_trajectory(self):
        spec = _spec(0.09)
        t = trace(_seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL), +1, spec)
        assert mirror_defect(t, spec) < 1e-8

    def test_split_branch_mirror_keeps_resonance_side(self, monkeypatch):
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 1.5 * math.pi)
        spec = _spec(U_CRIT_PLUS_ATT)
        dz = [p for p in scan_axis(spec, ATT, Channel.PLUS) if p.multiplicity == 2][0]
        branches = branch_at_double_zero(dz, spec).branches
        assert branches[0][0] == "resonance_side"
        kb = branches[0][1]
        t = trace_branch(dz, kb, spec)
        # the image is the curve's part behind the pair, in ascending alpha
        i = t.alphas.index(1e-3)
        assert np.all(np.diff(t.alphas) > 0) and t.alphas[i - 1] == -1e-3
        # it stops at the guard on the far side, for the march's reason
        assert t.alphas[0] == -1.5 * math.pi and t.alphas[-1] == 1.5 * math.pi
        assert t.closure == Closure(ClosureKind.OPEN, ExitReason.ALPHA_CAP)
        # k -> -conj(k) takes the resonance-side branch across the axis, onto
        # the antiresonance side of the pair's split behind it: a pole there
        k_back = t.ks[i - 1]
        assert k_back == -kb.conjugate() and k_back.real < 0.0
        p = newton_refine(k_back, ComplexCoupling(-1e-3), spec, Channel.PLUS)
        assert abs(p.k - k_back) < 1e-10


class TestBackwardByMirror:
    """The backward half of a curve is its forward march mirrored about the
    seed, which only an axis seed at a real coupling makes exact."""

    def test_backward_half_lies_on_the_poles(self):
        spec = _spec(2.0)
        seed = _seed(2.0, ATT, Channel.PLUS, DEEP_OPEN_VIRTUAL)
        t = trace(seed, +1, spec)
        # the open curve: the mirrored march, the seed, then the march; the
        # exit the image carries, the march's, lies behind the seed
        i = t.alphas.index(0.0)
        assert t.closure.kind is ClosureKind.OPEN and t.closure.reason is not None
        assert t.ks[i] == seed.k and i > 0
        assert np.all(np.diff(t.alphas) > 0)
        for alpha, k in zip(t.alphas[:i], t.ks[:i]):
            assert abs(point_at(t, alpha, spec) - k) < 1e-10 * (1.0 + abs(k))
            q, _, ok, _ = _k.newton_pole(A * k, spec.c ** 2 * _phase_to_gamma(alpha),
                                         Channel.PLUS.code, 50)
            assert ok and abs(q / A - k) < 1e-10 * (1.0 + abs(k))
        # an off-axis seed has no mirror image through itself
        off = newton_refine(3.5 - 1.0j, ATT, spec, Channel.PLUS)
        assert off.kind is PoleKind.RESONANCE
        with pytest.raises(ValueError, match="axis pole"):
            trace(off, +1, spec)

    def test_off_real_coupling_seed_refused(self):
        spec = _spec(2.0)
        f = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        third = ComplexCoupling(math.pi / 3)
        seed = newton_refine(point_at(f, math.pi / 3, spec), third, spec, Channel.PLUS)
        with pytest.raises(ValueError):
            trace(seed, +1, spec)

    def test_no_mirror_entry_point(self):
        assert not hasattr(trajectory, "mirror")
        assert not hasattr(wellpoles, "mirror") and "mirror" not in wellpoles.__all__


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

    def test_mid_step_matches_a_fine_trace(self, monkeypatch):
        # default steps here run to 0.2 rad; Newton started from the nearest
        # sample lands on a neighbouring pole at 33 of the 83 mid-step
        # phases, so point_at must continue from the sample below
        spec = PotentialSpec(1.558586768171243, 2.492577328251638, 6.3782986596754965)
        seed = min(scan_axis(spec, ATT, Channel.PLUS),
                   key=lambda p: abs(p.k - (-4.4048071991275455j)))
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 4 * math.pi)
        t = trace(seed, +1, spec)
        fine = _fine_trace(seed, spec)
        assert np.max(np.diff(t.alphas)) > 0.2
        alphas = np.asarray(t.alphas)
        for al in 0.5 * (alphas[:-1] + alphas[1:]):
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
        bad = Pole(good.q + 0.05 * good.a, good.channel, good.coupling, good.multiplicity,
                   good.residual, good.a)
        with pytest.raises(SeedNotOnPole):
            trace(bad, +1, spec)

    def test_direction_validated(self):
        spec = _spec(0.09)
        seed = _seed(0.09, ATT, Channel.PLUS, SHALLOW_BOUND)
        # the curve through an axis seed is its own image about the seed, so
        # a backward trace would only return it again
        for direction in (2, -1):
            with pytest.raises(ValueError, match="direction"):
                trace(seed, direction, spec)

    def test_seed_off_the_quarter_turn_grid_rejected(self):
        # closure is decided at whole-turn anchors, so a seed must sit on one
        spec = _spec(2.0)
        seed = newton_refine(DEEP_BOUND, ComplexCoupling(0.3), spec, Channel.PLUS)
        with pytest.raises(ValueError, match="quarter-turn"):
            trace(seed, +1, spec)
        with pytest.raises(ValueError, match="quarter-turn"):
            trace_branch(seed, seed.k, spec)


class TestBranching:
    def test_trace_refuses_coalesced_seed(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        with pytest.raises(StallAtDoubleZero):
            trace(dz, +1, spec)

    def test_split_produces_residual_clean_branches(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        dz = [p for p in scan_axis(spec, ATT, Channel.PLUS) if p.multiplicity == 2][0]
        event = branch_at_double_zero(dz, spec)
        assert event.branch_alpha == 1e-3
        branches = event.branches
        assert event.kind == CollisionEvent.kind == "axis_pair_to_plane_pair"
        assert [lbl for lbl, _ in branches] == ["resonance_side", "antiresonance_side"]
        ks = {lbl: k for lbl, k in branches}
        assert ks["resonance_side"].real > 0 > ks["antiresonance_side"].real
        for _, kb in branches:
            assert abs(kb - (-1j / A)) < 0.1
            p = newton_refine(kb, ComplexCoupling(1e-3), spec, Channel.PLUS)
            assert abs(p.k - kb) < 1e-10

    def test_branches_continue_as_trajectories(self, monkeypatch):
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 1.5 * math.pi)
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        event = branch_at_double_zero(dz, spec)
        lbl, kb = event.branches[0]
        t = trace_branch(dz, kb, spec)
        # a split step past the pair, on to every anchor below the phase
        # guard, and the mirror image of that march behind the pair
        i = t.alphas.index(1e-3)
        assert t.seed is dz and t.ks[i] == kb
        assert [n for n, _ in t.anchors] == [-3, -2, -1, 1, 2, 3]
        assert t.closure == Closure(ClosureKind.OPEN, ExitReason.ALPHA_CAP)
        assert len(t.alphas) == 2 * i and i > 20
        # the pair is the chart's one event
        chart = build_chart(spec, Channel.PLUS, certify=False)
        assert chart.collisions == [event]
        assert event.kind == "axis_pair_to_plane_pair"

    def test_split_momentum_near_collision_point(self):
        spec = _spec(U_CRIT_PLUS_ATT)
        poles = scan_axis(spec, ATT, Channel.PLUS)
        dz = [p for p in poles if p.multiplicity == 2][0]
        assert abs(dz.k - (-1j / A)) < 1e-6


def _collision_x(channel, attractive, index):
    """x_c = a|K_c| of a pair collision, from scipy (see collision_x)."""
    if not attractive:
        return brentq(lambda y: y * math.tanh(y) - 1.0, 1.0, 2.0, xtol=1e-15)
    if channel is Channel.PLUS:
        return brentq(lambda x: x * math.tan(x) + 1.0, (index - 0.5) * math.pi + 1e-9,
                      index * math.pi - 1e-9, xtol=1e-15)
    return brentq(lambda x: math.tan(x) - x, index * math.pi + 1e-9,
                  (index + 0.5) * math.pi - 1e-9, xtol=1e-15)


class TestClosedFormBranches:
    """At a saddle K_c of g, g'' = a^2 g and dk/dK = i a K_c, so a pair
    split by a phase step sigma*delta sits at k_c +- i K_c sqrt(i sigma delta)."""

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        collision=st.sampled_from([(Channel.PLUS, True), (Channel.MINUS, True),
                                   (Channel.PLUS, False)]),
        index=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_polished_branches_sit_at_the_formula(self, m, a, collision, index):
        channel, attractive = collision
        if not attractive:
            index = 1
        x = _collision_x(channel, attractive, index)
        spec = PotentialSpec(m=m, a=a, U=(x * x + (1.0 if attractive else -1.0)) / (2 * m * a * a))
        alpha_c = 0.0 if attractive else math.pi
        kc = -1j / a
        seed = min(scan_axis(spec, ComplexCoupling(alpha_c), channel), key=lambda p: abs(p.k - kc))
        if seed.multiplicity != 2:
            # the float depth leaves the pair outside the coalescence ball
            with pytest.raises(ModelInvalid):
                branch_at_double_zero(seed, spec)
            return
        event = branch_at_double_zero(seed, spec)
        assert event.alpha == alpha_c and event.k == kc
        step = trajectory._SPLIT_STEP
        big_k = x / a if attractive else 1j * x / a
        root = 1j * big_k * cmath.sqrt(1j * step)
        stepped = ComplexCoupling(alpha_c + step)
        matched = []
        for _, kb in event.branches:
            est = min((kc + root, kc - root), key=lambda e: abs(e - kb))
            matched.append(est)
            assert abs(kb - est) <= 0.02 * abs(kb - kc)
            assert abs(newton_refine(kb, stepped, spec, channel).k - kb) < 1e-10 * (1 + abs(kb))
        assert matched[0] != matched[1]

    def test_no_split_off_a_collision(self):
        # the poles of a real-coupling anchor without a coalesced pair, of
        # one a pair ball away from the collision depth, and a pole at a
        # quarter-turn anchor
        spec = _spec(U_CRIT_PLUS_ATT)
        off = _spec(U_CRIT_PLUS_ATT * (1 + 1e-9))
        seeds = [(p, spec) for p in scan_axis(spec, REP, Channel.PLUS)]
        seeds += [(p, off) for p in scan_axis(off, ATT, Channel.PLUS)]
        assert any(abs(A * p.k + 1j) < 1e-3 for p, _ in seeds)
        shallow = _spec(0.09)
        quarter = newton_refine(SHALLOW_QUARTER, ComplexCoupling(HALF_PI), shallow, Channel.PLUS)
        seeds.append((quarter, shallow))
        for seed, sp in seeds:
            with pytest.raises(ModelInvalid, match="no coalesced pair"):
                branch_at_double_zero(seed, sp)


class TestWindowExit:
    def test_far_pole_leaves_window(self, monkeypatch):
        # tight window forces the k-exit branch
        spec = _spec(0.09)
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 100 * math.pi)
        monkeypatch.setattr(trajectory, "_trace_window", lambda c: 5.0 * spec.a)
        seed = _seed(0.09, REP, Channel.PLUS, SHALLOW_OPEN_VIRTUAL)
        t = trace(seed, +1, spec)
        assert t.closure == Closure(ClosureKind.OPEN, ExitReason.K_WINDOW)
        assert abs(t.ks[-1]) > 5.0

    @pytest.mark.parametrize("channel,U", [("plus", 2.0), ("minus", 5.0)])
    def test_no_anchor_past_the_window(self, channel, U):
        # an open curve that leaves the window on a step clipped to an
        # anchor records no anchor there
        spec = _spec(U)
        window = trajectory._trace_window(spec.c) / spec.a
        chart = build_chart(spec, Channel.parse(channel))
        assert any(t.closure.reason is ExitReason.K_WINDOW for t in chart.trajectories)
        for t in chart.trajectories:
            assert all(abs(k) <= window for _, k in t.anchors)


class TestAxisCrossings:
    """A curve meets the imaginary axis only at a real coupling, so on a
    quarter-turn anchor: its axis crossings are its on-axis anchors."""

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        log_u=st.floats(math.log(1e-3), math.log(300.0)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        collision=st.none() | st.sampled_from([(True, 1), (True, 2), (True, 3), (False, 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_axis_sample_is_an_anchor(self, m, a, log_u, channel, collision):
        if collision is None:
            U = math.exp(log_u)
        else:
            # at the float collision depth; the odd channel has no
            # repulsive collision
            attractive, index = collision
            U = collision_depth(channel, attractive or channel is Channel.MINUS, m, a, index)
        spec = PotentialSpec(m=m, a=a, U=U)
        for t in build_chart(spec, channel, certify=False).trajectories:
            anchors = set(t.anchors)
            for alpha, k in zip(t.alphas, t.ks):
                if abs(a * k.real) < TOL_AXIS:
                    n = _anchor_index(alpha)
                    assert n is not None and (n, k) in anchors


class TestCorrectorCoupling:
    """The march hands each corrector call the coupling of its target
    phase: the exact axis value at an anchor, cos + i sin between two."""

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        U=st.floats(1e-3, 300.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_coupling_is_phase_to_gamma_bit_for_bit(self, m, a, U, channel):
        calls = []
        targets = []
        step, newton = trajectory._step, _k.newton_pole

        def step_spy(alpha, k, v, prev, target, *rest):
            targets.append(target)
            try:
                return step(alpha, k, v, prev, target, *rest)
            finally:
                targets.pop()

        def newton_spy(k, s, *rest):
            if targets:
                calls.append((targets[-1], s))
            return newton(k, s, *rest)

        spec = PotentialSpec(m=m, a=a, U=U)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajectory, "_step", step_spy)
            mp.setattr(_k, "newton_pole", newton_spy)
            build_chart(spec, channel, certify=False)
        assert calls
        # the kernels take the coupling as s = c^2 gamma
        c = spec.c
        for target, gamma in calls:
            ref = c * c * _phase_to_gamma(target)
            assert struct.pack("<dd", gamma.real, gamma.imag) == struct.pack(
                "<dd", ref.real, ref.imag
            ), (target, gamma, ref)


class TestHalfTurn:
    """A loop through an axis seed is marched to the half-turn anchor, where
    it meets the axis again, and mirrored about it for the rest."""

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        U=st.floats(1e-3, 300.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_turn_on_the_axis_and_mirrored_anchors_are_poles(self, m, a, U, channel):
        spec = PotentialSpec(m=m, a=a, U=U)
        for t in build_chart(spec, channel, certify=False).trajectories:
            if not t.closure.is_closed:
                continue
            n_seed = _anchor_index(t.seed_alpha)
            n_star = n_seed + (2 if t.closure.kind is ClosureKind.CLOSED_2PI else 4)
            assert t.alphas[-1] == (2 * n_star - n_seed) * HALF_PI
            amap = dict(t.anchors)
            if n_star in amap:
                assert abs(a * amap[n_star].real) < TOL_AXIS
            else:
                # the march met the coalesced pair at k = -i/a there
                assert meets_pair(t, n_star, spec)
            for n, k in t.anchors:
                if n <= n_star:
                    continue
                q, _, ok, _ = _k.newton_pole(
                    a * k, spec.c * spec.c * ComplexCoupling(n * HALF_PI).gamma, channel.code, 50
                )
                assert ok and abs(q / a - k) < 1e-10 * (1.0 + abs(k))

    def test_no_newton_call_past_the_half_turn(self, monkeypatch):
        # every corrector call of the march is at the target phase of its
        # step, so the step targets are the phases of the Newton calls
        spec = _spec(2.0)
        seed = _seed(2.0, ATT, Channel.PLUS, DEEP_BOUND)
        phases = []
        real = trajectory._step

        def spy(alpha, k, v, prev, target, *rest):
            phases.append(target)
            return real(alpha, k, v, prev, target, *rest)

        monkeypatch.setattr(trajectory, "_step", spy)
        t = trace(seed, +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_4PI
        assert t.alphas[-1] == 4 * math.pi
        assert len(phases) > 20 and max(phases) == 2 * math.pi

    def test_loop_samples_mirror_about_the_half_turn(self):
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        i = int(np.searchsorted(t.alphas, 2 * math.pi))
        assert t.alphas[i] == 2 * math.pi and len(t.alphas) == 2 * i + 1
        # the half-turn sample is the march's own, held once
        assert np.array_equal(t.ks[i + 1:], -np.conj(t.ks[:i])[::-1])
        alphas = np.asarray(t.alphas)
        assert np.allclose(alphas[i:], 4 * math.pi - alphas[: i + 1][::-1], rtol=0, atol=1e-14)

    def test_coalesced_half_turn_recorded_once(self):
        # at the repulsive collision depth the bound state's loop meets the
        # coalesced pair at k = -i/a half a turn on, at alpha = pi, and
        # closes there; the chart lists the pair once, from its axis scan
        spec = _spec(critical_depth(Channel.PLUS, False, M, A).U)
        t = trace(_seed(spec.U, ATT, Channel.PLUS, 0.23511203159386854j), +1, spec)
        assert t.closure.kind is ClosureKind.CLOSED_2PI
        assert [n for n, _ in t.anchors] == [0, 1, 3, 4]
        assert meets_pair(t, 2, spec)
        assert t.alphas[-1] == 2 * math.pi
        chart = build_chart(spec, Channel.PLUS, certify=False)
        assert [(ev.alpha, ev.k) for ev in chart.collisions] == [(math.pi, -1j / A)]

    def test_seed_on_a_quarter_turn_anchor_refused(self):
        # a curve is its own image only about a multiple of pi, so a pole on
        # the loop's pi/2 anchor, on the grid and on the pole set, seeds none
        spec = _spec(2.0)
        t = trace(_seed(2.0, ATT, Channel.PLUS, DEEP_BOUND), +1, spec)
        quarter = newton_refine(dict(t.anchors)[1], ComplexCoupling(HALF_PI), spec,
                                Channel.PLUS)
        assert _anchor_index(quarter.coupling.alpha) == 1
        with pytest.raises(ValueError, match="quarter-turn"):
            trace(quarter, +1, spec)
