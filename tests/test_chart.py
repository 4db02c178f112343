"""Chart assembly, depth transitions, completeness certificates."""

import math
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wellpoles.chart import (
    bound_count,
    build_chart,
    critical_depth,
    depth_sweep,
    threshold_flip,
    working_window,
)
from wellpoles.document import canonical_dumps, chart_document, parse_chart_document
from wellpoles.errors import EdgeTooClose, NoConvergence, NoRootInBracket, StallAtDoubleZero
from wellpoles.rootfinder import TOL_AXIS, PoleKind, bound_threshold, newton_refine, scan_axis
from wellpoles.smatrix import C_LIMIT, Channel, ComplexCoupling, PotentialSpec, _anchor_index
from wellpoles.trajectory import ClosureKind, ExitReason
from wellpoles import _kernels as _k
from wellpoles import chart as chart_module
from wellpoles import rootfinder
from wellpoles import trajectory

from trajectory_checks import meets_pair, mirror_defect

M, A = 1.0, 1.5


def _u_star_plus_rep():
    y = brentq(lambda t: t * math.tanh(t) - 1.0, 1e-6, 5.0, xtol=1e-15)
    return (y * y - 1.0) / (2 * M * A * A)


def _u_star_plus_att(index=1):
    x = brentq(lambda t: t * math.tan(t) + 1.0,
               (index - 0.5) * math.pi + 1e-9, index * math.pi - 1e-9, xtol=1e-15)
    return (x * x + 1.0) / (2 * M * A * A)


def _u_star_minus_att():
    x = brentq(lambda t: math.tan(t) - t, math.pi + 1e-9,
               1.5 * math.pi - 1e-9, xtol=1e-15)
    return (x * x + 1.0) / (2 * M * A * A)


U_STAR_PLUS_REP = _u_star_plus_rep()
U_STAR_PLUS_ATT = _u_star_plus_att()
U_STAR_MINUS_ATT = _u_star_minus_att()


@lru_cache(maxsize=None)
def _chart(channel_name: str, U: float):
    return build_chart(
        PotentialSpec(m=M, a=A, U=U), Channel.parse(channel_name)
    )


def _kinds(chart):
    return set(chart.topology)


class TestWorkingWindow:
    def test_bounds(self):
        w = working_window(PotentialSpec(m=M, a=A, U=2.0))
        reach = 2.0 * math.sqrt(4.0)
        assert w.re_max == pytest.approx(8.0 / A + reach)
        assert w.im_min == pytest.approx(-(6.0 / A + reach))
        assert w.im_max == pytest.approx(reach + 2.0 / A)

    def test_contains(self):
        w = working_window(PotentialSpec(m=M, a=A, U=2.0))
        assert w.contains(0.0j)
        assert not w.contains(complex(w.re_max + 1.0, 0.0))
        assert not w.contains(complex(0.0, w.im_min - 1.0))


class TestEvenChannelSweep:
    EXPECT = {
        0.09: {"closed_2pi", "open"},
        0.1: {"open"},
        1.0: {"open"},
        1.95: {"open"},
        2.0: {"closed_4pi", "open"},
        3.0: {"closed_4pi", "open"},
    }

    @pytest.mark.parametrize("U", sorted(EXPECT))
    def test_topology(self, U):
        assert _kinds(_chart("plus", U)) == self.EXPECT[U]

    def test_single_loop_at_depth_two(self):
        chart = _chart("plus", 2.0)
        assert chart.topology == {"closed_4pi": 1, "open": 1}

    def test_loop_membership_at_depth_two(self):
        chart = _chart("plus", 2.0)
        loop = [t for t in chart.trajectories if t.closure.is_closed][0]
        att = sorted(
            (k for n, k in loop.anchors if n % 4 == 0),
            key=lambda z: z.imag,
        )
        assert abs(att[0] - (-0.9207432348573997j)) < 1e-6
        assert abs(att[-1] - 1.841595559696953j) < 1e-6

    def test_shallow_loop_membership(self):
        chart = _chart("plus", 0.09)
        loop = [t for t in chart.trajectories if t.closure.is_closed][0]
        amap = dict(loop.anchors)
        ks = sorted(amap.values(), key=lambda z: z.imag)
        assert abs(ks[0] - (-0.45793740602342864j)) < 1e-6
        assert abs(ks[-1] - 0.2197277744451186j) < 1e-6

    def test_merged_seed_bookkeeping(self):
        chart = _chart("plus", 2.0)
        merged = sum(len(t.merged_seeds) for t in chart.trajectories)
        assert len(chart.trajectories) + merged == len(chart.seeds)


class TestOddChannelSweep:
    EXPECT = {
        0.02: {"open"},
        0.2: {"open"},
        2.0: {"open"},
        4.7: {"open"},
        4.8: {"closed_4pi", "open"},
        5.0: {"closed_4pi", "open"},
    }

    @pytest.mark.parametrize("U", sorted(EXPECT))
    def test_topology(self, U):
        assert _kinds(_chart("minus", U)) == self.EXPECT[U]

    def test_first_bound_appears_with_depth(self):
        spec_shallow = PotentialSpec(m=M, a=A, U=0.2)
        spec_deep = PotentialSpec(m=M, a=A, U=2.0)
        assert bound_count(spec_shallow, Channel.MINUS) == 0
        assert bound_count(spec_deep, Channel.MINUS) == 1

    def test_deep_loop_membership(self):
        chart = _chart("minus", 5.0)
        loop = [t for t in chart.trajectories if t.closure.is_closed][0]
        att = sorted(
            (k for n, k in loop.anchors if n % 4 == 0),
            key=lambda z: z.imag,
        )
        assert abs(att[0] - (-1.3986419695071621j)) < 1e-6
        assert abs(att[-1] - 2.65825027459033j) < 1e-6


class TestCompleteness:
    @pytest.mark.parametrize("channel,U", [
        ("plus", 0.09), ("plus", 0.1), ("plus", 1.0),
        ("plus", 1.95), ("plus", 2.0), ("plus", 3.0),
        ("minus", 0.02), ("minus", 0.2), ("minus", 2.0),
        ("minus", 4.7), ("minus", 4.8), ("minus", 5.0),
    ])
    def test_window_count_matches_trajectories(self, channel, U):
        cert = _chart(channel, U).completeness
        assert cert["complete"], (
            f"window {cert['window_count']} vs trajectories "
            f"{cert['trajectory_count']}"
        )

    def test_inventory_members_are_poles(self):
        chart = _chart("plus", 2.0)
        spec = chart.spec
        c = spec.c
        for k in chart.completeness["inventory"]:
            d, dk = _k.denom_plain(spec.a * k, c * c + 0.0j, chart.channel.code)
            assert abs(d) < 1e-8 * (1.0 + abs(k))

    def test_negative_window_count_fails_loudly(self):
        # the window winding of this deep wide well once read -5, on a walk
        # refined by the sampled argument step alone; refined by |d'/d| too
        # it reads the 59 poles the curves deliver. The failure path stays
        # covered by test_forced_negative_window_count_fails_loudly
        chart = build_chart(PotentialSpec(m=1.0, a=5.0, U=30.0), Channel.PLUS)
        assert chart.topology == {"closed_4pi": 12, "open": 1}
        cert = chart.completeness
        assert (cert["window_count"], cert["trajectory_count"], cert["complete"]) == (59, 59, True)
        assert chart.warnings == []
        doc = parse_chart_document(canonical_dumps(chart_document(chart)))
        assert doc["completeness"]["window_count"] == 59

    def test_phase_guard_fails_loudly(self, monkeypatch):
        # at 8 pi from its seed the open curve of this c = 30 well is still
        # inside the trace window: it needs about 1.5*c*pi to leave it
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 8 * math.pi)
        chart = build_chart(PotentialSpec(m=1.0, a=1.5, U=200.0), Channel.PLUS)
        runaway = [t for t in chart.trajectories if t.closure.reason is ExitReason.ALPHA_CAP]
        assert len(runaway) == 1
        assert chart.completeness["complete"] is False
        guarded = [w.message for w in chart.warnings if w.code == "phase_guard"]
        seed = runaway[0].seed
        assert guarded == [f"curve from k={seed.k!r} at alpha={seed.coupling.alpha!r} "
                           f"reached the phase guard inside the trace window"]
        text = canonical_dumps(chart_document(chart))
        doc = parse_chart_document(text)
        assert canonical_dumps(doc) == text
        assert doc["completeness"]["complete"] is False
        assert [w["code"] for w in doc["warnings"]] == ["phase_guard"]

    def test_certificate_walks_half_the_window(self, monkeypatch):
        # the window is symmetric about the imaginary axis and the coupling
        # real, so the count walks only its right half: 17 + 33 + 17 samples
        # from Re q = 0 on the bottom edge to Re q = 0 on the top edge
        chart = build_chart(PotentialSpec(m=1.0, a=1.5, U=2.0), Channel.PLUS, certify=False)
        grids = []
        grid = _k.grid_denom_dk

        def counted(ks, *args):
            grids.append(list(ks))
            return grid(ks, *args)

        monkeypatch.setattr(_k, "grid_denom_dk", counted)
        assert chart_module._certify(chart)["complete"]
        assert [len(ks) for ks in grids] == [17, 33, 17]
        assert min(k.real for ks in grids for k in ks) == 0.0

    def test_forced_negative_window_count_fails_loudly(self, monkeypatch):
        # the failure path itself, on a chart whose true count is sound
        monkeypatch.setattr(chart_module, "count_zeros_padded", lambda *rectangle: -3)
        chart = build_chart(PotentialSpec(m=M, a=A, U=2.0), Channel.PLUS)
        cert = chart.completeness
        assert cert["window_count"] is None
        assert cert["complete"] is False
        failed = [w.message for w in chart.warnings if w.code == "count_failed"]
        assert failed == ["window contour count -3 is negative: the sampled winding aliased"]
        doc = parse_chart_document(canonical_dumps(chart_document(chart)))
        assert doc["completeness"]["window_count"] is None
        assert doc["completeness"]["complete"] is False

    def test_grazing_zero_is_named_at_its_k(self, monkeypatch):
        # the walk runs in q and raises at q = 3i; the warning names k = q/a
        def grazing(re_max, im_lo, im_hi, s, channel):
            raise EdgeTooClose(3j)

        monkeypatch.setattr(chart_module, "count_zeros_padded", grazing)
        chart = build_chart(PotentialSpec(m=M, a=A, U=2.0), Channel.PLUS)
        assert chart.completeness["window_count"] is None
        failed = [w.message for w in chart.warnings if w.code == "count_failed"]
        assert failed == [f"window contour count failed near k={3j / A!r}: "
                          f"zero too close to contour near 3j"]

    def test_zero_depth_trivial(self):
        chart = build_chart(PotentialSpec(m=M, a=A, U=0.0), Channel.PLUS)
        assert chart.topology == {}
        assert chart.completeness["complete"]
        # the certificate has the keys of every other chart, with no poles
        assert set(chart.completeness) == set(_chart("plus", 1.0).completeness)
        assert (chart.completeness["window_count"], chart.completeness["trajectory_count"],
                chart.completeness["inventory"]) == (0, 0, [])


class TestChartMirrorSymmetry:
    @pytest.mark.parametrize("channel,U", [
        ("plus", 0.09), ("plus", 2.0), ("minus", 5.0),
    ])
    def test_sample_defect(self, channel, U):
        chart = _chart(channel, U)
        for traj in chart.trajectories:
            assert mirror_defect(traj, chart.spec) < 1e-8

    @pytest.mark.parametrize("channel", ["plus", "minus"])
    def test_anchor_phases_on_the_sampled_grid(self, channel):
        # an anchor n is sampled at exactly n*(pi/2), on the mirrored side
        # of a seed at pi and of a half-turn too
        for U in (0.03, 0.09, 0.3, 2.0, 5.0, 12.0):
            for traj in _chart(channel, U).trajectories:
                sampled = set(traj.alphas)
                for n, _ in traj.anchors:
                    assert n * (math.pi / 2) in sampled

    def test_anchor_sets_closed_under_reflection(self):
        chart = _chart("plus", 2.0)
        for cls in (0, 2):
            ks = chart.anchor_poles(cls)
            for k in ks:
                km = -k.conjugate()
                assert min(abs(km - q) for q in ks) < 1e-8


class TestCriticalDepths:
    def test_even_repulsive(self):
        cd = critical_depth(Channel.PLUS, attractive=False, m=M, a=A)
        assert abs(cd.U - U_STAR_PLUS_REP) < 1e-8
        assert cd.pair_count == 2
        assert cd.k == -1j / A
        with pytest.raises(NoRootInBracket):
            critical_depth(Channel.PLUS, attractive=False, m=M, a=A, index=2)

    def test_even_attractive(self):
        cd = critical_depth(Channel.PLUS, attractive=True, m=M, a=A)
        assert abs(cd.U - U_STAR_PLUS_ATT) < 1e-8
        assert cd.pair_count == 2

    def test_odd_attractive(self):
        cd = critical_depth(Channel.MINUS, attractive=True, m=M, a=A)
        assert abs(cd.U - U_STAR_MINUS_ATT) < 1e-8
        assert cd.pair_count == 2

    def test_depths_inside_expected_brackets(self):
        assert 0.09 < critical_depth(Channel.PLUS, False, M, A).U < 0.1
        assert 1.95 < critical_depth(Channel.PLUS, True, M, A).U < 2.0
        assert 4.7 < critical_depth(Channel.MINUS, True, M, A).U < 4.8

    def test_second_even_attractive_depth(self):
        cd = critical_depth(Channel.PLUS, attractive=True, m=M, a=A, index=2)
        assert abs(cd.U - _u_star_plus_att(2)) < 1e-8
        assert cd.pair_count == 2

    def test_odd_repulsive_has_none(self):
        with pytest.raises(NoRootInBracket):
            critical_depth(Channel.MINUS, attractive=False, m=M, a=A)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            critical_depth(Channel.PLUS, True, M, A, index=0)

    def test_failed_pair_count_is_none(self, monkeypatch):
        def edge_too_close(re_max, im_lo, im_hi, s, channel):
            raise EdgeTooClose(complex(-re_max, im_lo))

        monkeypatch.setattr(rootfinder, "count_zeros_padded", edge_too_close)
        cd = critical_depth(Channel.PLUS, attractive=True, m=M, a=A)
        assert cd.pair_count is None
        assert abs(cd.U - U_STAR_PLUS_ATT) < 1e-8

    def test_odd_simple_crossing_not_counted(self):
        # the odd channel passes k = -i/a with a plain simple zero at
        # U = 1/(2 m a^2); it must not appear as a collision
        u_crossing = 1.0 / (2 * M * A * A)
        cd = critical_depth(Channel.MINUS, attractive=True, m=M, a=A, index=1)
        assert cd.U > u_crossing + 1.0

    def test_transitions_match_inventories(self):
        # below the even attractive collision the pair floats in the plane
        # (U=1.95 inventory), above it sits on the axis (U=2.0 inventory)
        cd = critical_depth(Channel.PLUS, attractive=True, m=M, a=A)
        assert cd.transition == "plane_to_axis"
        cd_rep = critical_depth(Channel.PLUS, attractive=False, m=M, a=A)
        assert cd_rep.transition == "axis_to_plane"

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        case=st.sampled_from([
            (Channel.PLUS, True, (1, 2, 3)),
            (Channel.MINUS, True, (1, 2, 3)),
            (Channel.PLUS, False, (1,)),
        ]),
    )
    def test_depths_solve_the_collision_conditions(self, m, a, case):
        # a pair collision is D = D_q = 0 at q = ka = -i; since
        # dD/dU = D_alpha/(iU), |D|/|D_alpha| is the relative depth error to
        # first order, and |D_q|/|D_alpha| the slope's
        channel, attractive, indices = case
        gamma = 1.0 + 0.0j if attractive else -1.0 + 0.0j
        depths = []
        for index in indices:
            cd = critical_depth(channel, attractive, m, a, index)
            c = PotentialSpec(m, a, cd.U).c
            d, dk, da, _ = _k.denom_scaled(-1j, c * c * gamma, channel.code)
            assert abs(d) < 1e-10 * abs(da)
            assert abs(dk) < 1e-10 * abs(da)
            assert cd.pair_count == 2
            depths.append(cd.U)
        assert all(lo < hi for lo, hi in zip(depths, depths[1:]))

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        case=st.sampled_from(
            [(ch, True, i) for ch in (Channel.PLUS, Channel.MINUS) for i in (1, 2, 3)]
            + [(Channel.PLUS, False, 1)]
        ),
    )
    def test_label_names_the_axis_side(self, m, a, case):
        # the split pair lies within 0.35/a of -i/a at U*(1 +- 1e-3) for
        # indices up to 3; every other axis pole is beyond 3.7/a
        channel, attractive, index = case
        cd = critical_depth(channel, attractive, m, a, index)
        coupling = ComplexCoupling(0.0 if attractive else math.pi)
        below, above = (
            sum(abs(p.k - cd.k) < 1.0 / a
                for p in scan_axis(PotentialSpec(m=m, a=a, U=cd.U * f), coupling, channel))
            for f in (1.0 - 1e-3, 1.0 + 1e-3)
        )
        assert (below, above) == ((0, 2) if cd.transition == "plane_to_axis" else (2, 0))

    def test_no_scalar_kernel_calls(self, monkeypatch):
        # the depth is closed-form; only the pair count touches the kernel,
        # on one grid per edge of its half walk (the box about q = -i is
        # symmetric and the coupling real), and only on the first request
        # for each collision: a repeat, in any well, reads the cached count
        calls = Counter()
        for name in ("denom_plain", "denom_scaled", "grid_denom_dk"):
            def counted(*args, _name=name, _kernel=getattr(_k, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(_k, name, counted)
        cases = [(Channel.PLUS, True), (Channel.MINUS, True), (Channel.PLUS, False)]
        for channel, attractive in cases:
            critical_depth(channel, attractive, m=M, a=A)
        assert calls["denom_plain"] == 0
        assert calls["denom_scaled"] == 0
        assert calls["grid_denom_dk"] == 3 * len(cases)
        for channel, attractive in cases:
            assert critical_depth(channel, attractive, m=M, a=A).pair_count == 2
            assert critical_depth(channel, attractive, m=0.3, a=40.0).pair_count == 2
        assert calls == {"grid_denom_dk": 3 * len(cases)}


# (m, a) that no PotentialSpec takes, with its message
_BAD_WELLS = [
    (-1.0, 1.0, "mass must be positive and finite, got -1.0"),
    (0.0, A, "mass must be positive and finite, got 0.0"),
    (math.nan, A, "mass must be positive and finite, got nan"),
    (M, 0.0, "half-width must be positive and finite, got 0.0"),
    (M, math.inf, "half-width must be positive and finite, got inf"),
]


@pytest.mark.parametrize("m,a,message", _BAD_WELLS)
@pytest.mark.parametrize("call", [
    lambda m, a: bound_threshold(Channel.PLUS, 1, m=m, a=a),
    lambda m, a: bound_threshold(Channel.MINUS, 1, m=m, a=a),
    lambda m, a: critical_depth(Channel.PLUS, True, m=m, a=a),
    lambda m, a: critical_depth(Channel.PLUS, False, m=m, a=a),
    lambda m, a: critical_depth(Channel.MINUS, True, m=m, a=a),
    lambda m, a: PotentialSpec(m=m, a=a),
    lambda m, a: rootfinder.count_step_depth(Channel.PLUS, 0, m=m, a=a),
    lambda m, a: rootfinder.count_step_depth(Channel.MINUS, 2, m=m, a=a),
    lambda m, a: rootfinder.collision_depth(Channel.PLUS, True, m, a, 1),
    lambda m, a: rootfinder.collision_depth(Channel.PLUS, False, m, a, 1),
    lambda m, a: rootfinder.collisions_between(Channel.PLUS, m, a, 0.0, 10.0),
    lambda m, a: rootfinder.collisions_between(Channel.MINUS, m, a, 0.0, 10.0),
], ids=["threshold_plus", "threshold_minus", "critical_plus", "critical_plus_rep",
        "critical_minus", "spec", "step_plus", "step_minus", "collision_att",
        "collision_rep", "between_plus", "between_minus"])
def test_closed_forms_refuse_a_well_no_spec_takes(call, m, a, message):
    # a negative mass once gave a negative threshold, and a zero mass or
    # width a ZeroDivisionError; each now raises PotentialSpec's message.
    # collisions_between once walked without end at a negative, nan or
    # zero-width well, where no U* rises past the band
    with pytest.raises(ValueError) as exc:
        call(m, a)
    assert str(exc.value) == message


@pytest.mark.parametrize("a", [1e-200, 1e-160])
@pytest.mark.parametrize("call", [
    lambda a: bound_threshold(Channel.PLUS, 1, m=1.0, a=a),
    lambda a: bound_threshold(Channel.MINUS, 1, m=1.0, a=a),
    lambda a: rootfinder.count_step_depth(Channel.PLUS, 0, m=1.0, a=a),
    lambda a: rootfinder.count_step_depth(Channel.MINUS, 0, m=1.0, a=a),
    lambda a: critical_depth(Channel.PLUS, True, m=1.0, a=a),
    lambda a: critical_depth(Channel.PLUS, False, m=1.0, a=a),
], ids=["threshold_plus", "threshold_minus", "step_plus", "step_minus", "critical_att",
        "critical_rep"])
def test_closed_forms_refuse_a_depth_past_the_floats(call, a):
    # 2 m a^2 underflows to 0 at a = 1e-200 (a ZeroDivisionError once) and
    # to 2e-320 at a = 1e-160 (an infinite threshold once reached the writer)
    with pytest.raises(ValueError, match=f"is not finite at m=1.0, a={a}$"):
        call(a)


def test_collisions_past_the_floats():
    with pytest.raises(ValueError, match="underflows to 0 at m=1.0, a=1e-200"):
        rootfinder.collisions_between(Channel.PLUS, 1.0, 1e-200, 0.0, 1.0)
    # at a = 1e-160 every U* overflows, so no band holds one, and the walk
    # ends even where the band does not
    for channel in (Channel.PLUS, Channel.MINUS):
        assert rootfinder.collisions_between(channel, 1.0, 1e-160, 0.0, math.inf) == []
    # at a = 1e-150 the walk stops at the first U* past the float range
    hits = rootfinder.collisions_between(Channel.MINUS, 1.0, 1e-150, 0.0, math.inf)
    assert hits == [(True, i, rootfinder.collision_depth(Channel.MINUS, True, 1.0, 1e-150, i))
                    for i in range(1, len(hits) + 1)]
    with pytest.raises(ValueError, match="is not finite"):
        rootfinder.collision_depth(Channel.MINUS, True, 1.0, 1e-150, len(hits) + 1)


class TestThresholds:
    def test_odd_closed_form(self):
        assert bound_threshold(Channel.MINUS, 1, M, A) == pytest.approx(
            math.pi ** 2 / (8 * M * A * A), abs=1e-15
        )
        assert bound_threshold(Channel.MINUS, 2, M, A) == pytest.approx(
            9 * math.pi ** 2 / (8 * M * A * A), abs=1e-14
        )

    def test_even_closed_form(self):
        assert bound_threshold(Channel.PLUS, 1, M, A) == pytest.approx(
            math.pi ** 2 / (2 * M * A * A), abs=1e-15
        )

    def test_flip_matches_odd_threshold(self):
        flip = threshold_flip(Channel.MINUS, 0.4, 0.7, M, A, tol=1e-6)
        assert abs(flip - bound_threshold(Channel.MINUS, 1, M, A)) < 1e-4

    def test_flip_matches_even_threshold(self):
        flip = threshold_flip(Channel.PLUS, 2.0, 2.4, M, A, tol=1e-6)
        assert abs(flip - bound_threshold(Channel.PLUS, 1, M, A)) < 1e-4

    def test_flip_needs_a_change(self):
        with pytest.raises(NoRootInBracket):
            threshold_flip(Channel.MINUS, 0.1, 0.2, M, A)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            bound_threshold(Channel.PLUS, 0)

    @pytest.mark.parametrize("tol,u_lo,u_hi", [
        (0.0, 2.0, 2.4), (-1e-6, 2.0, 2.4), (math.nan, 2.0, 2.4),
        (1e-6, 2.4, 2.0), (1e-6, 2.0, 2.0), (1e-6, math.nan, 2.4),
    ])
    def test_flip_arguments_validated(self, tol, u_lo, u_hi):
        with pytest.raises(ValueError):
            threshold_flip(Channel.PLUS, u_lo, u_hi, M, A, tol=tol)


def _scanned_bound(spec, channel):
    """The BOUND poles of scan_axis, a count that does not rest on bound_count."""
    poles = scan_axis(spec, ComplexCoupling(0.0), channel)
    return sum(p.kind is PoleKind.BOUND for p in poles)


def _scan_bisection(channel, u_lo, u_hi, m, a, tol):
    """threshold_flip's answer from a scan at every midpoint; like the
    flip, it stops once no midpoint lies strictly inside the bracket."""
    def count(u):
        return _scanned_bound(PotentialSpec(m=m, a=a, U=u), channel)

    n_lo = count(u_lo)
    while u_hi - u_lo > tol:
        mid = 0.5 * (u_lo + u_hi)
        if not u_lo < mid < u_hi:
            break
        if count(mid) == n_lo:
            u_lo = mid
        else:
            u_hi = mid
    return 0.5 * (u_lo + u_hi)


def _count_scans(monkeypatch, limit=200):
    """Count chart-level bound_count calls; raise past limit, so a halving
    that never ends fails instead of hanging."""
    calls = []
    real_count = chart_module.bound_count

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} bound_count calls")
        return real_count(*args, **kwargs)

    monkeypatch.setattr(chart_module, "bound_count", counted)
    return calls


def _count_solves(monkeypatch):
    """Record every axis-root solve of ``rootfinder._bracketed_newton`` from
    here on. ``collision_x`` solves each collision point once per process,
    so a test scans its well before it counts."""
    calls = []
    real_solve = rootfinder._bracketed_newton

    def counted(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(rootfinder, "_bracketed_newton", counted)
    return calls


def _threshold_x(channel, n):
    """bound_count's threshold point of the cell holding state n + 1 (even,
    n >= 0) or state n (odd, n >= 1): n*pi or (n - 1/2)*pi."""
    return n * math.pi if channel is Channel.PLUS else (n - 0.5) * math.pi


def _depth_of(c, m, a):
    """The depth at which a*sqrt(2 m U) = c."""
    return (c / a) ** 2 / (2.0 * m)


def _nudged(u, ulps):
    for _ in range(abs(ulps)):
        u = math.nextafter(u, math.inf if ulps > 0 else 0.0)
    return u


_WELL = dict(m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
             channel=st.sampled_from([Channel.PLUS, Channel.MINUS]))


# the axis ratios x/|cos x|, x/|sin x| (real K) and y/cosh y, y/sinh y
# (imaginary K), the last two in exp(-y) form so that they never overflow:
# the oracle for the decisions that rootfinder reads off closed forms and
# the cells' own forms (TestRatioDecisions), each with the condition number
# |d ln ratio / d ln x| that scales its rounding
def _x_sec(x):
    return x / abs(math.cos(x))


def _x_csc(x):
    return x / abs(math.sin(x)) if x else 1.0


def _y_sech(y):
    e = math.exp(-y)
    return 2.0 * y * e / (1.0 + e * e)


def _y_csch(y):
    return 2.0 * y * math.exp(-y) / -math.expm1(-2.0 * y) if y else 1.0


_CONDITION = {
    _x_sec: lambda x: abs(1.0 + x * math.tan(x)),
    _x_csc: lambda x: abs(1.0 - x / math.tan(x)),
    _y_sech: lambda y: abs(1.0 - y * math.tanh(y)),
    _y_csch: lambda y: abs(1.0 - y / math.tanh(y)),
}


class TestBoundCount:
    """bound_count counts, from the axis roots alone, the poles that
    scan_axis classifies as bound."""

    def test_chart_uses_the_rootfinder_count(self):
        import wellpoles

        assert wellpoles.chart.bound_count is wellpoles.rootfinder.bound_count

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        log_U=st.floats(math.log(1e-3), math.log(300.0)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_bound_kinds_of_the_scan(self, m, a, log_U, channel):
        spec = PotentialSpec(m=m, a=a, U=math.exp(log_U))
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        n=st.integers(1, 4), visible=st.booleans(), ulps=st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_bound_kinds_next_to_a_threshold(self, m, a, channel, n, visible, ulps):
        # a few float spacings from the closed-form threshold, where the
        # entering pole sits inside the classifier's threshold band, or from
        # the depth where it leaves the band (a*kappa = TOL_AXIS)
        u = bound_threshold(channel, n, m, a)
        if visible:
            u += TOL_AXIS / (m * a * a)
        for _ in range(abs(ulps)):
            u = math.nextafter(u, math.inf if ulps > 0 else 0.0)
        spec = PotentialSpec(m=m, a=a, U=u)
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @pytest.mark.parametrize("channel,U,scan_solves,bound,count_solves", [
        # c = 6.36: a root in [0, pi/2] and a pair in each of the next two
        # cells, whose lower roots are virtual; every upper root lies above
        # its cell's threshold point by more than _THRESHOLD_DX
        (Channel.PLUS, 9.0, 5, 3, 0),
        # c = 0.67 < 1: one root, in the y/sinh y cell, virtual
        (Channel.MINUS, 0.1, 1, 0, 0),
    ])
    def test_solves_no_root_its_cell_places_below_zero(
            self, monkeypatch, channel, U, scan_solves, bound, count_solves):
        spec = PotentialSpec(m=M, a=A, U=U)
        assert _scanned_bound(spec, channel) == bound
        calls = _count_solves(monkeypatch)
        assert bound_count(spec, channel) == bound
        assert len(calls) == count_solves
        calls.clear()
        assert _scanned_bound(spec, channel) == bound
        assert len(calls) == scan_solves

    @pytest.mark.parametrize("channel,n", [
        (Channel.PLUS, 1), (Channel.PLUS, 2), (Channel.MINUS, 1), (Channel.MINUS, 2),
    ])
    @pytest.mark.parametrize("visible", [False, True])
    def test_solves_one_root_next_to_a_threshold(self, monkeypatch, channel, n, visible):
        # at the closed-form threshold, with the new state inside the
        # threshold band, and just past where it leaves the band, the top
        # cell's upper root lies within _THRESHOLD_DX of its threshold
        # point: that root alone is solved, and every other cell is placed
        u = bound_threshold(channel, n, M, A)
        if visible:
            u += 2.0 * TOL_AXIS / (M * A * A)
        # the even channel's first state binds from U = 0
        bound = n - (channel is Channel.MINUS) + visible
        spec = PotentialSpec(m=M, a=A, U=u)
        assert _scanned_bound(spec, channel) == bound
        calls = _count_solves(monkeypatch)
        assert bound_count(spec, channel) == bound
        assert len(calls) == 1

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    @pytest.mark.parametrize("n", [40, 100])
    @pytest.mark.parametrize("visible", [False, True])
    def test_reach_below_the_collision_point(self, monkeypatch, channel, n, visible):
        # from n ~ 1/(pi dx) on, x_n - dx lies below the cell's collision
        # point, on the falling branch, where ratio > c says nothing about
        # the rising-branch root: the top cell is solved
        u = bound_threshold(channel, n, M, A)
        if visible:
            u += 2.0 * TOL_AXIS / (M * A * A)
        x_n = math.sqrt(2.0 * M * u) * A
        xc = rootfinder.collision_x(channel, True, n if channel is Channel.PLUS else n - 1)
        assert x_n - rootfinder._THRESHOLD_DX < xc < x_n
        bound = n - (channel is Channel.MINUS) + visible
        spec = PotentialSpec(m=M, a=A, U=u)
        assert _scanned_bound(spec, channel) == bound
        calls = _count_solves(monkeypatch)
        assert bound_count(spec, channel) == bound
        assert len(calls) == 1

    @given(**_WELL, n=st.integers(0, 4), side=st.sampled_from([-1, 1]),
           ulps=st.integers(-4, 4))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_scan_on_the_decision_boundary(self, m, a, channel, n, side, ulps):
        # ratio(x_n -/+ dx) = c to a few float spacings in U: the cell is
        # placed on one side of the boundary and solved on the other
        assume(channel is Channel.PLUS or n >= 1)
        assume(side > 0 or n >= 1)
        x = _threshold_x(channel, n) + side * rootfinder._THRESHOLD_DX
        ratio = _x_sec if channel is Channel.PLUS else _x_csc
        spec = PotentialSpec(m=m, a=a, U=_nudged(_depth_of(ratio(x), m, a), ulps))
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @given(**_WELL, log_U=st.floats(math.log(1e-9), math.log(1e-2)))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scan_in_the_first_even_cell(self, m, a, channel, log_U):
        # the even channel's first state binds from U = 0; until
        # ratio(dx) < c its root sits within dx of x = 0 and is solved
        spec = PotentialSpec(m=m, a=a, U=math.exp(log_U))
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @given(**_WELL, index=st.integers(1, 4), ulps=st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scan_at_collision_depths(self, m, a, channel, index, ulps):
        # at an attractive collision depth the cell's pair lies in its pair
        # ball, a coalesced pair at kappa = -1/a that is not bound
        u = rootfinder.collision_depth(channel, True, m, a, index)
        spec = PotentialSpec(m=m, a=a, U=_nudged(u, ulps))
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @given(**_WELL, log_U=st.floats(math.log(1e-3), math.log(300.0)),
           n=st.integers(1, 4), near=st.booleans(), ulps=st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_no_count_rests_on_the_reach(self, m, a, channel, log_U, n, near, ulps):
        # a hundredth of the reach places fewer cells and solves more, and
        # counts the same, in the box and next to a threshold
        u = math.exp(log_U)
        if near:
            u = _nudged(bound_threshold(channel, n, m, a) + TOL_AXIS / (m * a * a), ulps)
        spec = PotentialSpec(m=m, a=a, U=u)
        count = bound_count(spec, channel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootfinder, "_THRESHOLD_DX", rootfinder._THRESHOLD_DX / 100)
            assert bound_count(spec, channel) == count
        assert count == _scanned_bound(spec, channel)

    @pytest.mark.parametrize("channel,n,a", [(Channel.PLUS, 0, 1e6), (Channel.MINUS, 1, 1e9)])
    def test_margin_solves_a_root_in_the_threshold_band(self, monkeypatch, channel, n, a):
        # TOL_AXIS bounds a*kappa, so at any width a root at x_n + 2 dx has
        # a*kappa >= 4e-4, far out of the threshold band: the cell counts it
        # bound without a solve, as the scan does. Read in k, TOL_AXIS once
        # made these roots thresholds (a*kappa = 0.03 at a = 1e9)
        x = _threshold_x(channel, n) + 2.0 * rootfinder._THRESHOLD_DX
        ratio = _x_sec if channel is Channel.PLUS else _x_csc
        spec = PotentialSpec(m=1.0, a=a, U=_depth_of(ratio(x), 1.0, a))
        assert _scanned_bound(spec, channel) == 1
        calls = _count_solves(monkeypatch)
        assert bound_count(spec, channel) == 1
        assert len(calls) == 0


def _clear_of(c, value, spacings=4.0):
    """Whether c lies more than `spacings` float spacings of c from value."""
    return abs(c - value) > spacings * math.ulp(c)


def _ratio_clear(c, ratio, x):
    """Whether c lies clear of ratio(x) by more than the ratio's own
    rounding: four float spacings times its condition number at x."""
    return _clear_of(c, ratio(x), 4.0 * max(1.0, _CONDITION[ratio](x)))


class TestRatioDecisions:
    """Each decision that rootfinder once took by comparing an axis ratio
    with c, and now reads off a closed form or a cell's form, agrees with
    that comparison wherever c lies more than a few float spacings from the
    ratio's value: which collision cells hold roots or a coalesced pair
    (``_cell_roots``), which cells ``bound_count`` places, what
    ``multiplicity_at`` reads at q = -i and where an imaginary-K cell ends.
    Depths are drawn a few float spacings from thresholds, collision
    depths and the decisions' own boundaries, with c up to C_LIMIT."""

    @staticmethod
    def _ratio(odd, attractive):
        """The ratio of the cells that hold a collision point."""
        return (_x_csc if odd else _x_sec) if attractive else _y_sech

    @pytest.mark.parametrize("site", ["threshold", "collision", "step_up", "step_down",
                                      "ball_above", "ball_below", "anywhere"])
    @pytest.mark.parametrize("wide", [False, True])
    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]), attractive=st.booleans(),
        near=st.integers(1, 6), far=st.integers(7, 3180), ulps=st.integers(-3, 3),
        t=st.floats(-1.0, 1.0), log_c=st.floats(math.log(1e-6), math.log(C_LIMIT)),
    )
    @settings(max_examples=12, deadline=None)
    def test_agree_with_the_ratios(self, site, wide, m, a, channel, attractive, near, far,
                                   ulps, t, log_c):
        # the far index puts c up to C_LIMIT, with as many cells as pi c; a
        # decision's boundary value is approached within t times four times
        # the band that the checks leave out about it
        index = far if wide else near
        odd = channel is Channel.MINUS
        assume(attractive or not odd or site in ("threshold", "step_up", "step_down", "anywhere"))
        ball = rootfinder._PAIR_BALL
        if site == "threshold":
            u = _nudged(bound_threshold(channel, index, m, a), ulps)
        elif site == "collision":
            u = _nudged(rootfinder.collision_depth(
                channel, attractive, m, a, index if attractive else 1), ulps)
        elif site.startswith("step"):
            ratio = _x_csc if odd else _x_sec
            x = rootfinder._threshold_x(odd, index) + (
                rootfinder._THRESHOLD_DX if site == "step_up" else -rootfinder._THRESHOLD_DX)
            band = 16.0 * max(1.0, _CONDITION[ratio](x)) * math.ulp(ratio(x))
            u = _depth_of(ratio(x) + t * band, m, a)
        elif site.startswith("ball"):
            xc = rootfinder.collision_x(channel, attractive, index if attractive else 1)
            rc = self._ratio(odd, attractive)(xc)
            edge = rc * (1.0 + (0.5 if site == "ball_above" else -0.5) * ball * ball)
            u = _depth_of(edge + t * 32.0 * math.ulp(edge), m, a)
        else:
            u = _depth_of(math.exp(log_c), m, a)
        try:
            spec = PotentialSpec(m=m, a=a, U=u)
        except ValueError:  # c past C_LIMIT
            assume(False)
        c = spec.c
        assume(c > 0.0)
        coupling = ComplexCoupling(0.0 if attractive else math.pi)
        s = c * c if attractive else -c * c
        cells = rootfinder._axis_cells(c, attractive, odd)

        # a collision cell's roots: a coalesced pair in the pair ball, else
        # two roots where ratio(x_c) and ratio(lo) lie on either side of c
        coalesced = False
        ratio = self._ratio(odd, attractive)
        for cell in cells:
            _, _, lo, xc, hi = cell
            if xc is None:
                continue
            rc = ratio(xc)
            edges = (rc * (1.0 - 0.5 * ball * ball), rc * (1.0 + 0.5 * ball * ball))
            if not all(_clear_of(c, edge, 8.0) for edge in edges):
                coalesced = None
                continue
            if math.sqrt(2.0 * abs(rc - c) / rc) < ball:
                expected = "pair"
                coalesced = coalesced if coalesced is None else True
            elif (rc > c) != (ratio(lo) > c):
                expected = "roots"
            else:
                expected = "none"
            first = next(rootfinder._cell_roots(cell, c, s, channel.code), None)
            got = "none" if first is None else "pair" if first == (-1.0, 2) else "roots"
            assert got == expected, (lo, xc, hi)

        # multiplicity at q = -i: 2 exactly where a cell's pair is coalesced
        if coalesced is not None:
            assert rootfinder.multiplicity_at(-1j / a, coupling, spec, channel) == (
                2 if coalesced else 1)

        # the imaginary-K cell ends at the first doubling where the ratio
        # falls below c
        if cells and cells[0][1] in (rootfinder._neg_y_tanh, rootfinder._neg_y_coth):
            ratio, end = (_y_sech, 2.0 * cells[0][3]) if not attractive else (_y_csch, 1.0)
            ends = [end]
            while ratio(ends[-1]) >= c:
                ends.append(2.0 * ends[-1])
            if all(_ratio_clear(c, ratio, y) for y in ends):
                assert cells[0][4] == ends[-1]

        # bound_count solves exactly the real-K cells whose ratio at
        # x_n -/+ dx places them on neither side of c
        if not attractive:
            return
        solved = []
        real_cell_roots = rootfinder._cell_roots

        def recorded(cell, *args):
            solved.append(cell[2])
            return real_cell_roots(cell, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rootfinder, "_cell_roots", recorded)
            bound_count(spec, channel)
        dx = rootfinder._THRESHOLD_DX
        ratio = _x_csc if odd else _x_sec
        expected, unclear = set(), set()
        for n, (_, a_kappa, lo, xc, _) in enumerate(cells):
            if a_kappa is rootfinder._neg_y_coth:
                continue
            x_n = rootfinder._threshold_x(odd, n)
            floor = lo if xc is None else xc
            checked = [x_n + dx] + ([x_n - dx] if x_n - dx > floor else [])
            if not all(_ratio_clear(c, ratio, x) for x in checked):
                unclear.add(lo)
            elif not (ratio(x_n + dx) < c or (x_n - dx > floor and ratio(x_n - dx) > c)):
                expected.add(lo)
        assert set(solved) - unclear == expected


class TestSteeredFlip:
    """threshold_flip halves by the closed-form threshold and certifies
    only its final bracket, with the scan-driven halving as fallback."""

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        n=st.integers(1, 8),
        below=st.floats(0.05, 0.999), above=st.floats(0.001, 1.5),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_scan_driven_bisection(self, m, a, channel, n, below, above, tol):
        # the bracket holds threshold n and, when above >= 1, threshold n + 1
        prev = bound_threshold(channel, n - 1, m, a) if n > 1 else 0.0
        u_n = bound_threshold(channel, n, m, a)
        u_next = bound_threshold(channel, n + 1, m, a)
        u_lo = prev + below * (u_n - prev)
        u_hi = u_n + above * (u_next - u_n)
        flip = threshold_flip(channel, u_lo, u_hi, m, a, tol=tol)
        assert repr(flip) == repr(_scan_bisection(channel, u_lo, u_hi, m, a, tol))

    def test_wrong_steer_falls_back(self, monkeypatch):
        # a guess off the true threshold fails the final bracket's
        # certificate, and the scan-driven halving gives the answer
        real_steer = chart_module.count_step_depth
        monkeypatch.setattr(chart_module, "count_step_depth",
                            lambda *args: 1.01 * real_steer(*args))
        calls = _count_scans(monkeypatch)
        for channel, u_lo, u_hi in ((Channel.PLUS, 2.0, 2.4), (Channel.MINUS, 0.4, 0.7)):
            calls.clear()
            flip = threshold_flip(channel, u_lo, u_hi, M, A, tol=1e-6)
            assert repr(flip) == repr(_scan_bisection(channel, u_lo, u_hi, M, A, 1e-6))
            assert len(calls) > 4

    @pytest.mark.parametrize("channel,u_lo,u_hi", [
        (Channel.MINUS, 0.4, 0.7), (Channel.PLUS, 2.0, 2.4),
    ])
    def test_at_most_four_scans(self, monkeypatch, channel, u_lo, u_hi):
        # two at the ends of the bracket, two on the final bracket
        calls = _count_scans(monkeypatch)
        threshold_flip(channel, u_lo, u_hi, M, A, tol=1e-6)
        assert len(calls) <= 4

    @pytest.mark.parametrize("channel,n", [
        (Channel.PLUS, 1), (Channel.PLUS, 2), (Channel.MINUS, 1), (Channel.MINUS, 2),
    ])
    def test_centred_bracket_steers_to_the_threshold(self, monkeypatch, channel, n):
        # the bracket of the bench's depth panel has its first midpoint on
        # the threshold itself, where the scan still counts n_lo
        u_n = bound_threshold(channel, n, M, A)
        span = max(0.2 * u_n, 0.05)
        calls = _count_scans(monkeypatch)
        flip = threshold_flip(channel, u_n - span, u_n + span, M, A, tol=1e-6)
        assert len(calls) == 4
        assert abs(flip - u_n) < 1e-6

    @pytest.mark.parametrize("channel,n", [
        (Channel.PLUS, 1), (Channel.PLUS, 2), (Channel.MINUS, 1), (Channel.MINUS, 2),
    ])
    def test_first_midpoint_just_above_the_threshold(self, monkeypatch, channel, n):
        # one float above u_n the entering pole still lies in the threshold
        # band (|k| < TOL_AXIS), so the scan counts n_lo there; steering by
        # u_n itself sent that midpoint above and failed the certificate
        u_n = bound_threshold(channel, n, M, A)
        mid = math.nextafter(u_n, math.inf)
        span = 0.25 * u_n
        u_lo, u_hi = mid - span, mid + span
        assert 0.5 * (u_lo + u_hi) == mid
        calls = _count_scans(monkeypatch)
        flip = threshold_flip(channel, u_lo, u_hi, M, A, tol=1e-6)
        assert len(calls) == 4
        assert repr(flip) == repr(_scan_bisection(channel, u_lo, u_hi, M, A, 1e-6))

    @pytest.mark.parametrize("m,a,u_lo,u_hi,tol", [
        (1.0, 1.5, 1e-12, 1e-6, 1e-12),
        (0.7, 2.3, 1e-12, 1e-3, 1e-14),
        (3.0, 0.8, 1e-10, 0.5, 1e-13),
    ])
    def test_first_even_state_steered(self, monkeypatch, m, a, u_lo, u_hi, tol):
        # the even channel's first bound state enters at U = 0 and shows
        # at kappa = TOL_AXIS, U ~ TOL_AXIS/(2 m a); steered to the first
        # closed-form threshold instead, these flips failed the certificate
        # and took 23, 40 and 46 counts
        calls = _count_scans(monkeypatch)
        flip = threshold_flip(Channel.PLUS, u_lo, u_hi, m, a, tol=tol)
        assert len(calls) == 4

        def scanned(u):
            return _scanned_bound(PotentialSpec(m=m, a=a, U=u), Channel.PLUS)

        n_lo = scanned(u_lo)
        lo, hi = chart_module._bisect(lambda u: scanned(u) == n_lo, u_lo, u_hi, tol)
        assert repr(flip) == repr(0.5 * (lo + hi))

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    @pytest.mark.parametrize("m,a", [(1.0, 1.5), (0.2, 0.1), (10.0, 6.0), (0.7, 2.3)])
    def test_steers_by_the_count_at_the_lower_end(self, monkeypatch, channel, m, a):
        # u_lo on a closed-form threshold, where the entering state is not
        # yet bound, or one float below it: the count at u_lo names that
        # state, the steer lands on its flip and the four counts certify it
        ts = [bound_threshold(channel, n, m, a) for n in range(1, 14)]
        calls = _count_scans(monkeypatch)
        for t, t_next in zip(ts, ts[1:]):
            u_hi = 0.5 * (t + t_next)
            for u_lo in (t, math.nextafter(t, 0.0)):
                calls.clear()
                flip = threshold_flip(channel, u_lo, u_hi, m, a, tol=1e-6)
                assert len(calls) == 4
                assert repr(flip) == repr(_scan_bisection(channel, u_lo, u_hi, m, a, 1e-6))

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tol_below_float_spacing_returns(self, monkeypatch, tol):
        # below the spacing of the bracket the midpoint settles on an
        # endpoint; both halvings stop there instead of running forever.
        # The steer u_n + TOL_AXIS/(m a^2) matches the scan's flip only to
        # a few float spacings: here it lands on the first float that
        # counts the new state, which the steered halving puts below, so
        # the certificate fails and the scan-driven fallback runs too
        halvings = []
        real_bisect = chart_module._bisect

        def counted_bisect(below, lo, hi, tol):
            def counted(u):
                halvings.append(u)
                if len(halvings) > 200:
                    raise AssertionError("more than 200 midpoints")
                return below(u)
            return real_bisect(counted, lo, hi, tol)

        monkeypatch.setattr(chart_module, "_bisect", counted_bisect)
        calls = _count_scans(monkeypatch)
        flip = threshold_flip(Channel.MINUS, 0.4, 0.7, M, A, tol=tol)
        assert len(calls) > 4
        assert abs(flip - bound_threshold(Channel.MINUS, 1, M, A)) < 1e-8
        # the fallback scans every midpoint with bound_count, and counts as
        # scan_axis does at each of them
        assert repr(flip) == repr(_scan_bisection(Channel.MINUS, 0.4, 0.7, M, A, tol))

    @given(m=st.floats(0.5, 2.0), a=st.floats(0.75, 3.0),
           channel=st.sampled_from([Channel.PLUS, Channel.MINUS]), n=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_certificate_solves_one_root_per_count(self, m, a, channel, n):
        # the brackets of the bench's depth panel: each count of the final
        # bracket solves the one root next to the threshold, so the
        # certificate rests on the scan's own polished kappa
        u_n = bound_threshold(channel, n, m, a)
        span = max(0.2 * u_n, 0.05)
        solves = []
        with pytest.MonkeyPatch.context() as mp:
            solved = _count_solves(mp)
            real_count = chart_module.bound_count

            def counted(*args):
                before = len(solved)
                result = real_count(*args)
                solves.append(len(solved) - before)
                return result

            mp.setattr(chart_module, "bound_count", counted)
            threshold_flip(channel, max(u_n - span, 1e-9), u_n + span, m, a, tol=1e-6)
        assert len(solves) == 4
        assert solves[2:] == [1, 1]


class TestDepthSweep:
    def test_transition_attributed(self):
        sweep = depth_sweep(Channel.PLUS, [1.95, 2.0], M, A)
        assert [set(e.topology) for e in sweep.entries] == [
            {"open"}, {"closed_4pi", "open"},
        ]
        assert len(sweep.transitions) == 1
        tr = sweep.transitions[0]
        assert tr.critical is not None
        assert abs(tr.critical.U - U_STAR_PLUS_ATT) < 1e-8
        assert tr.critical.attractive
        assert tr.critical.pair_count == 2
        assert tr.critical.index == 1

    def test_second_collision_carries_its_index(self):
        sweep = depth_sweep(Channel.PLUS, [8.5, 8.6], M, A)
        assert len(sweep.transitions) == 1
        crit = sweep.transitions[0].critical
        assert crit is not None and crit.attractive
        assert crit.index == 2
        assert abs(crit.U - _u_star_plus_att(2)) < 1e-8

    def test_no_transition_without_change(self):
        sweep = depth_sweep(Channel.PLUS, [1.0, 1.95], M, A)
        assert sweep.transitions == []

    def test_exact_critical_depth_nudged(self):
        sweep = depth_sweep(Channel.PLUS, [U_STAR_PLUS_ATT], M, A)
        entry = sweep.entries[0]
        assert entry.nudged
        # the nudge is relative to the collision depth
        assert abs(entry.U_used - U_STAR_PLUS_ATT) == pytest.approx(1e-6 * U_STAR_PLUS_ATT, rel=1e-2)

    @pytest.mark.parametrize("channel,u_star", [
        (Channel.MINUS, U_STAR_MINUS_ATT), (Channel.PLUS, U_STAR_PLUS_REP),
    ])
    def test_other_collision_depths_nudged(self, channel, u_star):
        # the odd collision sits just above x = pi, unlike the even ones
        entry = depth_sweep(channel, [u_star * (1.0 - 5e-7)], M, A).entries[0]
        assert entry.nudged
        assert entry.U_used == pytest.approx(u_star * (1.0 - 1e-6), abs=1e-12)

    def test_ordinary_depth_not_nudged(self):
        sweep = depth_sweep(Channel.PLUS, [1.0], M, A)
        assert not sweep.entries[0].nudged
        assert sweep.entries[0].U_used == 1.0

    @pytest.mark.parametrize("channel,u_star", [
        (Channel.PLUS, U_STAR_PLUS_ATT), (Channel.MINUS, U_STAR_MINUS_ATT),
    ])
    def test_no_scalar_kernel_calls(self, monkeypatch, channel, u_star):
        # three depths about the first collision, the middle one nudged: a
        # default sweep reads its axis poles as bare k, with no residual, so
        # the scalar kernel runs only inside the Newton solves
        calls = Counter()
        for name in ("denom_plain", "denom_scaled"):
            def counted(*args, _name=name, _kernel=getattr(_k, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(_k, name, counted)
        sweep = depth_sweep(channel, [0.8 * u_star, u_star * (1.0 + 5e-8), 1.2 * u_star], M, A)
        assert [e.nudged for e in sweep.entries] == [False, True, False]
        assert all(e.attractive_poles for e in sweep.entries)
        assert len(sweep.transitions) == 1
        assert calls == {}

    def test_certified_entry_keeps_the_verdict(self, monkeypatch):
        # a window count one above the poles, with no count failure: the
        # chart reads incomplete, and so must its entry, which takes the
        # chart's count
        real_count = chart_module.count_zeros_padded
        monkeypatch.setattr(chart_module, "count_zeros_padded",
                            lambda *rectangle: real_count(*rectangle) + 1)
        sweep = depth_sweep(Channel.PLUS, [1.0, 3.0], M, A, certify=True)
        for entry in sweep.entries:
            chart = build_chart(PotentialSpec(m=M, a=A, U=entry.U_used), Channel.PLUS)
            cert = chart.completeness
            assert cert["complete"] is False and chart.warnings == []
            n = len(entry.attractive_poles)
            assert cert["window_count"] == n + 1
            assert [(w.code, w.message) for w in entry.warnings] == [(
                "incomplete", f"window contour count {n + 1} against {n} closed-form poles")]

    @pytest.mark.xfail(strict=True, raises=NoConvergence, reason=(
        "Newton in off_axis_poles fails, probably where the channel pole functions "
        "cancel (q ~ +-z at large |Im z|), which ROADMAP's exponential (Jost) form mends"))
    def test_very_weak_well_sweeps(self):
        # at U = 1e-30 (c = 2.1e-15) Newton in off_axis_poles fails after at
        # most one iteration near q = -9.3 - 38i; U = 1e-100 and 1e-300 fail
        # the same way, and `sweep --depths 1e-300,1e-200` exits 3. U = 1e-40
        # sweeps to the one bound pole and the closed_2pi loop
        sweep = depth_sweep(Channel.PLUS, [1e-30], m=1.0, a=1.5)
        (entry,) = sweep.entries
        assert entry.topology == {"open": 1, "closed_2pi": 1}
        assert len(entry.attractive_poles) == 1


class TestShallowNarrowWell:
    """Wells with c = a sqrt(2 m U) below 0.1. At c = 0.03 each channel has
    a far virtual pole at a*kappa ~ -5.99, seeded now that the axis scan has
    no range cap. Roundoff there keeps every Newton step above the step
    test; the corrector stops on its quadratic model or, where the steps are
    noise of one size, at the roundoff of the pole function, so the curve
    traces."""

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    def test_far_seed_is_traced(self, channel):
        spec = PotentialSpec(m=1.0, a=1.0, U=0.03 ** 2 / 2.0)
        chart = build_chart(spec, channel)
        far = [p for p in chart.seeds if p.k.imag < -5.0]
        assert len(far) == 1 and abs(far[0].k.imag + 5.99) < 0.01
        assert chart.warnings == []
        if channel is Channel.PLUS:
            assert chart.topology == {"closed_2pi": 1, "open": 1}
        else:
            assert chart.topology == {"open": 1}
        assert chart.completeness["complete"] is True

    # the far virtual pole lies at k = -23.3i, outside the window, which
    # holds one pole at the attractive coupling, delivered by the closed loop
    FAR_POLE_WELL = (1.6170301714729771, 0.25872504383451456, 0.003839639189234336)

    def test_far_pole_curve_completes_the_chart(self):
        chart = build_chart(PotentialSpec(*self.FAR_POLE_WELL), Channel.PLUS)
        assert chart.topology == {"closed_2pi": 1, "open": 1}
        assert chart.warnings == []
        cert = chart.completeness
        assert cert["window_count"] == cert["trajectory_count"] == 1
        assert cert["complete"] is True

    def test_stalled_chart_is_not_complete(self, monkeypatch):
        # force the far seed's curve to stall: the two counts still agree
        # without it, and the chart is not complete all the same
        trace = chart_module.trace

        def stall_far_seed(seed, direction, spec):
            if seed.k.imag < -20.0:
                raise StallAtDoubleZero(seed.coupling.alpha, seed.k)
            return trace(seed, direction, spec)

        monkeypatch.setattr(chart_module, "trace", stall_far_seed)
        chart = build_chart(PotentialSpec(*self.FAR_POLE_WELL), Channel.PLUS)
        assert chart.topology == {"closed_2pi": 1}
        assert [w.code for w in chart.warnings] == ["trace_stalled"]
        cert = chart.completeness
        assert cert["window_count"] == cert["trajectory_count"] == 1
        assert cert["complete"] is False

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        c=st.floats(0.005, 0.07),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_shallow_narrow_charts_are_complete(self, m, a, c, channel):
        # the step test alone stalled 251 of 300 such charts, and the
        # quadratic model alone 31 of 100 with c in [0.005, 0.007]
        U = c * c / (2.0 * m * a * a)
        chart = build_chart(PotentialSpec(m=m, a=a, U=U), channel)
        assert "trace_stalled" not in [w.code for w in chart.warnings]
        assert chart.completeness["complete"] is True

    @pytest.mark.parametrize("well,channel", [
        ((2.2964837627841974, 0.8144788695135979, 0.002249719986370223), Channel.PLUS),
        ((0.9309496044458676, 0.6269348828368322, 0.007496386233066178), Channel.MINUS),
    ])
    def test_far_field_open_curve_is_complete(self, well, channel):
        # c ~ 0.08 and 0.07: the open curve's march once ended a step
        # 7e-15 short of the anchor at 15.5 pi and 18 pi, and the next
        # predictor, dividing by that sliver, stalled it there
        chart = build_chart(PotentialSpec(*well), channel)
        assert chart.completeness["complete"]
        assert "trace_stalled" not in [w.code for w in chart.warnings]
        assert chart.topology["open"] == 1


class TestNudgedSplitPair:
    """Just past an odd collision the pair has split on the axis by ~3e-3.

    A sampled axis scan missed that pair, so the nudged chart lost a curve
    and the sweep reported a topology change with no collision to attribute.
    """

    M_WELL, A_WELL = 1.2562686549277622, 1.1088252832121954
    DEPTHS = [5.7383581431507915, 6.85973169365069, 7.981105223856386]

    @pytest.fixture(scope="class")
    def sweep(self):
        return depth_sweep(Channel.MINUS, self.DEPTHS, self.M_WELL, self.A_WELL)

    def test_every_transition_is_attributed(self, sweep):
        assert sweep.entries[1].nudged
        assert sweep.transitions
        for tr in sweep.transitions:
            assert tr.critical is not None
            assert tr.critical.attractive and tr.critical.index == 1

    def test_nudged_chart_seeds_the_split_pair(self, sweep):
        u_used = sweep.entries[1].U_used
        spec = PotentialSpec(m=self.M_WELL, a=self.A_WELL, U=u_used)
        chart = build_chart(spec, Channel.MINUS, certify=False)
        kc = -1.0 / self.A_WELL
        pair = sorted(
            p.k.imag for p in chart.seeds
            if p.kind is PoleKind.VIRTUAL and abs(p.k.imag - kc) < 0.01
        )
        assert len(pair) == 2
        assert pair[0] < kc < pair[1]


def _anchor_owners(chart) -> list[set[int]]:
    """For each anchor pole (n mod 4, k), the curves that deliver it."""
    poles: list[tuple[int, complex, set[int]]] = []
    for i, traj in enumerate(chart.trajectories):
        for n, k in traj.anchors:
            for cls, q, owners in poles:
                if cls == n % 4 and abs(q - k) < 1e-6:
                    owners.add(i)
                    break
            else:
                poles.append((n % 4, k, {i}))
    return [owners for _, _, owners in poles]


class TestNoCurveJump:
    """Cases where a looser step rule left its curve or its branch."""

    def test_deep_wide_chart_anchors_lie_on_one_curve(self, monkeypatch):
        # a pair of curves in near contact at -8.92i and -8.97i; at a 0.2 rad
        # cap the iteration-count step rule jumped from one to the other
        # and put 11 anchor poles on two curves
        spec = PotentialSpec(m=1.6341162632495134, a=4.9991881585654045,
                             U=24.631932610724895)
        guard = trajectory._alpha_guard
        monkeypatch.setattr(trajectory, "_alpha_guard", lambda c: 2.0 * guard(c))
        chart = build_chart(spec, Channel.PLUS, certify=False)
        assert not chart.collisions
        owners = _anchor_owners(chart)
        assert len(owners) > 50
        assert all(len(o) == 1 for o in owners)
        assert chart.topology == {"closed_4pi": 14, "open": 1}

    def test_nudged_odd_well_keeps_its_branch(self):
        # 1e-6 past the odd collision depth the curve passes close to the
        # double point; it must step past without stalling, since a split
        # there records a collision and may continue on the other branch
        spec = PotentialSpec(m=1.3667562015037729, a=0.9083937711421373,
                             U=9.394561162029929)
        chart = build_chart(spec, Channel.MINUS, certify=False)
        assert chart.topology == {"open": 1}
        assert chart.collisions == []


class TestStepRejections:
    """The step is sized to the displacement bound it is tested against, so
    few attempted steps are thrown away."""

    @pytest.mark.parametrize("U,share", [(200.0, 0.01), (2.0, 0.10)])
    def test_rejected_share_of_attempted_steps(self, monkeypatch, U, share):
        # a deep well once rejected 733 of 1597 attempts: the step grew
        # until the displacement rule failed, halved, and grew back
        attempts = rejects = 0
        step = trajectory._step

        def counted(*args):
            nonlocal attempts, rejects
            result = step(*args)
            attempts += 1
            rejects += result is None
            return result

        monkeypatch.setattr(trajectory, "_step", counted)
        build_chart(PotentialSpec(m=M, a=A, U=U), Channel.PLUS, certify=False)
        assert attempts > 100
        assert rejects <= share * attempts


class TestMarchWork:
    """The quarter-turn anchors are the only cap on a step. Far from the
    well, where |dk/dalpha| tends to 1/(2a), the error-sized step grows
    from about 0.4 of a quarter turn at |k|a = 10 to 0.94 at |k|a = 40, and
    the anchor clips the rest, so an open curve takes about two steps per
    quarter turn there; these wells' curves stop at |k|a = 22 and 28. The
    corrector stops on Newton's quadratic model, about two iterations per
    step."""

    @pytest.mark.parametrize("channel,U,most", [("plus", 2.0, 200), ("minus", 5.0, 215)])
    def test_newton_calls_per_chart(self, monkeypatch, channel, U, most):
        # 242 and 240 calls under a 0.4 rad step cap, 168 and 187 without,
        # 131 and 160 with curves stopped past the working window, not at 40
        calls = 0
        newton = _k.newton_pole

        def counted(*args):
            nonlocal calls
            calls += 1
            return newton(*args)

        monkeypatch.setattr(_k, "newton_pole", counted)
        build_chart(PotentialSpec(m=M, a=A, U=U), Channel.parse(channel), certify=False)
        assert 0 < calls <= most

    @pytest.mark.parametrize("channel,U,most", [("plus", 2.0, 360), ("minus", 5.0, 420)])
    def test_newton_iterations_per_chart(self, monkeypatch, channel, U, most):
        # 506 and 580 iterations when the step test alone stops the
        # corrector, 347 and 406 with the quadratic model's exit, 272 and
        # 336 with curves stopped past the working window, not at 40
        iterations = 0
        newton = _k.newton_pole

        def counted(*args):
            nonlocal iterations
            result = newton(*args)
            iterations += result[1]
            return result

        monkeypatch.setattr(_k, "newton_pole", counted)
        build_chart(PotentialSpec(m=M, a=A, U=U), Channel.parse(channel), certify=False)
        assert 0 < iterations <= most


def _mp_root(k, alpha, spec, channel, mp):
    """The pole near k at phase alpha, by Newton on the channel pole function
    in 50-digit arithmetic: k cos(aK) - iK sin(aK) in the even channel,
    cos(aK) - ik sin(aK)/K in the odd one, K^2 = k^2 + 2 m U e^{i alpha}."""
    m, a, U = spec.m, spec.a, spec.U
    gamma = mp.expj(mp.mpf(alpha))
    k = mp.mpc(k.real, k.imag)
    for _ in range(60):
        K = mp.sqrt(k * k + 2 * m * U * gamma)
        c, s = mp.cos(a * K), mp.sin(a * K)
        if channel is Channel.PLUS:
            d = k * c - 1j * K * s
            dk = c - a * k * k / K * s - 1j * k / K * s - 1j * a * k * c
        else:
            d = c - 1j * k * s / K
            dk = -a * k * s / K - 1j * (s / K + k * k / K * (a * c / K - s / K ** 2))
        step = d / dk
        k -= step
        if abs(step) < mp.mpf(10) ** -45 * (1 + abs(k)):
            return complex(k)
    raise AssertionError(f"no 50-digit root near {k}")


class TestSampleAccuracy:
    """Traced samples are the poles at their phases to the corrector's
    tolerance, 1e-12*(1+|k|), or to the roundoff floor where d's terms
    exceed its slope: checked on every sample against a 50-digit Newton
    root."""

    @staticmethod
    def _worst(spec, channel):
        mp = pytest.importorskip("mpmath")
        worst, n = 0.0, 0
        with mp.workdps(50):
            for t in build_chart(spec, channel, certify=False).trajectories:
                for alpha, k in zip(t.alphas, t.ks):
                    ref = _mp_root(k, alpha, spec, channel, mp)
                    worst = max(worst, abs(k - ref) / (1.0 + abs(ref)))
                    n += 1
        assert n > 20
        return worst

    @pytest.mark.parametrize("U,channel", [
        (2.0, Channel.PLUS), (5.0, Channel.MINUS), (50.0, Channel.PLUS),
    ])
    def test_moderate_and_deep_wells(self, U, channel):
        assert self._worst(PotentialSpec(m=M, a=A, U=U), channel) <= 2e-12

    @pytest.mark.parametrize("well,channel", [
        ((1.0, 1.0, 0.03 ** 2 / 2.0), Channel.PLUS),
        ((1.0, 1.0, 0.03 ** 2 / 2.0), Channel.MINUS),
        (TestShallowNarrowWell.FAR_POLE_WELL, Channel.PLUS),
    ])
    def test_shallow_narrow_wells(self, well, channel):
        # the far virtual poles are roundoff-limited: d's terms exceed its
        # slope so far that the samples there err by up to about 2e-11
        assert self._worst(PotentialSpec(*well), channel) <= 5e-11


class TestCriticalChart:
    def test_survives_with_warning(self):
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT)
        chart = build_chart(spec, Channel.PLUS)
        assert any(w.code == "critical_proximity" for w in chart.warnings)
        assert len(chart.collisions) >= 1
        ev = chart.collisions[0]
        assert abs(ev.k - (-1j / A)) < 1e-12
        assert ev.kind == "axis_pair_to_plane_pair"

    @pytest.mark.parametrize("channel,U", [
        ("plus", U_STAR_PLUS_ATT), ("plus", U_STAR_PLUS_REP), ("minus", U_STAR_MINUS_ATT),
    ])
    def test_every_split_sits_on_a_real_coupling_anchor(self, channel, U):
        # pairs coalesce only at a real coupling, so the one event sits on a
        # real-coupling anchor: the coalesced seed of an axis scan
        chart = _chart(channel, U)
        (ev,) = chart.collisions
        n = round(ev.alpha / (math.pi / 2))
        assert ev.alpha == n * (math.pi / 2) and n % 2 == 0
        assert [p.coupling.alpha for p in chart.seeds if p.multiplicity == 2] == [ev.alpha]
        if U == U_STAR_PLUS_REP:
            # the bound state's loop meets the pair half a turn on, at pi,
            # and closes there
            (loop,) = [t for t in chart.trajectories if t.closure.kind is ClosureKind.CLOSED_2PI]
            assert loop.seed.multiplicity == 1 and loop.seed_alpha == 0.0
            assert meets_pair(loop, 2, chart.spec)

    def test_narrow_well_at_repulsive_collision_is_complete(self):
        # |K_c| ~ 10 at a = 0.12, so the pair splits 0.0106 from k = -i/a at
        # the minimum step; the attribution radius scales with max(1, |K_c|)
        # and reaches it
        U = critical_depth(Channel.PLUS, False, 1.0, 0.12).U
        assert U == 15.25100138509184
        chart = build_chart(PotentialSpec(m=1.0, a=0.12, U=U), Channel.PLUS)
        assert not any(w.code == "trace_stalled" for w in chart.warnings)
        assert chart.topology == {"closed_2pi": 1, "open": 1}
        assert chart.completeness["window_count"] == 7
        assert chart.completeness["trajectory_count"] == 7
        assert chart.completeness["complete"] is True

    @pytest.mark.parametrize("a", [0.1, 0.08, 0.05])
    @pytest.mark.parametrize("channel,attractive,topology,count", [
        ("plus", True, {"closed_4pi": 1, "open": 1}, 9),
        ("plus", False, {"closed_2pi": 1, "open": 1}, 7),
        ("minus", True, {"closed_4pi": 1, "open": 1}, 11),
    ])
    def test_narrow_well_collision_chart_is_complete(self, a, channel, attractive, topology, count):
        # the pair offset at a float collision depth grows as x_c/a, and so
        # does the pair ball; with a fixed ball the scan missed the pair
        # and all three curves stalled next to it
        ch = Channel.parse(channel)
        U = critical_depth(ch, attractive, 1.0, a).U
        chart = build_chart(PotentialSpec(m=1.0, a=a, U=U), ch)
        assert any(p.multiplicity == 2 for p in chart.seeds)
        assert chart.topology == topology
        assert chart.completeness["window_count"] == count
        assert chart.completeness["trajectory_count"] == count
        assert chart.completeness["complete"] is True

    @given(
        m=st.floats(0.5, 3.0),
        a=st.floats(0.5, 3.0),
        collision=st.sampled_from([("plus", True), ("minus", True), ("plus", False)]),
        index=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_topology_at_a_collision_depth(self, m, a, collision, index):
        # the loop through the coalesced pair closes at its half-turn like
        # any loop: the index-j attractive collision closes the j-th
        # closed_4pi loop, the repulsive one the closed_2pi loop
        channel, attractive = collision
        if not attractive:
            index = 1
        ch = Channel.parse(channel)
        U = critical_depth(ch, attractive, m, a, index).U
        chart = build_chart(PotentialSpec(m=m, a=a, U=U), ch)
        assert any(p.multiplicity == 2 for p in chart.seeds)
        assert chart.completeness["complete"] is True
        if attractive:
            assert chart.topology == {"closed_4pi": index, "open": 1}
        else:
            assert chart.topology == {"closed_2pi": 1, "open": 1}

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        collision=st.sampled_from([(Channel.PLUS, True), (Channel.MINUS, True),
                                   (Channel.PLUS, False)]),
        index=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_events_are_the_coalesced_seeds(self, m, a, collision, index):
        # at the float collision depth the chart lists one event per
        # coalesced seed of its two axis scans, at that seed's phase, and
        # a loop with no anchor at its half-turn passes the pair there
        channel, attractive = collision
        if not attractive:
            index = 1
        U = rootfinder.collision_depth(channel, attractive, m, a, index)
        spec = PotentialSpec(m=m, a=a, U=U)
        chart = build_chart(spec, channel, certify=False)
        assert not any(w.code == "trace_stalled" for w in chart.warnings)
        assert [(ev.alpha, ev.k) for ev in chart.collisions] == [
            (p.coupling.alpha, -1j / a) for p in chart.seeds if p.multiplicity == 2
        ]
        for t in chart.trajectories:
            if not t.closure.is_closed:
                continue
            turns = 2 if t.closure.kind is ClosureKind.CLOSED_2PI else 4
            n_star = round(t.seed_alpha / (math.pi / 2)) + turns
            if n_star not in dict(t.anchors):
                assert meets_pair(t, n_star, spec)

    def test_stalled_split_branch_is_reported(self, monkeypatch):
        # a split branch that stalls is reported as a stalled axis seed is,
        # and the chart is not certified
        def stall(seed, branch_k, spec):
            raise StallAtDoubleZero(seed.coupling.alpha + trajectory._SPLIT_STEP, branch_k)

        monkeypatch.setattr(chart_module, "trace_branch", stall)
        U = critical_depth(Channel.PLUS, False, 1.0, 0.12).U
        chart = build_chart(PotentialSpec(m=1.0, a=0.12, U=U), Channel.PLUS)
        stalled = [w.message for w in chart.warnings if w.code == "trace_stalled"]
        assert len(stalled) == 2
        assert all(msg.startswith("curve from split branch k=") for msg in stalled)
        assert chart.collisions and chart.completeness["complete"] is False

    def test_ordinary_chart_has_no_warning(self):
        assert _chart("plus", 1.0).warnings == []

    def test_odd_simple_crossing_does_not_warn(self):
        # a lone odd pole passes k = -i/a at U = 1/(2 m a^2); D vanishes
        # there, but the nearest pair collision lies 4.5 deeper
        spec = PotentialSpec(m=M, a=A, U=1.0 / (2 * M * A * A))
        chart = build_chart(spec, Channel.MINUS, certify=False)
        assert not any(w.code == "critical_proximity" for w in chart.warnings)

    def test_rounded_collision_depth_warns(self):
        # 0.0976 is the four-digit rounding of the repulsive collision depth
        chart = build_chart(PotentialSpec(m=M, a=A, U=0.0976), Channel.PLUS,
                            certify=False)
        assert any(w.code == "critical_proximity" for w in chart.warnings)
        # the warning states the exact distance |U - U*|
        dist = f"{abs(0.0976 - U_STAR_PLUS_REP):.3e}"
        assert any(dist in w.message for w in chart.warnings)


class TestForwardMarchesOnly:
    def test_one_forward_trace_per_kept_curve(self, monkeypatch):
        from wellpoles import chart as chart_module

        directions = []
        real_trace = chart_module.trace

        def counted(seed, direction, *args):
            directions.append(direction)
            return real_trace(seed, direction, *args)

        monkeypatch.setattr(chart_module, "trace", counted)
        chart = build_chart(PotentialSpec(m=M, a=A, U=0.09), Channel.PLUS)
        simple = [p for p in chart.seeds if p.multiplicity == 1]
        assert simple
        assert directions == [+1] * len(chart.trajectories)
        # a seed that is not traced is listed with the curve that delivers it
        # at an anchor of its phase class; here the repulsive virtual pole
        # -0.458i lies on the bound state's closed curve
        untraced = [p for p in simple if not any(t.seed is p for t in chart.trajectories)]
        assert untraced
        for p in untraced:
            n = round(p.coupling.alpha / (math.pi / 2))
            assert any(
                any(q is p for q in t.merged_seeds)
                and any((m - n) % 4 == 0 and abs(k - p.k) < 1e-6 for m, k in t.anchors)
                for t in chart.trajectories
            )

    def test_split_seed_backward_halves_are_mirrors(self):
        # at a collision depth the pair splits forward only; the open curve's
        # part behind the seed phase is the mirror image of the part after
        # it, and it ends on a branch of the pair's split behind it: a pole
        # next to the pair, a split step back
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT)
        chart = build_chart(spec, Channel.PLUS, certify=False)
        (curve,) = [t for t in chart.trajectories if not t.closure.is_closed]
        i = int(np.searchsorted(curve.alphas, 0.0))
        assert len(curve.alphas) == 2 * i
        assert np.array_equal(curve.alphas[:i], -np.asarray(curve.alphas[i:])[::-1])
        assert np.array_equal(curve.ks[:i], -np.conj(curve.ks[i:])[::-1])
        assert curve.alphas[i - 1] == -1e-3
        k_back = curve.ks[i - 1]
        assert 0.0 < abs(A * k_back + 1j) < 0.1
        p = newton_refine(k_back, ComplexCoupling(-1e-3), spec, Channel.PLUS)
        assert abs(p.k - k_back) < 1e-10
        # the pair's event is the chart's, held once
        assert [ev.alpha for ev in chart.collisions] == [0.0]


def _closed_form_topology(spec, channel):
    """One open curve, a closed_4pi loop per attractive collision at or
    below U, and in the even channel a closed_2pi loop at or below the
    repulsive one."""
    expected = {"open": 1}
    loops = sum(att for att, _, _ in rootfinder.collisions_between(
        channel, spec.m, spec.a, 0.0, spec.U))
    if loops:
        expected["closed_4pi"] = loops
    if channel is Channel.PLUS and spec.U <= rootfinder.collision_depth(
            Channel.PLUS, False, spec.m, spec.a, 1):
        expected["closed_2pi"] = 1
    return expected


class TestClosedFormTopology:
    """The topology a chart reads off its curves is the closed-form count:
    one open curve, a closed_4pi loop per attractive collision below U, and
    in the even channel a closed_2pi loop below the repulsive collision."""

    @given(
        m=st.floats(0.5, 2.0), a=st.floats(0.75, 3.0),
        log_U=st.floats(math.log(0.05), math.log(20.0)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_topology_matches_the_collision_count(self, m, a, log_U, channel):
        spec = PotentialSpec(m=m, a=a, U=math.exp(log_U))
        chart = build_chart(spec, channel, certify=False)
        assume(not any(w.code == "critical_proximity" for w in chart.warnings))
        assert chart.topology == _closed_form_topology(spec, channel)


@st.composite
def _sweep_depths(draw):
    """(m, a, channel, depth): a box well, a shallow one with c < 0.2, or a
    depth 5e-7 U* to either side of a collision depth U*, which the sweep
    nudges."""
    m = draw(st.floats(0.2, 10.0))
    a = draw(st.floats(0.1, 6.0))
    channel = draw(st.sampled_from([Channel.PLUS, Channel.MINUS]))
    kind = draw(st.sampled_from(("box", "shallow", "collision")))
    if kind == "box":
        U = math.exp(draw(st.floats(math.log(1e-3), math.log(300.0))))
    elif kind == "shallow":
        U = draw(st.floats(1e-3, 0.2)) ** 2 / (2.0 * m * a * a)
    else:
        attractive = channel is Channel.MINUS or draw(st.booleans())
        index = draw(st.integers(1, 3)) if attractive else 1
        side = draw(st.sampled_from((-5e-7, 5e-7)))
        U = rootfinder.collision_depth(channel, attractive, m, a, index) * (1.0 + side)
    return m, a, channel, U


class TestMarchFreeSweep:
    """A sweep reads each entry's topology and attractive inventory off
    closed forms and one Newton solve per off-axis cell; a certified sweep
    checks them with the chart's window count and the seed residual bound,
    and traces nothing either."""

    @given(_sweep_depths())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_certified_sweep(self, well):
        m, a, channel, U = well
        (entry,) = depth_sweep(channel, [U], m, a).entries
        (ref,) = depth_sweep(channel, [U], m, a, certify=True).entries
        assert entry.U_used == ref.U_used
        assert entry.nudged == ref.nudged
        assert entry.topology == ref.topology
        assert entry.attractive_poles == ref.attractive_poles
        # and the certificate holds
        assert ref.warnings == entry.warnings

    def test_builds_and_traces_no_chart(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep marched")

        for name in ("build_chart", "trace", "trace_branch"):
            monkeypatch.setattr(chart_module, name, refuse)
        for certify in (False, True):
            sweep = depth_sweep(Channel.PLUS, [0.09, 1.95, U_STAR_PLUS_ATT, 3.0], M, A,
                                certify=certify)
            assert [e.topology for e in sweep.entries] == [
                {"open": 1, "closed_2pi": 1}, {"open": 1}, {"open": 1, "closed_4pi": 1},
                {"open": 1, "closed_4pi": 1},
            ]
            assert [tr.critical.U for tr in sweep.transitions] == [
                pytest.approx(U_STAR_PLUS_REP), pytest.approx(U_STAR_PLUS_ATT)]
            # the nudged entry next to U* warns of it, and no entry of more
            assert [[w.code for w in e.warnings] for e in sweep.entries] == [
                [], [], ["critical_proximity"], []]

    def test_default_entry_warns_only_of_a_collision(self):
        # 0.0976 is the four-digit rounding of the repulsive collision depth
        (entry,) = depth_sweep(Channel.PLUS, [0.0976], M, A).entries
        assert not entry.nudged
        assert [w.code for w in entry.warnings] == ["critical_proximity"]

    @pytest.mark.parametrize("certify", [False, True])
    def test_zero_depth(self, certify):
        (entry,) = depth_sweep(Channel.PLUS, [0.0], M, A, certify=certify).entries
        assert entry.topology == {} and entry.attractive_poles == []

    def test_certified_entry_reports_a_dropped_pole(self, monkeypatch):
        inventory = chart_module._closed_form_inventory
        monkeypatch.setattr(chart_module, "_closed_form_inventory",
                            lambda *args: inventory(*args)[1:])
        (entry,) = depth_sweep(Channel.MINUS, [5.0], M, A, certify=True).entries
        # the entry keeps the values it has
        spec = PotentialSpec(m=M, a=A, U=5.0)
        assert entry.attractive_poles == inventory(spec, Channel.MINUS, working_window(spec))[1:]
        n = len(entry.attractive_poles)
        assert [(w.code, w.message) for w in entry.warnings] == [(
            "incomplete", f"window contour count {n + 1} against {n} closed-form poles")]

    def test_certified_entry_reports_a_repeated_pole(self, monkeypatch):
        # a pole replaced by a copy of another keeps the number of poles,
        # but the copy merges into its original
        inventory = chart_module._closed_form_inventory

        def repeated(*args):
            poles = inventory(*args)
            return poles[1:2] + poles[1:]

        monkeypatch.setattr(chart_module, "_closed_form_inventory", repeated)
        (entry,) = depth_sweep(Channel.MINUS, [5.0], M, A, certify=True).entries
        n = len(entry.attractive_poles)
        assert [(w.code, w.message) for w in entry.warnings] == [(
            "incomplete", f"window contour count {n} against {n - 1} closed-form poles")]

    def test_certified_entry_where_the_chart_stalls(self):
        # c = 464.8, where the contour count finds 667 window poles. Four
        # curves of the traced chart stall there, and it loses two of its
        # 147 loops and four of the poles; the certified entry traces none
        # of them and is whole
        (entry,) = depth_sweep(Channel.PLUS, [300.0], 10.0, 6.0).entries
        (ref,) = depth_sweep(Channel.PLUS, [300.0], 10.0, 6.0, certify=True).entries
        assert ref.warnings == []
        assert ref.topology == entry.topology == {"open": 1, "closed_4pi": 147}
        assert len(ref.attractive_poles) == 667
        assert ref.attractive_poles == entry.attractive_poles

    def test_certified_entry_reports_a_moved_pole(self, monkeypatch):
        # a relative move of 1e-9 puts every pole of the well above the
        # residual bound; one warning names the worst and counts them
        inventory = chart_module._closed_form_inventory
        monkeypatch.setattr(chart_module, "_closed_form_inventory",
                            lambda *args: [k * (1.0 + 1e-9) for k in inventory(*args)])
        (entry,) = depth_sweep(Channel.PLUS, [2.0], M, A, certify=True).entries
        (warning,) = entry.warnings
        assert warning.code == "pole_residual"
        c = PotentialSpec(m=M, a=A, U=2.0).c
        ratios = [rootfinder.residual_ratio(A * k, c * c, Channel.PLUS)
                  for k in entry.attractive_poles]
        assert min(ratios) > 1.0
        worst = entry.attractive_poles[ratios.index(max(ratios))]
        n = len(ratios)
        assert warning.message.startswith(
            f"{n} of {n} closed-form poles miss the residual bound; the worst, k={worst!r}, ")

    def test_descending_sweep_attributes_its_collision(self):
        # the paper's direction, deep to shallow: between the two depths a
        # virtual pair coalesces at k = -i/a, at U* = 1.962, and leaves the
        # axis as a resonance pair
        sweep = depth_sweep(Channel.PLUS, [2.94, 0.98], M, A)
        (tr,) = sweep.transitions
        assert (tr.u_below, tr.u_above) == (0.98, 2.94)
        assert tr.critical is not None and tr.critical.U == pytest.approx(U_STAR_PLUS_ATT)
        assert tr.description.startswith("pair collision at U=1.96243")
        # reversed, the sweep finds the same transition
        assert depth_sweep(Channel.PLUS, [0.98, 2.94], M, A).transitions == [tr]


class TestTraceWindow:
    """A march stops at 1.2 times the working window's corner radius in q,
    so a deep or wide well's loops close inside it, and a shallow well's
    curves stop short of the |q| = 40 a fixed stop once marched them to."""

    def test_deep_loops_close(self):
        # c = 15: stopped at |q| = 40, the loops delivered 25 of the window's
        # 27 poles
        chart = build_chart(PotentialSpec(m=1.0, a=1.5, U=50.0), Channel.PLUS)
        assert chart.topology == {"closed_4pi": 4, "open": 1}
        cert = chart.completeness
        assert (cert["window_count"], cert["trajectory_count"], cert["complete"]) == (27, 27, True)

    @pytest.mark.parametrize("m,a,U", [
        (9.70536719026983, 2.3247365462895067, 9.594244587988069),
        (1.892878895756028, 5.330958004233473, 9.381690677687718),
    ])
    def test_aliased_window_count_is_not_certified(self, m, a, U):
        # c = 31.7: a walk refined by the sampled argument step alone aliased
        # 28 of the window's 49 poles and read 21, which the curves stopped
        # at |q| = 40 matched. Refined by |d'/d| too, it reads all 49
        chart = build_chart(PotentialSpec(m=m, a=a, U=U), Channel.PLUS)
        assert chart.topology == {"closed_4pi": 10, "open": 1}
        cert = chart.completeness
        assert (cert["window_count"], cert["trajectory_count"], cert["complete"]) == (49, 49, True)

    @given(c=st.floats(0.05, 8.0), **_WELL)
    @settings(max_examples=40, deadline=None)
    def test_certificate_as_traced_to_forty(self, c, m, a, channel):
        # below c = 8.27 the trace window lies inside |q| = 40, and the
        # curves it cuts short hold no pole of the working window
        spec = PotentialSpec(m=m, a=a, U=_depth_of(c, m, a))
        chart = build_chart(spec, channel)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trajectory, "_trace_window", lambda c: 40.0)
            ref = build_chart(spec, channel)
        assert chart.completeness == ref.completeness


class TestDeepCharts:
    """Deep and wide wells chart complete: the window walk refines by
    |d'/d| as well as by the sampled argument step, and the open curve is
    marched until it leaves the trace window, which takes it past any fixed
    phase cap once c passes about 21."""

    # the bench's other two fixed deep wells, (1, 1.5, 50) and (1, 5, 30),
    # are locked in TestTraceWindow and TestCompleteness
    @pytest.mark.parametrize("m,a,U,channel,poles", [
        (1.0, 1.5, 200.0, Channel.PLUS, 47),
        # c from 46 to 56: the open curve ran past 40 pi inside the window
        (1.965819987330742, 1.6734226553187055, 194.7147898656838, Channel.PLUS, 71),
        (1.5517925587874022, 5.383483876938411, 25.30596134884754, Channel.MINUS, 71),
        (1.7755538115836154, 1.5344095539152651, 266.0174035487473, Channel.MINUS, 71),
        (1.787817253567816, 5.763633630193004, 25.95777531976154, Channel.PLUS, 83),
        (1.6397486943166335, 5.5620590798648335, 26.473626032984583, Channel.MINUS, 77),
    ])
    def test_deep_chart_is_certified(self, m, a, U, channel, poles):
        spec = PotentialSpec(m=m, a=a, U=U)
        chart = build_chart(spec, channel)
        cert = chart.completeness
        assert (cert["window_count"], cert["trajectory_count"], cert["complete"]) == (
            poles, poles, True)
        assert chart.topology == _closed_form_topology(spec, channel)
        assert not any(t.closure.reason is ExitReason.ALPHA_CAP for t in chart.trajectories)

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        log_U=st.floats(math.log(1e-3), math.log(300.0)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_box_chart_is_certified_or_fails_loudly(self, m, a, log_U, channel):
        chart = build_chart(PotentialSpec(m=m, a=a, U=math.exp(log_U)), channel)
        cert = chart.completeness
        assert cert["complete"] or chart.warnings
        count = cert["window_count"]
        if count is None:
            return
        assert count >= 0
        # the same count from a base of 65 points per edge
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rootfinder, "_EDGE_TS", tuple(i / 64 for i in range(65)))
            finer = chart_module._certify(chart_module.PoleChart(
                chart.spec, chart.channel, chart.seeds, chart.trajectories, chart.collisions,
                [], chart.completeness))
        assert finer["window_count"] == count


class TestDeterminism:
    def test_repeated_builds_identical(self):
        spec = PotentialSpec(m=M, a=A, U=0.09)
        c1 = build_chart(spec, Channel.PLUS)
        c2 = build_chart(spec, Channel.PLUS)
        assert c1.topology == c2.topology
        for t1, t2 in zip(c1.trajectories, c2.trajectories):
            assert np.array_equal(t1.alphas, t2.alphas)
            assert np.array_equal(t1.ks, t2.ks)


def _reduced_spec(spec):
    """The well (1, 1, c^2/2) of the same c: its chart in k is spec's in q = k*a."""
    c = spec.c
    return PotentialSpec(m=1.0, a=1.0, U=c * c / 2.0)


def _assert_scaled_chart(chart, ref, a):
    """chart equals ref with every sample, anchor and inventory pole times a:
    the counts, completeness and topology exactly, the phases and momenta to
    1e-9 relative. The step sizes follow the corrector's roundoff, which
    sets phases apart by up to about 1e-12 at the far poles of shallow wells."""
    def close(ks, qs, scale=a):
        assert len(ks) == len(qs)
        for k, q in zip(ks, qs):
            assert abs(scale * k - q) <= 1e-9 * (1.0 + abs(q)), (k, q)

    assert chart.topology == ref.topology
    assert [w.code for w in chart.warnings] == [w.code for w in ref.warnings]
    cert, cert_ref = chart.completeness, ref.completeness
    for key in ("complete", "window_count", "trajectory_count"):
        assert cert[key] == cert_ref[key], key
    close(cert["inventory"], cert_ref["inventory"])
    close([p.k for p in chart.seeds], [p.k for p in ref.seeds])
    assert len(chart.trajectories) == len(ref.trajectories)
    for t, t_ref in zip(chart.trajectories, ref.trajectories):
        assert t.closure == t_ref.closure
        close(t.alphas, t_ref.alphas, 1.0)
        close(t.ks, t_ref.ks)
        assert [n for n, _ in t.anchors] == [n for n, _ in t_ref.anchors]
        close([k for _, k in t.anchors], [k for _, k in t_ref.anchors])


class TestScaleInvariance:
    """Below the API the chart depends on c = a sqrt(2 m U) alone: the chart
    of (m, a, U) is the chart of (1, 1, c^2/2) with k scaled by 1/a."""

    @pytest.mark.parametrize("a", [1e-6, 1.0, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("c", [0.5, 3.0, 8.0])
    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    def test_fixed_grid(self, channel, c, a):
        spec = PotentialSpec(m=1.0, a=a, U=_depth_of(c, 1.0, a))
        ref = build_chart(_reduced_spec(spec), channel)
        assert ref.completeness["complete"]
        _assert_scaled_chart(build_chart(spec, channel), ref, a)

    @given(
        m=st.floats(0.2, 10.0),
        c=st.floats(0.05, 12.0),
        log_a=st.floats(math.log(1e-6), math.log(1e9)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
    )
    # a draw that failed while the march started from a*k, a float spacing
    # off the scan's q: one momentum 4.2e-8 off where 5.1e-9 is allowed
    @example(m=1.0, c=0.20969420708315226, log_a=1.0, channel=Channel.PLUS)
    @settings(max_examples=40, deadline=None)
    def test_chart_depends_on_c_alone(self, m, c, log_a, channel):
        a = math.exp(log_a)
        spec = PotentialSpec(m=m, a=a, U=_depth_of(c, m, a))
        ref = build_chart(_reduced_spec(spec), channel)
        _assert_scaled_chart(build_chart(spec, channel), ref, a)

    def test_chart_depends_on_c_alone_from_a_seed_one_spacing_off(self):
        # an example of test_chart_depends_on_c_alone: a*k from the seed's
        # k = q/a would start the march at 0.23147896114215055i against the
        # reduced chart's 0.23147896114215058i, and the step schedule
        # amplifies that about 5x per step, to 1.5e-7 in alpha at sample 18
        # of the open curve where the test allows 1.9e-8; the march starts
        # from the scan's q itself
        m, c, a = 1.0, 1.721318112424235, math.exp(6.0)
        spec = PotentialSpec(m=m, a=a, U=_depth_of(c, m, a))
        ref = build_chart(_reduced_spec(spec), Channel.MINUS)
        _assert_scaled_chart(build_chart(spec, Channel.MINUS), ref, a)

    def test_wide_pair_off_its_collision_is_not_coalesced(self):
        # at 1.05 U* the pair sits 0.55 from q = -i; a pair ball of 1e-6 in
        # k once took it for the coalesced pair at a = 1e6
        kinds = [PoleKind.VIRTUAL, PoleKind.VIRTUAL, PoleKind.BOUND]
        qs = []
        for a in (1e5, 1e6):
            u_star = rootfinder.collision_depth(Channel.PLUS, True, 1.0, a, 1)
            poles = scan_axis(PotentialSpec(m=1.0, a=a, U=1.05 * u_star),
                              ComplexCoupling(0.0), Channel.PLUS)
            assert [p.kind for p in poles] == kinds
            qs.append([a * p.k for p in poles])
        assert np.allclose(qs[0], qs[1], rtol=1e-12, atol=0.0)

    def test_wide_shallow_chart_builds(self):
        # plus channel, c = 0.5, a = 1e6: the pair ball in k once read a
        # simple pole as coalesced and the split raised ModelInvalid
        a = 1e6
        chart = build_chart(PotentialSpec(m=1.0, a=a, U=_depth_of(0.5, 1.0, a)), Channel.PLUS)
        assert chart.completeness["complete"]
        assert chart.collisions == []

    @pytest.mark.parametrize("a", [1e-4, 1e4, 1e6])
    @pytest.mark.parametrize("channel,attractive", [
        (Channel.PLUS, True), (Channel.MINUS, True), (Channel.PLUS, False),
    ])
    def test_critical_pair_count_at_any_width(self, channel, attractive, a):
        # the counting box is 1e-3 about q = -i, not about k = -i/a
        assert critical_depth(channel, attractive, 1.0, a).pair_count == 2


def _distinct_greedy(poles, a):
    """The merge rule of ``chart._distinct`` as a plain scan: each pole is
    compared with every pole kept before it."""
    found = []
    for k in poles:
        if all(a * abs(k - p) >= chart_module._DEDUP_TOL for p in found):
            found.append(k)
    return sorted(found, key=lambda k: chart_module._inventory_key(a * k))


@st.composite
def _clustered_poles_in_q(draw):
    # a few centers, each with copies at the merge tolerance to a rounding
    # either way, and points between
    tol = chart_module._DEDUP_TOL
    part = st.floats(-8 * tol, 8 * tol)
    centers = draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=12))
    qs = []
    for q in centers:
        qs.append(q)
        for _ in range(draw(st.integers(0, 3))):
            scale = draw(st.sampled_from([1 - 2.0 ** -52, 1.0, 1 + 2.0 ** -52, 0.5, 1.9]))
            phase = draw(st.sampled_from([0.0, math.pi / 2, math.pi, 1.0, -2.0]))
            qs.append(q + tol * scale * complex(math.cos(phase), math.sin(phase)))
    return draw(st.permutations(qs))


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(qs=_clustered_poles_in_q(), a=st.sampled_from([1.0, 1.5, 3e-4, 7e5]),
           offset=st.sampled_from([0j, 3.25 - 2j, 1e4j]))
    def test_matches_the_greedy_rule(self, qs, a, offset):
        poles = [(q + offset) / a for q in qs]
        assert chart_module._distinct(poles, a) == _distinct_greedy(poles, a)

    def test_many_poles_take_linear_time(self):
        # 30 000 distinct poles: the greedy scan makes ~4.5e8 comparisons
        rng = np.random.default_rng(3)
        poles = [complex(x, y) for x, y in rng.uniform(-100.0, 100.0, size=(30000, 2))]
        start = time.perf_counter()
        found = chart_module._distinct(poles, 1.5)
        assert time.perf_counter() - start < 2.0
        assert len(found) == len(poles)


class _Curve:
    """The two fields of a kept ``Trajectory`` that ``_claimed`` reads."""

    def __init__(self, anchors):
        self.anchors = anchors
        self.merged_seeds = []


def _claimed_plain(kept, seed, n, k):
    """A seed claim as a plain scan over every anchor of every kept curve,
    in kept order: the first curve that delivers k at an anchor of index n
    (mod 4) lists the seed."""
    for traj in kept:
        for m, p in traj.anchors:
            if (m - n) % 4 == 0 and seed.a * abs(p - k) < chart_module._DEDUP_TOL:
                traj.merged_seeds.append(seed)
                return True
    return False


def _delivers(traj, a, n, k):
    return any((m - n) % 4 == 0 and a * abs(p - k) < chart_module._DEDUP_TOL
               for m, p in traj.anchors)


def _claims(chart):
    """Each (curve, merged seed, anchor index, pole) of the chart: a seed is
    claimed at its own anchor, and a split pair at the first anchor of one
    of its branches, retraced here, that the curve delivers."""
    spec, a = chart.spec, chart.spec.a
    firsts = {}
    for event in chart.collisions:
        seed = next(p for p in chart.seeds if p.multiplicity == 2
                    and p.coupling.alpha == event.alpha)
        n_pair = _anchor_index(event.alpha)
        firsts[id(seed)] = [next((n, k) for n, k in trajectory.trace_branch(seed, kb, spec).anchors
                                 if n > n_pair)
                            for _, kb in event.branches]
    claims = []
    for traj in chart.trajectories:
        for seed in traj.merged_seeds:
            if seed.multiplicity == 2:
                n, k = next(((n, k) for n, k in firsts[id(seed)] if _delivers(traj, a, n, k)),
                            firsts[id(seed)][0])
            else:
                n, k = _anchor_index(seed.coupling.alpha), seed.k
            claims.append((traj, seed, n, k))
    return claims


@st.composite
def _claim_wells(draw):
    """A well and channel of c in [0.05, 60], or at or a rounding off a
    collision depth U*: attractive indices 1-3 in both channels and the
    even repulsive collision."""
    a = draw(st.sampled_from([0.8, 1.5, 2.3]))
    if draw(st.booleans()):
        channel = draw(st.sampled_from([Channel.PLUS, Channel.MINUS]))
        return PotentialSpec(1.0, a, _depth_of(draw(st.floats(0.05, 60.0)), 1.0, a)), channel
    channel, attractive, index = draw(st.sampled_from(
        [(ch, True, i) for ch in (Channel.PLUS, Channel.MINUS) for i in (1, 2, 3)]
        + [(Channel.PLUS, False, 1)]))
    u_star = rootfinder.collision_depth(channel, attractive, 1.0, a, index)
    eps = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    return PotentialSpec(1.0, a, u_star * (1.0 + eps)), channel


class TestClaimed:
    """A merged seed is listed by the first kept curve of its level-set
    component, and only when that curve delivers it."""

    @settings(max_examples=60, deadline=None)
    @given(well=_claim_wells())
    def test_merged_seeds_lie_on_the_curve_that_lists_them(self, well):
        spec, channel = well
        chart = build_chart(spec, channel)
        a = spec.a
        order = {id(p): i for i, p in enumerate(chart.seeds)}
        for traj, seed, n, k in _claims(chart):
            assert _delivers(traj, a, n, k), (seed, n, k)
            if not chart.completeness["complete"]:
                continue
            # the curves kept before the claim: those of earlier seeds, and
            # for a split pair the curves of its own branches
            kept = [t for t in chart.trajectories if order[id(t.seed)] <= order[id(seed)]]
            plain = [_Curve(t.anchors) for t in kept]
            assert _claimed_plain(plain, seed, n, k)
            assert next(i for i, c in enumerate(plain) if c.merged_seeds) == kept.index(traj)

    def test_a_seed_is_listed_by_its_own_loop_when_a_curve_swapped_onto_it(self):
        # c = 1000, odd channel: the march of curve 0 swaps onto the loop
        # through the bound seed 666.269...i and delivers it at alpha = 0;
        # the seed is an end of the interval of u = Re z >= c|sin u| whose
        # other end is the virtual seed -666.267...i, and that loop lists it
        spec = PotentialSpec(1.0, 1.5, 1e6 / 4.5)
        chart = build_chart(spec, Channel.MINUS)
        (traj,) = [t for t in chart.trajectories
                   if any(p.k == 666.2692692921986j for p in t.merged_seeds)]
        assert traj.seed.k == -666.2676757239118j
        assert traj.closure.kind is ClosureKind.CLOSED_4PI
        assert _delivers(traj, spec.a, 0, 666.2692692921986j)
        c = spec.c
        u0, u1 = sorted(math.sqrt(c * c - (spec.a * k.imag) ** 2) for k in (
            666.2692692921986j, traj.seed.k))
        us = np.linspace(u0, u1, 2001)
        assert np.all(us >= c * np.abs(np.sin(us)) - 1e-9 * c)
