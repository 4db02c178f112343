"""Chart assembly, depth transitions, completeness certificates."""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wellpoles.chart import (
    CriticalDepth,
    bound_count,
    bound_threshold,
    build_chart,
    critical_depth,
    depth_sweep,
    threshold_flip,
    working_window,
)
from wellpoles.document import canonical_dumps, chart_document, parse_chart_document
from wellpoles.errors import EdgeTooClose, NoRootInBracket
from wellpoles.rootfinder import PoleKind, scan_axis
from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
from wellpoles.trajectory import ClosureKind, TraceCaps, branch_at_double_zero, mirror_defect
from wellpoles import _kernels as _k
from wellpoles import chart as chart_module
from wellpoles import trajectory

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
        amap = loop.anchor_index_map()
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
        for k in chart.completeness["inventory"]:
            d, dk = _k.denom_plain(k, 1.0 + 0.0j, spec.m, spec.a, spec.U,
                                   chart.channel.code)
            assert abs(d) < 1e-8 * (1.0 + abs(k))

    def test_negative_window_count_fails_loudly(self):
        # the sampled window winding of this deep wide well reads -5; an
        # entire function has no negative zero count, so the winding
        # aliased and the count failed
        chart = build_chart(PotentialSpec(m=1.0, a=5.0, U=30.0), Channel.PLUS)
        cert = chart.completeness
        assert cert["window_count"] is None
        assert cert["trajectory_count"] == 25
        assert cert["complete"] is False
        failed = [w.message for w in chart.warnings if w.code == "count_failed"]
        assert failed == ["window contour count -5 is negative: the sampled winding aliased"]
        doc = parse_chart_document(canonical_dumps(chart_document(chart)))
        assert doc["completeness"]["window_count"] is None

    def test_zero_depth_trivial(self):
        chart = build_chart(PotentialSpec(m=M, a=A, U=0.0), Channel.PLUS)
        assert chart.topology == {}
        assert chart.completeness["complete"]


class TestChartMirrorSymmetry:
    @pytest.mark.parametrize("channel,U", [
        ("plus", 0.09), ("plus", 2.0), ("minus", 5.0),
    ])
    def test_sample_defect(self, channel, U):
        chart = _chart(channel, U)
        for traj in chart.trajectories:
            assert mirror_defect(traj, chart.spec) < 1e-8

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
        def edge_too_close(region, spec):
            raise EdgeTooClose(region.lo)

        monkeypatch.setattr(chart_module, "count_zeros_padded", edge_too_close)
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
        # a pair collision is D = D_k = 0 at k = -i/a; since dD/dU = D_alpha/(iU),
        # |D|/|D_alpha| is the relative depth error to first order
        channel, attractive, indices = case
        gamma = 1.0 + 0.0j if attractive else -1.0 + 0.0j
        depths = []
        for index in indices:
            cd = critical_depth(channel, attractive, m, a, index)
            d, dk, da, _ = _k.denom_scaled(-1j / a, gamma, m, a, cd.U, channel.code)
            assert abs(d) < 1e-10 * abs(da)
            assert abs(dk) < 1e-10 * a * abs(da)
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
        # the depth is closed-form; only the contour count touches the kernel
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
        assert calls["grid_denom_dk"] == 4 * len(cases)


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
        assert abs(entry.U_used - U_STAR_PLUS_ATT) == pytest.approx(1e-6, rel=1e-2)

    @pytest.mark.parametrize("channel,u_star", [
        (Channel.MINUS, U_STAR_MINUS_ATT), (Channel.PLUS, U_STAR_PLUS_REP),
    ])
    def test_other_collision_depths_nudged(self, channel, u_star):
        # the odd collision sits just above x = pi, unlike the even ones
        entry = depth_sweep(channel, [u_star - 5e-7], M, A).entries[0]
        assert entry.nudged
        assert entry.U_used == pytest.approx(u_star - 1e-6, abs=1e-12)

    def test_ordinary_depth_not_nudged(self):
        sweep = depth_sweep(Channel.PLUS, [1.0], M, A)
        assert not sweep.entries[0].nudged
        assert sweep.entries[0].U_used == 1.0


class TestShallowNarrowWell:
    """c = a sqrt(2 m U) = 0.03: each channel has a far virtual pole at
    a*kappa ~ -5.99, seeded now that the axis scan has no range cap. Its
    curve stalls in the corrector, which the chart reports and survives."""

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    def test_stalled_far_seed_is_reported(self, channel):
        spec = PotentialSpec(m=1.0, a=1.0, U=0.03 ** 2 / 2.0)
        chart = build_chart(spec, channel)
        far = [p for p in chart.seeds if p.k.imag < -5.0]
        assert len(far) == 1 and abs(far[0].k.imag + 5.99) < 0.01
        assert [w.code for w in chart.warnings] == ["trace_stalled"]


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

    def test_deep_wide_chart_anchors_lie_on_one_curve(self):
        # a pair of curves in near contact at -8.92i and -8.97i; at a 0.2 rad
        # cap the iteration-count step rule jumped from one to the other
        # and put 11 anchor poles on two curves
        spec = PotentialSpec(m=1.6341162632495134, a=4.9991881585654045,
                             U=24.631932610724895)
        w = working_window(spec)
        corner = max(abs(complex(w.re_max, w.im_min)), abs(complex(w.re_max, w.im_max)))
        caps = TraceCaps(alpha_cap=80 * math.pi, k_window=max(40.0 / spec.a, 1.2 * corner))
        chart = build_chart(spec, Channel.PLUS, caps=caps, certify=False)
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


class TestCriticalChart:
    def test_survives_with_warning(self):
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT)
        chart = build_chart(spec, Channel.PLUS)
        assert any(w.code == "critical_proximity" for w in chart.warnings)
        assert len(chart.collisions) >= 1
        ev = chart.collisions[0]
        assert abs(ev.k - (-1j / A)) < 1e-12
        assert ev.kind in ("axis_pair_to_plane_pair", "plane_pair_to_axis_pair")

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

    def test_near_contact_recorded_above_collision(self):
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT + 1e-4)
        chart = build_chart(spec, Channel.PLUS, certify=False)
        assert chart.near_contacts
        assert chart.near_contacts[0].distance < 0.05


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
        # at a collision depth the pair splits forward only; the curves
        # behind the seed phase end on the backward split's branches
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT)
        chart = build_chart(spec, Channel.PLUS, certify=False)
        _, bwd = branch_at_double_zero(0.0, spec, Channel.PLUS, -1)
        behind = [t for t in chart.trajectories if t.alphas[-1] == -1e-3]
        assert behind
        for t in behind:
            assert min(abs(t.ks[-1] - kb) for _, kb in bwd) < 1e-10
            event = dict(t.collisions[0].branches)
            for lbl, kb in bwd:
                assert abs(event[lbl] - kb) < 1e-10


class TestDeterminism:
    def test_repeated_builds_identical(self):
        spec = PotentialSpec(m=M, a=A, U=0.09)
        c1 = build_chart(spec, Channel.PLUS)
        c2 = build_chart(spec, Channel.PLUS)
        assert c1.topology == c2.topology
        for t1, t2 in zip(c1.trajectories, c2.trajectories):
            assert np.array_equal(t1.alphas, t2.alphas)
            assert np.array_equal(t1.ks, t2.ks)
