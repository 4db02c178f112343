"""Chart assembly, depth transitions, completeness certificates."""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from wellpoles.errors import EdgeTooClose, NoRootInBracket, StallAtDoubleZero
from wellpoles.rootfinder import TOL_AXIS, PoleKind, scan_axis
from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
from wellpoles.trajectory import ClosureKind, branch_at_double_zero
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

    def test_certificate_walks_half_the_window(self, monkeypatch):
        # the window is symmetric about the imaginary axis and the coupling
        # real, so the count walks only its right half: 17 + 33 + 17 samples
        # from Re k = 0 on the bottom edge to Re k = 0 on the top edge
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
        monkeypatch.setattr(chart_module, "count_zeros_padded", lambda region, spec: (-3, region))
        chart = build_chart(PotentialSpec(m=M, a=A, U=2.0), Channel.PLUS)
        cert = chart.completeness
        assert cert["window_count"] is None
        assert cert["complete"] is False
        failed = [w.message for w in chart.warnings if w.code == "count_failed"]
        assert failed == ["window contour count -3 is negative: the sampled winding aliased"]
        doc = parse_chart_document(canonical_dumps(chart_document(chart)))
        assert doc["completeness"]["window_count"] is None
        assert doc["completeness"]["complete"] is False

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
        # the depth is closed-form; only the contour count touches the
        # kernel, on one grid per edge of its half walk (the box about
        # -i/a is symmetric and the coupling real)
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
    """threshold_flip's answer from a scan at every midpoint."""
    def count(u):
        return _scanned_bound(PotentialSpec(m=m, a=a, U=u), channel)

    n_lo = count(u_lo)
    while u_hi - u_lo > tol:
        mid = 0.5 * (u_lo + u_hi)
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


class TestBoundCount:
    """bound_count counts, from the axis roots alone, the poles that
    scan_axis classifies as bound."""

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
        # the depth where it leaves the band (kappa = TOL_AXIS)
        u = bound_threshold(channel, n, m, a)
        if visible:
            u += TOL_AXIS / (m * a)
        for _ in range(abs(ulps)):
            u = math.nextafter(u, math.inf if ulps > 0 else 0.0)
        spec = PotentialSpec(m=m, a=a, U=u)
        assert bound_count(spec, channel) == _scanned_bound(spec, channel)

    @pytest.mark.parametrize("channel,U,scan_solves,count_solves,bound", [
        # c = 6.36: a root in [0, pi/2] and a pair in each of the next two
        # cells, whose lower roots are virtual
        (Channel.PLUS, 9.0, 5, 3, 3),
        # c = 0.67 < 1: one root, in the y/sinh y cell, virtual
        (Channel.MINUS, 0.1, 1, 0, 0),
    ])
    def test_solves_no_root_its_cell_places_below_zero(
            self, monkeypatch, channel, U, scan_solves, count_solves, bound):
        real_brentq = rootfinder._brentq
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real_brentq(*args, **kwargs)

        monkeypatch.setattr(rootfinder, "_brentq", counted)
        spec = PotentialSpec(m=M, a=A, U=U)
        assert bound_count(spec, channel) == bound
        assert len(calls) == count_solves
        calls.clear()
        assert _scanned_bound(spec, channel) == bound
        assert len(calls) == scan_solves


class TestSteeredFlip:
    """threshold_flip halves by the closed-form threshold and certifies
    only its final bracket, with the scan-driven halving as fallback."""

    @given(
        m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        n=st.integers(1, 4),
        below=st.floats(0.05, 0.999), above=st.floats(0.001, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_scan_driven_bisection(self, m, a, channel, n, below, above):
        # the bracket holds threshold n and, when above >= 1, threshold n + 1
        prev = bound_threshold(channel, n - 1, m, a) if n > 1 else 0.0
        u_n = bound_threshold(channel, n, m, a)
        u_next = bound_threshold(channel, n + 1, m, a)
        u_lo = prev + below * (u_n - prev)
        u_hi = u_n + above * (u_next - u_n)
        flip = threshold_flip(channel, u_lo, u_hi, m, a, tol=1e-6)
        assert repr(flip) == repr(_scan_bisection(channel, u_lo, u_hi, m, a, 1e-6))

    def test_wrong_steer_falls_back(self, monkeypatch):
        # a guess off the true threshold fails the final bracket's
        # certificate, and the scan-driven halving gives the answer
        real_threshold = chart_module.bound_threshold
        monkeypatch.setattr(chart_module, "bound_threshold",
                            lambda *args: 1.01 * real_threshold(*args))
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
        # the bracket of `threshold --check` has its first midpoint on the
        # threshold itself, where the scan still counts n_lo
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
    def test_next_threshold(self, channel, m, a):
        ts = [bound_threshold(channel, n, m, a) for n in range(1, 40)]
        assert chart_module._next_threshold(channel, 0.0, m, a) == ts[0]
        for t, t_next in zip(ts, ts[1:]):
            assert chart_module._next_threshold(channel, t, m, a) == t_next
            assert chart_module._next_threshold(channel, math.nextafter(t, 0.0), m, a) == t

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tol_below_float_spacing_returns(self, monkeypatch, tol):
        # below the spacing of the bracket the midpoint settles on an
        # endpoint; both halvings stop there instead of running forever.
        # The steer u_n + TOL_AXIS/(m a) matches the scan's flip only to a
        # few float spacings: here it lands on the first float that counts
        # the new state, which the steered halving puts below, so the
        # certificate fails and the scan-driven fallback runs too
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
        flip = threshold_flip(Channel.PLUS, 2.0, 2.4, M, A, tol=tol)
        assert len(calls) > 4
        assert abs(flip - bound_threshold(Channel.PLUS, 1, M, A)) < 1e-8


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
        w = working_window(spec)
        corner = max(abs(complex(w.re_max, w.im_min)), abs(complex(w.re_max, w.im_max)))
        monkeypatch.setattr(trajectory, "_ALPHA_CAP", 80 * math.pi)
        monkeypatch.setattr(trajectory, "_WINDOW_A", spec.a * max(40.0 / spec.a, 1.2 * corner))
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
    quarter turn. The corrector stops on
    Newton's quadratic model, about two iterations per step."""

    @pytest.mark.parametrize("channel,U,most", [("plus", 2.0, 200), ("minus", 5.0, 215)])
    def test_newton_calls_per_chart(self, monkeypatch, channel, U, most):
        # 242 and 240 calls under a 0.4 rad step cap, 168 and 187 without
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
        # corrector, 347 and 406 with the quadratic model's exit
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
    exceed its slope: checked on every third sample against a 50-digit
    Newton root."""

    @staticmethod
    def _worst(spec, channel):
        mp = pytest.importorskip("mpmath")
        worst, n = 0.0, 0
        with mp.workdps(50):
            for t in build_chart(spec, channel, certify=False).trajectories:
                for alpha, k in list(zip(t.alphas, t.ks))[::3]:
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
        assert U == 15.251001385091708
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
        U = chart_module._collision_depth(channel, attractive, m, a, index)
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
            if n_star not in t.anchor_index_map():
                assert meets_pair(t, n_star, spec)

    def test_stalled_split_branch_is_reported(self, monkeypatch):
        # a split branch that stalls is reported as a stalled axis seed is,
        # and the chart is not certified
        def stall(seed, branch_k, branch_alpha, spec):
            raise StallAtDoubleZero(branch_alpha, branch_k)

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
        # at a collision depth the pair splits forward only; the open curve's
        # part behind the seed phase is the mirror image of the part after
        # it, and it ends on a backward split branch
        spec = PotentialSpec(m=M, a=A, U=U_STAR_PLUS_ATT)
        chart = build_chart(spec, Channel.PLUS, certify=False)
        bwd = branch_at_double_zero(0.0, spec, Channel.PLUS, -1).branches
        (curve,) = [t for t in chart.trajectories if not t.closure.is_closed]
        i = int(np.searchsorted(curve.alphas, 0.0))
        assert len(curve.alphas) == 2 * i
        assert np.array_equal(curve.alphas[:i], -np.asarray(curve.alphas[i:])[::-1])
        assert np.array_equal(curve.ks[:i], -np.conj(curve.ks[i:])[::-1])
        assert curve.alphas[i - 1] == -1e-3
        assert min(abs(curve.ks[i - 1] - kb) for _, kb in bwd) < 1e-10
        # the pair's event is the chart's, held once
        assert [ev.alpha for ev in chart.collisions] == [0.0]


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
        U = math.exp(log_U)
        chart = build_chart(PotentialSpec(m=m, a=a, U=U), channel, certify=False)
        assume(not any(w.code == "critical_proximity" for w in chart.warnings))
        expected = {"open": 1}
        loops = len(chart_module._collisions_between(channel, True, m, a, 0.0, U))
        if loops:
            expected["closed_4pi"] = loops
        if channel is Channel.PLUS and U < chart_module._collision_depth(
                Channel.PLUS, False, m, a, 1):
            expected["closed_2pi"] = 1
        assert chart.topology == expected


class TestDeterminism:
    def test_repeated_builds_identical(self):
        spec = PotentialSpec(m=M, a=A, U=0.09)
        c1 = build_chart(spec, Channel.PLUS)
        c2 = build_chart(spec, Channel.PLUS)
        assert c1.topology == c2.topology
        for t1, t2 in zip(c1.trajectories, c2.trajectories):
            assert np.array_equal(t1.alphas, t2.alphas)
            assert np.array_equal(t1.ks, t2.ks)
