"""Axis scans, Newton refinement, winding counts, multiplicity detection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import wellpoles as wp
from wellpoles import _kernels as _k
from wellpoles import Channel, ComplexCoupling, PotentialSpec
from wellpoles.rootfinder import (
    _brentq,
    CountRegion,
    Pole,
    PoleKind,
    classify,
    count_zeros,
    count_zeros_padded,
    default_kappa_range,
    multiplicity_at,
    newton_refine,
    scan_axis,
)

ATT = ComplexCoupling.attractive()
REP = ComplexCoupling.repulsive()
M, A = 1.0, 1.5

# independent scalar oracles for the coupling strengths where an on-axis
# pole pair coalesces at k = -i/a (see the matching scan tests)
U_COLLIDE_PLUS_REP = (brentq(lambda y: y * np.tanh(y) - 1, 1.0, 2.0) ** 2 - 1) / (2 * M * A * A)
U_COLLIDE_PLUS_ATT = (
    brentq(lambda x: x * math.tan(x) + 1, np.pi / 2 + 1e-9, np.pi - 1e-9) ** 2 + 1
) / (2 * M * A * A)
U_COLLIDE_MINUS_ATT = (brentq(lambda x: math.tan(x) - x, 4.3, 4.6) ** 2 + 1) / (2 * M * A * A)


def spec(U: float) -> PotentialSpec:
    return PotentialSpec(M, A, U)


def kappas(poles):
    return [round(p.k.imag, 6) for p in poles]


def kinds(poles):
    return [p.kind for p in poles]


class TestClassify:
    def test_regions(self):
        assert classify(1.5j) is PoleKind.BOUND
        assert classify(-0.2j) is PoleKind.VIRTUAL
        assert classify(2.0 - 0.5j) is PoleKind.RESONANCE
        assert classify(-2.0 - 0.5j) is PoleKind.ANTIRESONANCE
        assert classify(1e-12 + 1e-12j) is PoleKind.THRESHOLD
        assert classify(-0.3j, multiplicity=2) is PoleKind.DOUBLE_ZERO

    def test_pole_invariant(self):
        with pytest.raises(ValueError):
            Pole(1j, Channel.PLUS, ATT, PoleKind.DOUBLE_ZERO, 1, 0.0)
        with pytest.raises(ValueError):
            Pole(1j, Channel.PLUS, ATT, PoleKind.BOUND, 2, 0.0)


class TestScanInventories:
    """On-axis pole inventories at depths with independently known content."""

    def test_shallow_plus_attractive_single_bound(self):
        ps = scan_axis(spec(0.09), ATT, Channel.PLUS)
        assert kinds(ps) == [PoleKind.BOUND]
        assert kappas(ps) == [0.219728]

    def test_shallow_plus_repulsive_virtual_pair(self):
        ps = scan_axis(spec(0.09), REP, Channel.PLUS)
        assert kinds(ps) == [PoleKind.VIRTUAL, PoleKind.VIRTUAL]
        assert kappas(ps) == [-0.911519, -0.457937]

    def test_plus_u2_inventory(self):
        ps = scan_axis(spec(2.0), ATT, Channel.PLUS)
        assert kinds(ps) == [PoleKind.VIRTUAL, PoleKind.VIRTUAL, PoleKind.BOUND]
        assert kappas(ps) == [-0.920743, -0.404182, 1.841596]
        assert scan_axis(spec(2.0), REP, Channel.PLUS) == []

    def test_minus_first_bound_appears_after_threshold(self):
        # threshold at pi^2/(8 m a^2) ~ 0.5483
        below = scan_axis(spec(0.2), ATT, Channel.MINUS)
        above = scan_axis(spec(2.0), ATT, Channel.MINUS)
        assert kinds(below) == [PoleKind.VIRTUAL]
        assert kinds(above) == [PoleKind.BOUND]
        assert kappas(above) == [1.300732]

    def test_minus_u5_inventory(self):
        ps = scan_axis(spec(5.0), ATT, Channel.MINUS)
        assert kinds(ps) == [PoleKind.VIRTUAL, PoleKind.BOUND, PoleKind.BOUND]

    def test_free_particle_no_poles(self):
        assert scan_axis(spec(0.0), ATT, Channel.PLUS) == []
        assert scan_axis(spec(0.0), ATT, Channel.MINUS) == []

    def test_ground_bound_exists_at_tiny_depth(self):
        ps = scan_axis(spec(1e-4), ATT, Channel.PLUS)
        bound = [p for p in ps if p.kind is PoleKind.BOUND]
        assert len(bound) == 1
        assert 0 < bound[0].k.imag < 1e-3

    def test_requires_real_coupling(self):
        with pytest.raises(ValueError):
            scan_axis(spec(1.0), ComplexCoupling(0.3), Channel.PLUS)

    def test_density_invariance(self):
        a = scan_axis(spec(3.0), ATT, Channel.PLUS, samples_per_segment=2000)
        b = scan_axis(spec(3.0), ATT, Channel.PLUS, samples_per_segment=4000)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert abs(pa.k - pb.k) < 1e-10

    def test_residual_invariant(self):
        for U, c, ch in ((3.0, ATT, Channel.PLUS), (5.0, ATT, Channel.MINUS), (0.09, REP, Channel.PLUS)):
            for p in scan_axis(spec(U), c, ch):
                assert p.residual < 1e-10 * (1.0 + abs(p.k))


class TestCoalescedPairs:
    def test_plus_repulsive_collision_depth(self):
        ps = scan_axis(spec(U_COLLIDE_PLUS_REP), REP, Channel.PLUS)
        assert kinds(ps) == [PoleKind.DOUBLE_ZERO]
        assert abs(ps[0].k - (-1j / A)) < 1e-6
        assert ps[0].multiplicity == 2

    def test_plus_attractive_collision_depth(self):
        ps = scan_axis(spec(U_COLLIDE_PLUS_ATT), ATT, Channel.PLUS)
        assert kinds(ps) == [PoleKind.DOUBLE_ZERO, PoleKind.BOUND]
        assert abs(ps[0].k - (-1j / A)) < 1e-6

    def test_minus_attractive_collision_depth(self):
        ps = scan_axis(spec(U_COLLIDE_MINUS_ATT), ATT, Channel.MINUS)
        assert kinds(ps) == [PoleKind.DOUBLE_ZERO, PoleKind.BOUND]
        assert abs(ps[0].k - (-1j / A)) < 1e-6

    def test_minus_axis_crossing_is_simple(self):
        # at U = 1/(2 m a^2) an odd-channel virtual pole passes through
        # k = -i/a without a partner; it must not be flagged as coalesced
        ps = scan_axis(spec(1.0 / (2 * M * A * A)), ATT, Channel.MINUS)
        assert kinds(ps) == [PoleKind.VIRTUAL]
        assert ps[0].multiplicity == 1
        assert abs(ps[0].k - (-1j / A)) < 1e-9

    def test_multiplicity_query_on_simple_pole(self):
        p = newton_refine(1.84j, ATT, spec(2.0), Channel.PLUS)
        assert multiplicity_at(p.k, ATT, spec(2.0), Channel.PLUS) == 1


class TestNewtonRefine:
    def test_idempotent_on_refined_pole(self):
        p = newton_refine(1.85j, ATT, spec(2.0), Channel.PLUS)
        q = newton_refine(p.k, ATT, spec(2.0), Channel.PLUS)
        assert abs(p.k - q.k) < 1e-12 * (1 + abs(p.k))

    def test_recovers_from_perturbation(self):
        p = newton_refine(1.85j, ATT, spec(2.0), Channel.PLUS)
        q = newton_refine(p.k + 1e-3 * (1 + 1j), ATT, spec(2.0), Channel.PLUS)
        assert abs(p.k - q.k) < 1e-11

    def test_trust_radius_violation(self):
        # a seed far from any zero wanders to a distant one
        with pytest.raises(wp.ConvergedElsewhere):
            newton_refine(3.0 + 0.0j, ATT, spec(2.0), Channel.PLUS, trust_radius=0.5)

    def test_no_convergence_with_tiny_budget(self):
        with pytest.raises(wp.NoConvergence):
            newton_refine(3.0 + 2.0j, ATT, spec(2.0), Channel.PLUS, max_iter=2)

    def test_classification_of_result(self):
        p = newton_refine(-0.4j, ATT, spec(2.0), Channel.PLUS)
        assert p.kind is PoleKind.VIRTUAL and p.multiplicity == 1


class TestCountZeros:
    def test_counts_axis_inventory(self):
        # box enclosing all three U=2 even-channel axis poles
        reg = CountRegion(lo=-3 - 3j, hi=3 + 3j, coupling=ATT, channel=Channel.PLUS)
        assert count_zeros(reg, spec(2.0)) == 3

    def test_single_pole_box(self):
        reg = CountRegion(lo=-0.5 + 1.5j, hi=0.5 + 2.2j, coupling=ATT, channel=Channel.PLUS)
        assert count_zeros(reg, spec(2.0)) == 1

    def test_empty_box(self):
        reg = CountRegion(lo=1.0 + 1.0j, hi=2.0 + 2.0j, coupling=ATT, channel=Channel.PLUS)
        assert count_zeros(reg, spec(2.0)) == 0

    def test_double_zero_box_counts_two(self):
        kc = -1j / A
        reg = CountRegion(
            lo=kc - 1e-3 * (1 + 1j), hi=kc + 1e-3 * (1 + 1j), coupling=REP, channel=Channel.PLUS
        )
        n, used = count_zeros_padded(reg, spec(U_COLLIDE_PLUS_REP))
        assert n == 2

    def test_edge_too_close_raised_and_nudged(self):
        # put the ground bound pole exactly on an edge
        p = newton_refine(1.85j, ATT, spec(2.0), Channel.PLUS)
        reg = CountRegion(
            lo=complex(-1.0, p.k.imag), hi=complex(1.0, p.k.imag + 1.0),
            coupling=ATT, channel=Channel.PLUS,
        )
        with pytest.raises(wp.EdgeTooClose):
            count_zeros(reg, spec(2.0))
        n, used = count_zeros_padded(reg, spec(2.0))
        assert n >= 1

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            CountRegion(lo=1 + 1j, hi=0 + 2j, coupling=ATT, channel=Channel.PLUS)

    def test_count_matches_scan_in_window(self):
        for U, c, ch in ((3.0, ATT, Channel.PLUS), (5.0, ATT, Channel.MINUS)):
            ps = scan_axis(spec(U), c, ch)
            lo = min(p.k.imag for p in ps) - 0.377
            hi = max(p.k.imag for p in ps) + 0.377
            reg = CountRegion(
                lo=complex(-1.1, lo), hi=complex(1.1, hi), coupling=c, channel=ch
            )
            assert count_zeros(reg, spec(U)) == len(ps)


class TestBrentPort:
    """The axis-root bracket solver is a port of scipy's brentq, bit for bit.

    The bracket root seeds Newton polishing and documents print 17
    significant digits, so one ulp of difference would change output bytes.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        U=st.floats(1e-3, 300.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        coupling=st.sampled_from([ATT, REP]),
    )
    def test_axis_brackets_match_scipy_exactly(self, m, a, U, channel, coupling):
        sp = PotentialSpec(m, a, U)
        gamma = coupling.gamma
        ch = channel.code

        def phi_at(x):
            return float(_k.axis_phi(np.array([x]), gamma, m, a, U, ch)[0])

        # the segments and the 2000-sample grid of scan_axis
        lo, hi = default_kappa_range(sp)
        cuts = [lo, hi]
        if gamma.real > 0:
            kb = math.sqrt(2.0 * m * U)
            cuts += [c for c in (-kb, kb) if lo < c < hi]
        cuts = sorted(set(cuts))
        for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
            kap = np.linspace(seg_lo, seg_hi, 2000)
            s = np.sign(_k.axis_phi(kap, gamma, m, a, U, ch))
            for i in np.flatnonzero(s[:-1] * s[1:] < 0.0):
                ref = brentq(phi_at, kap[i], kap[i + 1], xtol=1e-13, rtol=1e-15)
                assert _brentq(phi_at, kap[i], kap[i + 1]) == ref

    def test_same_sign_bracket_raises_like_scipy(self):
        with pytest.raises(ValueError):
            brentq(math.cos, 2.0, 4.0, xtol=1e-13, rtol=1e-15)
        with pytest.raises(ValueError):
            _brentq(math.cos, 2.0, 4.0)

    def test_nonconvergence_raises_like_scipy(self):
        with pytest.raises(RuntimeError):
            brentq(math.sin, 2.0, 4.5, xtol=1e-13, rtol=1e-15, maxiter=3)
        with pytest.raises(RuntimeError):
            _brentq(math.sin, 2.0, 4.5, maxiter=3)

    def test_underflowing_extrapolation_bisects_like_scipy(self):
        # the extrapolation denominator underflows to zero; C division gives
        # inf there, which the port must reproduce rather than raise
        def f(x):
            return 1e-200 * (x - 0.5)

        for lo, hi in ((-0.12, 2.18), (-2.12, 2.48), (-0.87, 2.57)):
            assert _brentq(f, lo, hi) == brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)
