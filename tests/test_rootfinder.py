"""Axis scans, Newton refinement, winding counts, multiplicity detection."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import wellpoles as wp
from wellpoles import _kernels as _k
from wellpoles import Channel, ComplexCoupling, PotentialSpec
from wellpoles.errors import NoRootInBracket
from wellpoles.smatrix import C_LIMIT
from wellpoles.chart import bound_count, threshold_flip
from wellpoles.trajectory import window_extents
from wellpoles.rootfinder import (
    _PAIR_BALL,
    RESIDUAL_TOL,
    _bracketed_newton,
    _y_sinh_form,
    _edge_winding,
    Pole,
    PoleKind,
    axis_momenta,
    bound_threshold,
    classify,
    collision_depth,
    collision_pair_count,
    collision_x,
    collisions_between,
    count_step_depth,
    count_zeros,
    count_zeros_padded,
    level_set_components,
    multiplicity_at,
    newton_refine,
    residual_ratio,
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


def _axis_phi(kappas, coupling, sp, channel):
    """The kernel's axis function at k = i*kappa of the well sp, in q = k*a."""
    return _k.axis_phi([sp.a * x for x in kappas], sp.c ** 2 * coupling.gamma.real, channel.code)


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
        # the kind is read off the multiplicity and position
        with pytest.raises(ValueError):
            Pole(1j, Channel.PLUS, ATT, 3, 0.0, A)
        assert Pole(1j, Channel.PLUS, ATT, 2, 0.0, A).kind is PoleKind.DOUBLE_ZERO
        assert Pole(1j, Channel.PLUS, ATT, 1, 0.0, A).kind is PoleKind.BOUND


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
        # the sampled sign-change reference at two grid densities finds
        # the scan's poles, one per cell, and Newton from each cell's
        # midpoint lands on the scan's value
        ps = scan_axis(spec(3.0), ATT, Channel.PLUS)
        lo, hi = _axis_span(M, A, 3.0)
        for samples in (2000, 4000):
            kap = np.linspace(lo, hi, samples)
            cells, exact = _grid_cells(_axis_phi(kap, ATT, spec(3.0), Channel.PLUS))
            assert len(cells) == len(ps)
            for i, zero, p in zip(cells.tolist(), exact.tolist(), ps):
                if zero:
                    assert p.k.imag == kap[i]
                    continue
                assert kap[i] < p.k.imag < kap[i + 1]
                mid = 0.5 * (kap[i] + kap[i + 1])
                q = newton_refine(1j * mid, ATT, spec(3.0), Channel.PLUS)
                assert abs(q.k - p.k) < 1e-10

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


# (channel, attractive) of every pair collision, the odd repulsive coupling
# having none
_COLLISIONS = [(Channel.PLUS, True), (Channel.MINUS, True), (Channel.PLUS, False)]
_EPSILONS = [0.0] + [s * 10.0 ** -p for s in (1.0, -1.0) for p in range(11, 17)]


def _box_and_restarts(k, coupling, spec, channel):
    """The evidence of the box-count-and-restart multiplicity test.

    The zero count on a box of half-width 1e-3 around k (None when the
    contour grazes a zero), and where four Newton restarts from 3e-4 away
    converge, as distances from k (None for a restart that does not
    converge).
    """
    r = 1e-3
    # the box in q about q = a*k on the imaginary axis, at s = c^2*gamma
    a = spec.a
    y, h = a * k.imag, a * r
    s = spec.c ** 2 * coupling.gamma.real
    # four tries, each growing the box by 0.3*r more on every edge
    n = None
    for attempt in range(4):
        try:
            n = count_zeros(h, y - h, y + h, s, channel)
            break
        except wp.EdgeTooClose:
            h += 0.3 * a * r * (attempt + 1)
    landings = []
    for dk in (r * 0.3, -r * 0.3, r * 0.3j, -r * 0.3j):
        q, _, ok, _ = _k.newton_pole(
            spec.a * (k + dk), spec.c ** 2 * coupling.gamma, channel.code, 80
        )
        landings.append(abs(q / spec.a - k) if ok else None)
    return n, landings


def _reference_multiplicity(n, landings, ball):
    """The box-count-and-restart rule multiplicity_at applied before the
    closed form: 2 when the box holds two zeros and no converged restart
    lands farther than the pair ball from k; a restart that does not
    converge does not veto."""
    if n != 2:
        return 1
    return 1 if any(d is not None and d > ball for d in landings) else 2


def _ball(xc, a):
    """The pair ball of a collision in k: _PAIR_BALL in units of x_c/a, the
    scale of the pair offset at a float collision depth."""
    return _PAIR_BALL * xc / a


def _exact_pair_offset(channel, attractive, m, a, U, xc):
    """|k - (-i/a)| of the collision's pair, solved in 60-digit arithmetic
    for the float inputs, through the interior-momentum ratio of the cell."""
    mp = pytest.importorskip("mpmath")
    if not attractive:
        ratio, a_kappa = (lambda y: y / mp.cosh(y)), (lambda y: -y * mp.tanh(y))
        stationary = lambda y: mp.cosh(y) - y * mp.sinh(y)
    elif channel is Channel.PLUS:
        ratio, a_kappa = (lambda x: x / mp.cos(x)), (lambda x: x * mp.tan(x))
        stationary = lambda x: mp.cos(x) + x * mp.sin(x)
    else:
        ratio, a_kappa = (lambda x: x / mp.sin(x)), (lambda x: -x / mp.tan(x))
        stationary = lambda x: mp.sin(x) - x * mp.cos(x)
    with mp.workdps(60):
        x0 = mp.findroot(stationary, mp.mpf(xc))
        sign = mp.sign(ratio(x0))
        c = mp.mpf(a) * mp.sqrt(2 * mp.mpf(m) * mp.mpf(U))
        f = lambda x: sign * ratio(x) - c
        dx = mp.sqrt(-2 * f(x0) / mp.diff(f, x0, 2))
        x1 = mp.findroot(f, x0 + dx)
        return float(abs(1j * a_kappa(x1) / mp.mpf(a) + 1j / mp.mpf(a)))


class TestClosedFormMultiplicity:
    """multiplicity_at is a closed-form test: a real coupling, k within the
    pair ball of -i/a, and an axis pair within that ball of it. The ball is
    _PAIR_BALL in units of x_c/a."""

    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        collision=st.sampled_from(_COLLISIONS),
        index=st.integers(1, 3),
        eps=st.sampled_from(_EPSILONS),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_box_count_and_restarts(self, m, a, collision, index, eps):
        channel, attractive = collision
        if not attractive:
            index = 1
        xc = collision_x(channel, attractive, index)
        U = (xc * xc + (1.0 if attractive else -1.0)) / (2.0 * m * a * a) * (1.0 + eps)
        sp = PotentialSpec(m, a, U)
        coupling = ATT if attractive else REP
        kc = -1j / a
        new = multiplicity_at(kc, coupling, sp, channel)
        exact = _exact_pair_offset(channel, attractive, m, a, U, xc)
        ball = _ball(xc, a)
        # the float c = a sqrt(2 m U) carries a few ulp, which moves the
        # squared offset by up to (x_c/a)^2 * 4e-15
        blur = 1e-3 * ball ** 2 + (xc / a) ** 2 * 4e-15
        if abs(exact ** 2 - ball ** 2) > blur:
            assert new == (2 if exact < ball else 1)
        n, landings = _box_and_restarts(kc, coupling, sp, channel)
        converged = [d for d in landings if d is not None]
        # the old rule decides on evidence only where the box does not hold
        # two zeros or a restart converged clear of the ball's edge; a
        # restart on a near-double zero often loses its step test to
        # roundoff, and then the old rule answered 2 by default
        if n != 2 or (converged and not any(0.5 * ball < d < 2.0 * ball
                                            for d in converged)):
            assert new == _reference_multiplicity(n, landings, ball)

    @pytest.mark.parametrize("channel,coupling,U", [
        (Channel.PLUS, ATT, U_COLLIDE_PLUS_ATT),
        (Channel.MINUS, ATT, U_COLLIDE_MINUS_ATT),
        (Channel.PLUS, REP, U_COLLIDE_PLUS_REP),
    ])
    def test_needs_the_point_and_a_real_coupling(self, channel, coupling, U):
        kc = -1j / A
        ball = _ball(collision_x(channel, coupling is ATT, 1), A)
        assert multiplicity_at(kc, coupling, spec(U), channel) == 2
        assert multiplicity_at(kc + 2j * ball, coupling, spec(U), channel) == 1
        assert multiplicity_at(kc, ComplexCoupling(coupling.alpha + 1e-9), spec(U), channel) == 1
        other = REP if coupling is ATT else ATT
        assert multiplicity_at(kc, other, spec(U), channel) == 1


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


def _s(U: float, coupling: ComplexCoupling = ATT) -> float:
    """s = c^2*gamma of the test well at depth U and a real coupling."""
    return spec(U).c ** 2 * coupling.gamma.real


class TestCountZeros:
    """Rectangles in q = k*a, stated as k times A."""

    def test_counts_axis_inventory(self):
        # |Re k|, |Im k| <= 3 holds all three U=2 even-channel axis poles
        assert count_zeros(3 * A, -3 * A, 3 * A, _s(2.0), Channel.PLUS) == 3

    def test_single_pole_box(self):
        assert count_zeros(0.5 * A, 1.5 * A, 2.2 * A, _s(2.0), Channel.PLUS) == 1

    def test_empty_box(self):
        # above the ground bound state at k = 1.85i the upper half plane
        # holds no pole
        assert count_zeros(2.0 * A, 2.0 * A, 3.0 * A, _s(2.0), Channel.PLUS) == 0

    def test_double_zero_box_counts_two(self):
        h = 1e-3 * A
        s = _s(U_COLLIDE_PLUS_REP, REP)
        assert count_zeros_padded(h, -1.0 - h, -1.0 + h, s, Channel.PLUS) == 2

    def test_edge_too_close_raised_and_nudged(self):
        # put the ground bound pole exactly on an edge
        y = newton_refine(1.85j, ATT, spec(2.0), Channel.PLUS).q.imag
        with pytest.raises(wp.EdgeTooClose):
            count_zeros(A, y, y + A, _s(2.0), Channel.PLUS)
        assert count_zeros_padded(A, y, y + A, _s(2.0), Channel.PLUS) >= 1

    def test_invalid_region(self):
        for rectangle in ((0.0, -1.0, 1.0, 9.0), (-1.0, -1.0, 1.0, 9.0),
                          (1.0, 1.0, 1.0, 9.0), (1.0, 2.0, 1.0, 9.0), (math.nan, -1.0, 1.0, 9.0),
                          (1.0, -1.0, 1.0, 9.0 + 1e-9j), (1.0, -1.0, 1.0, 9.0j)):
            with pytest.raises(ValueError):
                count_zeros(*rectangle, Channel.PLUS)

    def test_ambiguous_winding_names_the_rectangle(self, monkeypatch):
        # three edges of pi/6 each, doubled: half a turn
        monkeypatch.setattr(wp.rootfinder, "_edge_winding", lambda *args: math.pi / 6)
        with pytest.raises(wp.EdgeTooClose) as exc:
            count_zeros(3.0, -1.0, 2.0, 9.0, Channel.MINUS)
        assert exc.value.where == -3 - 1j
        assert str(exc.value) == "ambiguous winding 0.500000 on |Re q| <= 3.0, -1.0 <= Im q <= 2.0"

    def test_count_matches_scan_in_window(self):
        for U, c, ch in ((3.0, ATT, Channel.PLUS), (5.0, ATT, Channel.MINUS)):
            ps = scan_axis(spec(U), c, ch)
            lo = min(p.k.imag for p in ps) - 0.377
            hi = max(p.k.imag for p in ps) + 0.377
            assert count_zeros(1.1 * A, lo * A, hi * A, _s(U, c), ch) == len(ps)


def _four_edge_count(re_max, im_lo, im_hi, s, channel):
    """The winding over all four edges of the rectangle in q, in turns."""
    corners = [complex(-re_max, im_lo), complex(re_max, im_lo),
               complex(re_max, im_hi), complex(-re_max, im_hi)]
    total = sum(
        _edge_winding(z0, z1, s, channel.code)
        for z0, z1 in zip(corners, corners[1:] + corners[:1])
    )
    return total / (2.0 * math.pi)


class TestHalfWalk:
    """The count walks the right half of its rectangle, which is symmetric
    about the imaginary axis, and doubles it; the four-edge walk is the
    oracle. A complex coupling is refused."""

    @staticmethod
    def _grids(monkeypatch):
        grids = []
        grid = _k.grid_denom_dk

        def counted(ks, *args):
            grids.append(list(ks))
            return grid(ks, *args)

        monkeypatch.setattr(_k, "grid_denom_dk", counted)
        return grids

    @pytest.mark.parametrize("lo,hi,coupling,walked", [
        (-3 - 3j, 3 + 3j, ATT, True),
        (-3 - 3j, 3 + 3j, REP, True),
        (-3 - 3j, 3 + 3j, ComplexCoupling(0.3), False),
    ])
    def test_walk_follows_region_and_coupling(self, monkeypatch, lo, hi, coupling, walked):
        # the rectangle lo..hi in k of the U = 2 well
        rectangle = (A * hi.real, A * lo.imag, A * hi.imag, spec(2.0).c ** 2 * coupling.gamma)
        grids = self._grids(monkeypatch)
        if not walked:
            with pytest.raises(ValueError):
                count_zeros(*rectangle, Channel.PLUS)
            assert grids == []
            return
        ref = _four_edge_count(*rectangle, Channel.PLUS)
        grids.clear()
        assert count_zeros(*rectangle, Channel.PLUS) == round(ref)
        assert [len(ks) for ks in grids] == [17, 33, 17]
        assert min(k.real for ks in grids for k in ks) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        log_U=st.floats(math.log(1e-3), math.log(300.0)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        coupling=st.sampled_from([ATT, REP]),
        fx=st.floats(0.05, 1.0),
        f0=st.floats(0.05, 1.0),
        f1=st.floats(0.05, 1.0),
    )
    def test_symmetric_count_equals_four_edge_walk(
        self, m, a, log_U, channel, coupling, fx, f0, f1
    ):
        # a part of the working window, which is the certificate's rectangle
        sp = PotentialSpec(m, a, math.exp(log_U))
        re_max, im_depth, im_max = window_extents(sp.c)
        rectangle = (fx * re_max, -f0 * im_depth, f1 * im_max, sp.c ** 2 * coupling.gamma.real)
        try:
            ref = _four_edge_count(*rectangle, channel)
        except wp.EdgeTooClose:
            ref = math.nan
        # a zero on the contour, or an ambiguous winding, is no count
        assume(abs(ref - round(ref)) <= 0.05 if ref == ref else False)
        assert count_zeros(*rectangle, channel) == round(ref)


@functools.lru_cache(maxsize=None)
def _mp_collision_x(odd: bool, attractive: bool, index: int):
    """The index-th stationary point of the axis ratio (see ``collision_x``),
    by mpmath's bracketed solver at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        if not attractive:
            return mp.findroot(lambda t: mp.cosh(t) - t * mp.sinh(t), (1, 2), solver="anderson")
        if odd:
            return mp.findroot(lambda t: mp.sin(t) - t * mp.cos(t),
                               (index * mp.pi, (index + 0.5) * mp.pi), solver="anderson")
        return mp.findroot(lambda t: mp.cos(t) + t * mp.sin(t),
                           ((index - 0.5) * mp.pi, index * mp.pi), solver="anderson")


def _mp_axis_root(q: complex, c: float, attractive: bool, odd: bool):
    """a*kappa of the root of the cell equation next to the axis pole q,
    by mpmath's bracketed solver at 40 digits, or None when its bracket
    holds no sign change.

    The pole's interior momentum x = a|K|, from x^2 = c^2 - (a kappa)^2
    (attractive, real K) or y^2 = (a kappa)^2 -+ c^2 (imaginary K), names
    the cell; the equation x = c|cos x|, x = c|sin x|, y = c cosh y or
    y = c sinh y is solved on a bracket of width 2e-5 about it, cut at the
    cell's ends and at its collision point, so that it holds one root."""
    import mpmath as mp

    with mp.workdps(40):
        c = mp.mpf(c)
        kappa = mp.mpf(q.imag)
        real_k = attractive and kappa * kappa < c * c
        if real_k:
            x0 = mp.sqrt(c * c - kappa * kappa)
            n = int(mp.floor(x0 / mp.pi + (0 if odd else 0.5)))
            lo, hi = ((n * mp.pi, (n + 1) * mp.pi) if odd
                      else (max(n - 0.5, 0) * mp.pi, (n + 0.5) * mp.pi))
            xc = _mp_collision_x(odd, True, n) if n else None
            trig = mp.sin if odd else mp.cos

            def f(x):
                return x - c * abs(trig(x))

            def a_kappa(x):
                return -x / mp.tan(x) if odd else x * mp.tan(x)
        else:
            x0 = mp.sqrt(kappa * kappa + (-1 if attractive else 1) * c * c)
            lo, hi = mp.mpf(0), mp.inf
            xc = None if attractive else _mp_collision_x(False, False, 1)
            hyp = mp.sinh if attractive else mp.cosh

            def f(x):
                return x - c * hyp(x)

            def a_kappa(x):
                return -x / mp.tanh(x) if attractive else -x * mp.tanh(x)
        if xc is not None:
            lo, hi = (lo, xc) if x0 < xc else (xc, hi)
        ends = (max(lo, x0 - mp.mpf("1e-5")), min(hi, x0 + mp.mpf("1e-5")))
        # the odd forms vanish at 0 too
        if ends[0] == 0:
            ends = (x0 / 2, ends[1])
        if f(ends[0]) * f(ends[1]) >= 0:
            return None
        return a_kappa(mp.findroot(f, ends, solver="anderson"))


class TestAxisMomenta:
    """``axis_momenta`` is ``scan_axis`` without its records: the same k,
    bit for bit, in the same order."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        c=st.one_of(st.just(0.0),
                    st.floats(math.log(1e-6), math.log(C_LIMIT)).map(math.exp)),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        coupling=st.sampled_from([ATT, REP]),
    )
    @example(m=M, a=A, c=0.0, channel=Channel.PLUS, coupling=ATT)
    @example(m=M, a=A, c=C_LIMIT, channel=Channel.MINUS, coupling=ATT)
    def test_equals_the_scan_bit_for_bit(self, m, a, c, channel, coupling):
        try:
            sp = PotentialSpec(m, a, c * c / (2.0 * m * a * a))
        except ValueError:  # c rounded past C_LIMIT
            assume(False)
        bits = lambda ks: [(k.real.hex(), k.imag.hex()) for k in ks]
        assert bits(axis_momenta(sp, coupling, channel)) == bits(
            p.k for p in scan_axis(sp, coupling, channel))

    def test_refuses_a_complex_coupling(self):
        with pytest.raises(ValueError, match="real coupling"):
            axis_momenta(spec(1.0), ComplexCoupling(0.3), Channel.PLUS)


class TestLevelSetComponents:
    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1.0, 200.0), channel=st.sampled_from([Channel.PLUS, Channel.MINUS]))
    def test_axis_seeds_of_one_interval_share_a_component(self, c, channel):
        # for c >= 1 the alpha = 0 axis seeds end the intervals of
        # u >= c|cos u| (|sin u| odd), u = Re z: two seeds next to each other
        # in u share a component exactly when the midpoint between them lies
        # in the set, and the seed of largest u ends the open curve
        spec = PotentialSpec(1.0, 1.0, c * c / 2.0)
        assert scan_axis(spec, REP, channel) == []
        seeds = scan_axis(spec, ATT, channel)
        assume(all(p.multiplicity == 1 for p in seeds))
        component = level_set_components(seeds, c)
        trig = math.sin if channel is Channel.MINUS else math.cos
        ranked = sorted((math.sqrt(c * c + (p.k * p.k).real), component(p.k, 0.0)) for p in seeds)
        assert ranked[-1][1] == 0
        for (u0, n0), (u1, n1) in zip(ranked, ranked[1:]):
            mid = 0.5 * (u0 + u1)
            assert (n0 == n1) == (mid >= c * abs(trig(mid)))


class TestAxisRootOracle:
    """The axis roots against mpmath at 40 digits: the cell equations of
    ``scan_axis`` and the collision equations of ``collision_x``, each
    solved by a bracketed solver independent of ``_bracketed_newton``."""

    # a fixed example set: near c = C_LIMIT the float pole function places
    # some poles only to about this tolerance (the pole -79.82i at c = 1e4
    # reads 1.4 times it), so random draws would make the test flaky
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        U=st.floats(math.log(1e-3), math.log(1e8)).map(math.exp),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        coupling=st.sampled_from([ATT, REP]),
    )
    # the deepest well of TestClosedFormScan, c = 9950
    @example(m=M, a=A, U=2.2e7, channel=Channel.PLUS, coupling=ATT)
    def test_every_axis_pole_is_a_root_of_its_cell_equation(self, m, a, U, channel, coupling):
        pytest.importorskip("mpmath")
        c = a * math.sqrt(2.0 * m * U)
        # below c ~ 0.05 the q-polish moves far imaginary-K poles off their
        # cell roots (test_weak_well_polish_leaves_the_cell_root)
        assume(0.05 <= c <= C_LIMIT)
        sp = PotentialSpec(m, a, U)
        for p in scan_axis(sp, coupling, channel):
            q = a * p.k
            if p.multiplicity == 2:
                assert q == -1j
                continue
            ref = _mp_axis_root(q, c, coupling is ATT, channel is Channel.MINUS)
            assert ref is not None, q
            assert abs(float(ref) - q.imag) <= 1e-12 * (1.0 + abs(q)), (q, float(ref))

    @pytest.mark.xfail(strict=True, reason="the pole function cancels at a weak coupling, "
                       "and Newton in q moves the exact cell root by ~2e-8")
    @pytest.mark.parametrize("channel,coupling", [(Channel.PLUS, REP), (Channel.MINUS, ATT)])
    def test_weak_well_polish_leaves_the_cell_root(self, channel, coupling):
        # c = 1e-3: the imaginary-K pole at a*kappa ~ -9.89 is a root of its
        # cell equation to 1e-16 before the polish and 2e-9 relative after it
        pytest.importorskip("mpmath")
        c = 1e-3
        for p in scan_axis(PotentialSpec(0.5, 1.0, c * c), coupling, channel):
            ref = _mp_axis_root(p.k, c, coupling is ATT, channel is Channel.MINUS)
            assert abs(float(ref) - p.k.imag) <= 1e-12 * (1.0 + abs(p.k))

    @pytest.mark.parametrize("channel,attractive,indices", [
        (Channel.PLUS, True, range(1, 21)),
        (Channel.MINUS, True, range(1, 21)),
        (Channel.PLUS, False, [1]),
    ], ids=["plus-attractive", "minus-attractive", "plus-repulsive"])
    def test_collision_points_match_mpmath(self, channel, attractive, indices):
        pytest.importorskip("mpmath")
        for index in indices:
            ref = _mp_collision_x(channel is Channel.MINUS, attractive, index)
            x = collision_x(channel, attractive, index)
            assert abs(x - ref) <= 1e-15 * ref, index


class TestBrentPort:
    """The collision equations of ``collision_x`` against scipy's brentq.

    Newton on each equation's closed-form derivative rounds the root
    correctly, so ``collision_x`` equals the mpmath root rounded to a float,
    bit for bit; scipy's brentq on the same bracket stops within its stated
    tolerance of that root, which is what a bracket solver guarantees.
    """

    @pytest.mark.parametrize("index", [1, 2, 7, 40])
    def test_collision_brackets_match_scipy_exactly(self, index):
        pytest.importorskip("mpmath")
        equations = [
            (Channel.PLUS, True, lambda t: math.cos(t) + t * math.sin(t),
             (index - 0.5) * math.pi, index * math.pi),
            (Channel.MINUS, True, lambda t: math.sin(t) - t * math.cos(t),
             index * math.pi, (index + 0.5) * math.pi),
        ]
        if index == 1:
            equations.append(
                (Channel.PLUS, False, lambda t: math.cosh(t) - t * math.sinh(t), 1.0, 2.0))
        for channel, attractive, f, lo, hi in equations:
            x = collision_x(channel, attractive, index)
            assert x == float(_mp_collision_x(channel is Channel.MINUS, attractive, index))
            ref = brentq(f, lo, hi, xtol=1e-13, rtol=1e-15)
            # scipy's contract: np.allclose(root, ref, atol=xtol, rtol=rtol)
            assert abs(ref - x) <= 1e-13 + 1e-15 * abs(ref), (channel, attractive)


class TestBracketedNewton:
    """The axis-root solver where plain Newton from the bracket end fails."""

    def test_creeping_iterates_bisect(self):
        # y - c sinh y at c = 1.4e-149 from y = 512, where c sinh y >> y:
        # each Newton step moves by about 1 toward the root at 349.3, and
        # the bracket's bisections bring it there in a few evaluations
        mp = pytest.importorskip("mpmath")
        c = PotentialSpec(0.01, 100.0, 1e-300).c
        calls = []

        def g(y):
            calls.append(y)
            return _y_sinh_form(c)(y)

        y = _bracketed_newton(g, 512.0, 0.0)
        with mp.workdps(40):
            ref = mp.findroot(lambda t: mp.log(t / mp.sinh(t) / c), (300, 400), solver="anderson")
        assert abs(y - ref) <= 1e-15 * ref
        assert len(calls) < 20

    def test_step_onto_the_bracket_end(self):
        # c = 1e-30: from x = pi/2 the first step of x - c cos x rounds
        # onto x = 0, which is evaluated, and the root x ~ c follows
        sp = PotentialSpec(0.5, 1.0, 1e-60)
        (pole,) = scan_axis(sp, ATT, Channel.PLUS)
        assert pole.k.imag == pytest.approx(sp.c ** 2, rel=1e-12, abs=0.0)


class TestCollisionCache:
    """collision_x depends on (channel, attractive, index) alone, so each
    collision equation is solved once and cached."""

    def test_cached_root_is_the_solved_root(self):
        keys = [(Channel.PLUS, False, 1)] + [
            (channel, True, index) for channel in (Channel.PLUS, Channel.MINUS)
            for index in range(1, 41)
        ]
        for key in keys:
            assert collision_x(*key) == collision_x.__wrapped__(*key)
            assert collision_x(*key) == collision_x.__wrapped__(*key)

    def test_repeated_scan_solves_no_equation_twice(self):
        collision_x.cache_clear()
        for _ in range(2):
            for channel in (Channel.PLUS, Channel.MINUS):
                for coupling in (ATT, REP):
                    scan_axis(spec(50.0), coupling, channel)
        info = collision_x.cache_info()
        # a miss is a solve; every solved key was new
        assert info.misses == info.currsize > 5
        assert info.hits >= info.misses


_PAIR_COLLISIONS = [
    (channel, True, index) for channel in (Channel.PLUS, Channel.MINUS) for index in range(1, 5)
] + [(Channel.PLUS, False, 1)]


def _well_pair_count(channel, attractive, index, m, a):
    """The pair count of one well at its collision depth, walked at the
    well's own s = +-c^2 over the square of half-side 1e-3 about q = -i, its
    k = -i/a; None when the walk fails."""
    sp = PotentialSpec(m=m, a=a, U=collision_depth(channel, attractive, m, a, index))
    s = sp.c ** 2 if attractive else -sp.c ** 2
    try:
        return count_zeros_padded(1e-3, -1.0 - 1e-3, -1.0 + 1e-3, s, channel)
    except wp.EdgeTooClose:
        return None


class TestCollisionPairCount:
    """collision_pair_count counts a collision's pair once, in q, at c*; each
    well's own count about its k = -i/a is the oracle."""

    @pytest.mark.parametrize("m", [0.2, 1.0, 10.0])
    @pytest.mark.parametrize("a", [1e-6, 1e-3, 1.5, 1e3, 1e9])
    def test_equals_every_wells_count(self, m, a):
        for key in _PAIR_COLLISIONS:
            assert _well_pair_count(*key, m, a) == collision_pair_count(*key) == 2

    def test_counted_once_per_collision(self, monkeypatch):
        walks = []

        def counted(*rectangle, _walk=count_zeros_padded):
            walks.append(rectangle)
            return _walk(*rectangle)

        monkeypatch.setattr(wp.rootfinder, "count_zeros_padded", counted)
        for _ in range(3):
            for key in _PAIR_COLLISIONS:
                assert collision_pair_count(*key) == 2
        assert len(walks) == len(_PAIR_COLLISIONS)
        info = collision_pair_count.cache_info()
        assert (info.misses, info.hits) == (len(_PAIR_COLLISIONS), 2 * len(_PAIR_COLLISIONS))


def _walked_collisions(channel, m, a, u_lo, u_hi):
    """(attractive, index, U*) in [u_lo, u_hi]: each coupling walked from
    index 1 until its collisions run out or pass u_hi."""
    found = []
    for attractive in (True, False):
        index = 1
        while True:
            try:
                u_star = collision_depth(channel, attractive, m, a, index)
            except NoRootInBracket:
                break
            if u_star > u_hi:
                break
            if u_star >= u_lo:
                found.append((attractive, index, u_star))
            index += 1
    return found


def _band_end(channel, m, a, end):
    """A band end: a float, or (index, ulps) for that many float spacings
    from the index-th attractive U* (index >= 1), the even repulsive U*
    (index -1) or zero depth (index 0)."""
    if isinstance(end, float):
        return end
    index, ulps = end
    if index == 0:
        return 0.0
    u = collision_depth(Channel.PLUS, False, m, a, 1) if index < 0 else collision_depth(
        channel, True, m, a, index)
    for _ in range(abs(ulps)):
        u = math.nextafter(u, math.inf if ulps > 0 else 0.0)
    return u


_BAND_END = st.one_of(
    st.floats(0.0, 300.0),
    st.tuples(st.integers(-1, 12), st.integers(-1, 1)),
)


class TestCollisionsBetween:
    """collisions_between starts its walk past every index its brackets put
    below the band, and states the repulsive collisions directly."""

    @given(m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
           channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
           lo=_BAND_END, hi=_BAND_END)
    @settings(max_examples=200, deadline=None)
    def test_equals_a_walk_from_index_one(self, m, a, channel, lo, hi):
        u_lo, u_hi = sorted((_band_end(channel, m, a, lo), _band_end(channel, m, a, hi)))
        assert collisions_between(channel, m, a, u_lo, u_hi) == _walked_collisions(
            channel, m, a, u_lo, u_hi)

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    @pytest.mark.parametrize("index", [1, 2, 7, 40])
    def test_band_on_one_depth(self, channel, index):
        u_star = collision_depth(channel, True, M, A, index)
        assert collisions_between(channel, M, A, u_star, u_star) == [(True, index, u_star)]
        # a band ending one float below it holds the index - 1 below
        below = [i for att, i, _ in collisions_between(
            channel, M, A, 0.0, math.nextafter(u_star, 0.0)) if att]
        assert below == list(range(1, index))

    def test_repulsive_collisions(self):
        u_rep = collision_depth(Channel.PLUS, False, M, A, 1)
        assert collisions_between(Channel.PLUS, M, A, u_rep, u_rep) == [(False, 1, u_rep)]
        # the odd repulsive coupling has none, whatever the band
        assert all(att for att, _, _ in collisions_between(Channel.MINUS, M, A, 0.0, 300.0))


class TestCountStepDepth:
    """count_step_depth is the depth at which bound_count steps from n."""

    @given(m=st.floats(0.2, 10.0), a=st.floats(0.1, 6.0),
           channel=st.sampled_from([Channel.PLUS, Channel.MINUS]), n=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_count_steps_once_within_eight_spacings(self, m, a, channel, n):
        u = count_step_depth(channel, n, m, a)
        for _ in range(8):
            u = math.nextafter(u, 0.0)
        us = [u]
        for _ in range(16):
            us.append(math.nextafter(us[-1], math.inf))
        counts = [bound_count(PotentialSpec(m, a, u), channel) for u in us]
        assert (counts[0], counts[-1]) == (n, n + 1)
        assert sum(c0 != c1 for c0, c1 in zip(counts, counts[1:])) == 1


class TestScalarAxisFunction:
    """``axis_phi``, the sampled axis reference, against the scalar kernel."""

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    @pytest.mark.parametrize("coupling", [ATT, REP])
    def test_matches_array_axis_phi(self, channel, coupling):
        kap = np.linspace(-9.0, 9.0, 301)
        s = spec(2.0).c ** 2 * coupling.gamma
        grid = _k.axis_phi(kap, s.real, channel.code)
        point = []
        for x in kap.tolist():
            d = _k.denom_scaled(complex(0.0, x), s, channel.code)[0]
            point.append((-1j * d).real if channel is Channel.PLUS else d.real)
        assert grid == point


def _grid_cells(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-change cells of a sampled axis function, the scan's reference.

    Returns (cells, exact) in increasing sample order: ``cells`` holds every
    sample that is an exact zero or starts a sign change, with ``exact``
    flagging the exact zeros.
    """
    s = np.sign(phi)
    exact = s == 0.0
    root_cell = exact.copy()
    root_cell[:-1] |= s[:-1] * s[1:] < 0.0
    cells = np.flatnonzero(root_cell)
    return cells, exact[cells]


def _reference_cells(phi):
    """The per-element loop that _grid_cells vectorizes."""
    s = np.sign(phi)
    cells, exact = [], []
    for i in range(phi.size - 1):
        if s[i] == 0.0:
            cells.append(i)
            exact.append(True)
        elif s[i] * s[i + 1] < 0.0:
            cells.append(i)
            exact.append(False)
    if s[-1] == 0.0:
        cells.append(phi.size - 1)
        exact.append(True)
    return cells, exact


# few distinct values, so exact zeros and signed zeros are common
_grid_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2e-9, 1.0, -1.0, 3.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


class TestGridCells:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_grid_values, min_size=2, max_size=40))
    def test_matches_per_element_loop(self, values):
        phi = np.array(values)
        cells, exact = _grid_cells(phi)
        ref_cells, ref_exact = _reference_cells(phi)
        assert cells.tolist() == ref_cells
        assert exact.tolist() == ref_exact

    def test_fixed_cases(self):
        # zero cells first, last and inside; -0.0 is a zero; a zero next
        # to a sign change is one cell of each kind
        phi = np.array([0.0, 1.0, -1.0, 1.0, 1.0, -0.0, -1.0, 1.0, 0.0])
        cells, exact = _grid_cells(phi)
        assert cells.tolist() == [0, 1, 2, 5, 6, 8]
        assert exact.tolist() == [True, False, False, True, False, True]
        assert _grid_cells(np.ones(5))[0].tolist() == []
        assert _grid_cells(np.zeros(3))[0].tolist() == [0, 1, 2]


class TestWorkCount:
    """The axis scan and the threshold search never sample a grid."""

    @pytest.mark.parametrize("channel", [Channel.PLUS, Channel.MINUS])
    @pytest.mark.parametrize("coupling", [ATT, REP])
    def test_no_array_kernel_calls(self, monkeypatch, channel, coupling):
        calls = []
        for name in ("grid_denom_dk", "axis_phi"):
            def counted(ks, *args, _name=name, _grid=getattr(_k, name)):
                calls.append((_name, len(ks)))
                return _grid(ks, *args)

            monkeypatch.setattr(_k, name, counted)
        for U in (0.09, 2.0, 50.0):
            scan_axis(spec(U), coupling, channel)
        u_n = bound_threshold(channel, 2, M, A)
        threshold_flip(channel, 0.9 * u_n, 1.1 * u_n, M, A, tol=1e-6)
        assert calls == []


# two axis poles of a pair this close to its collision depth (relative) may
# sit closer together than the dense grid below resolves, or a split-off
# plane pair closer to the axis than the count box half-width
_COLLISION_MARGIN = 1e-3
_THRESHOLD_MARGIN = 1e-6


def _axis_span(m, a, U):
    """An imaginary-axis interval holding every axis pole, from bounds alone.

    Real interior momentum gives |kappa| <= c/a, c = a sqrt(2 m U);
    imaginary interior momentum y gives |kappa| <= (y + 1)/a, and its roots
    of y/cosh y = c and y/sinh y = c obey y <= 2 ln(3/c) when c < 1.
    """
    c = a * math.sqrt(2.0 * m * U)
    y = 2.0 * math.log(3.0 / c) + 2.0 if c < 1.0 else 0.0
    return -(max(c, y) + 2.0) / a, (c + 2.0) / a


class TestClosedFormScan:
    """The K-cell enumeration against independent pole counts."""

    @pytest.mark.parametrize("U", [1e6, 2.2e7])
    def test_deep_axis_poles_meet_the_residual_bound(self, U):
        # |d'| grows as c^2 near q = +-ic, so rounding q alone leaves
        # |d| ~ |d'|*ulp(|q|): at c = 2121 and 9950 the worst pole read 2.0
        # and 54.8 times RESIDUAL_TOL*(1 + |q|)
        sp = spec(U)
        poles = scan_axis(sp, ATT, Channel.PLUS)
        assert max(residual_ratio(sp.a * p.k, sp.c * sp.c, Channel.PLUS) for p in poles) < 1.0

    @pytest.mark.parametrize("scan", [scan_axis, axis_momenta])
    def test_a_polish_that_runs_off_reports_k(self, scan):
        # the odd channel's one axis root at c = 1.4e-149 sits at
        # a*kappa = -349.29, and its polish in q lands at -350.29j, 1 from
        # its start: the error gives both in k = q/a and the radius 0.5/a
        with pytest.raises(wp.ConvergedElsewhere) as info:
            scan(PotentialSpec(0.01, 100.0, 1e-300), ComplexCoupling(0.0), Channel.MINUS)
        error = info.value
        assert error.k_found == -350.2876482361034j / 100.0
        assert error.k_seed == complex(-0.0, -349.2876482361034) / 100.0
        assert error.trust_radius == 0.005

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        U=st.floats(1e-3, 300.0),
        channel=st.sampled_from([Channel.PLUS, Channel.MINUS]),
        coupling=st.sampled_from([ATT, REP]),
    )
    def test_inventory_matches_independent_counts(self, m, a, U, channel, coupling):
        sp = PotentialSpec(m, a, U)
        poles = scan_axis(sp, coupling, channel)
        for p in poles:
            assert p.residual < RESIDUAL_TOL * (1.0 + abs(p.k))
            assert p.k.real == 0.0
        kappas = [p.k.imag for p in poles]
        assert kappas == sorted(kappas)

        if coupling is ATT and not any(
            abs(U / bound_threshold(channel, n, m, a) - 1.0) < _THRESHOLD_MARGIN
            for n in range(1, 2 + int(a * math.sqrt(2.0 * m * U) / math.pi))
        ):
            below = sum(
                1 for n in range(1, 2 + int(a * math.sqrt(2.0 * m * U) / math.pi))
                if bound_threshold(channel, n, m, a) < U
            )
            assert bound_count(sp, channel) == below + (channel is Channel.PLUS)

        near = [
            hit for hit in collisions_between(
                channel, m, a, U * (1.0 - _COLLISION_MARGIN), U * (1.0 + _COLLISION_MARGIN))
            if hit[0] is (coupling is ATT)
        ]
        if near:
            return
        lo, hi = _axis_span(m, a, U)
        assert all(lo < k < hi for k in kappas)

        # one thin box per pole, split at midpoints, so no contour edge
        # passes more than one pole between samples
        cuts = [lo] + [0.5 * (p + q) for p, q in zip(kappas, kappas[1:])] + [hi]
        s = sp.c ** 2 * coupling.gamma.real
        counts = [count_zeros_padded(0.01, a * y0, a * y1, s, channel)
                  for y0, y1 in zip(cuts, cuts[1:])]
        assert counts == ([p.multiplicity for p in poles] or [0])

        # sign changes of the sampled axis function on a grid 0.005/a apart
        grid = np.linspace(lo, hi, int((hi - lo) * a / 0.005) + 2)
        cells, _ = _grid_cells(_axis_phi(grid, coupling, sp, channel))
        assert len(cells) == len(poles)
