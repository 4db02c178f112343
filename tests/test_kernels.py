"""Kernel-level checks: scaled trig blocks, derivatives, the scalar kernel and its loops."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellpoles import _kernels as K
from wellpoles.smatrix import _phase_to_gamma

RTOL_MPMATH = 1e-12
RTOL_DERIV = 2e-6

M, A = 1.0, 1.5


def rand_points(n, seed, box=5.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)


class TestScaledTrig:
    def test_matches_direct_at_moderate_z(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            C, S, Z, G, E = K.trig_scaled(z)
            assert np.isclose(C, np.cos(z) * E, rtol=1e-14, atol=1e-300)
            assert np.isclose(S, np.sin(z) * E, rtol=1e-14, atol=1e-300)

    def test_finite_at_huge_imaginary_part(self):
        for y in (1e3, 1e6, -1e8):
            C, S, Z, G, E = K.trig_scaled(complex(0.3, y))
            for v in (C, S, Z, G):
                assert np.isfinite(v.real) and np.isfinite(v.imag)
                assert abs(v) <= 1.0 + 1e-12

    def test_mpmath_oracle_large_scale(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for zc in (complex(2.7, 120.0), complex(-5.1, -340.0), complex(0.0, 55.5)):
            C, S, Z, G, E = K.trig_scaled(zc)
            zm = mp.mpc(zc.real, zc.imag)
            scale = mp.e ** (-abs(zc.imag))
            cm = mp.cos(zm) * scale
            sm = mp.sin(zm) * scale
            assert abs(complex(cm) - C) <= RTOL_MPMATH * abs(complex(cm))
            assert abs(complex(sm) - S) <= RTOL_MPMATH * abs(complex(sm))

    def test_series_windows_match_high_precision(self):
        # just inside each series window the kernel must agree with an
        # extended-precision evaluation of the same block at the same point
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for r in (0.95e-4, 0.099):
            for ang in (0.0, 0.7, 2.2, -1.3):
                z = r * np.exp(1j * ang)
                C, S, Z, G, E = K.trig_scaled(z)
                zm = mp.mpc(z.real, z.imag)
                scale = mp.e ** (-abs(z.imag))
                z_ref = complex(mp.sincpi(zm / mp.pi) * scale)
                g_ref = complex((mp.cos(zm) - mp.sin(zm) / zm) / zm**2 * scale)
                assert abs(Z - z_ref) < 1e-13 * abs(z_ref)
                assert abs(G - g_ref) < 1e-13 * abs(g_ref)

    def test_sinc_at_zero(self):
        C, S, Z, G, E = K.trig_scaled(0.0 + 0.0j)
        assert Z == 1.0
        assert C == 1.0
        assert abs(G + 1.0 / 3.0) < 1e-15


class TestDenomDerivatives:
    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_dk_matches_central_difference(self, ch):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(60):
            k = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            g = np.exp(1j * rng.uniform(-np.pi, np.pi))
            U = rng.uniform(0.05, 5.0)
            d, dk, da, E = K.denom_scaled(k, g, M, A, U, ch)
            dp = K.denom_scaled(k + h, g, M, A, U, ch)
            dm = K.denom_scaled(k - h, g, M, A, U, ch)
            # remove the scaling mismatch between neighbouring points
            num = (dp[0] / dp[3] - dm[0] / dm[3]) / (2 * h)
            assert abs(num - dk / E) < RTOL_DERIV * (1.0 + abs(dk / E))

    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_dalpha_matches_central_difference(self, ch):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(60):
            k = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
            al = rng.uniform(-np.pi, np.pi)
            U = rng.uniform(0.05, 5.0)
            d, dk, da, E = K.denom_scaled(k, np.exp(1j * al), M, A, U, ch)
            dp = K.denom_scaled(k, np.exp(1j * (al + h)), M, A, U, ch)
            dm = K.denom_scaled(k, np.exp(1j * (al - h)), M, A, U, ch)
            num = (dp[0] / dp[3] - dm[0] / dm[3]) / (2 * h)
            assert abs(num - da / E) < RTOL_DERIV * (1.0 + abs(da / E))

    def test_plus_k_derivative_vanishes_at_collision_point(self):
        # d(d_plus)/dk == 0 at k = -i/a identically in (gamma, U)
        rng = np.random.default_rng(13)
        kc = -1j / A
        for _ in range(40):
            g = np.exp(1j * rng.uniform(-np.pi, np.pi))
            U = rng.uniform(0.01, 8.0)
            d, dk, da, E = K.denom_scaled(kc, g, M, A, U, K.CH_PLUS)
            assert abs(dk) < 1e-13


class TestNewton:
    def test_converges_to_known_zero(self):
        k, it, ok, _ = K.newton_pole(1.85j, 1.0 + 0j, M, A, 2.0, K.CH_PLUS, 1e-12, 50)
        assert ok and it <= 10
        assert abs(k - 1.841595559696953j) < 1e-12

    def test_reports_failure_on_tiny_budget(self):
        k, it, ok, v = K.newton_pole(3.0 + 2.0j, 1.0 + 0j, M, A, 2.0, K.CH_PLUS, 1e-15, 1)
        assert not ok and cmath.isnan(v)


def _terms(k, gamma, m, a, U, ch):
    """|p| + |q| for the channel pole function d = p - q at k."""
    w = k * k + 2.0 * m * gamma * U
    C, S, Z, G, E = K.trig_scaled(a * cmath.sqrt(w))
    if ch == K.CH_PLUS:
        return abs(k * C) + abs(1j * a * w * Z)
    return abs(C) + abs(1j * a * k * Z)


def _reference_newton(k0, gamma, m, a, U, ch, step_tol, max_iter, new_exits=True):
    """Newton on denom_scaled: the loop newton_pole must equal bit for bit.

    It stops on the step test or, with new_exits and from the second
    iteration on, where the quadratic model puts the next step under it or
    d is a rounding residue of its terms; without, on the step test alone.
    """
    k = k0
    s_prev = None
    for it in range(max_iter):
        d, dk, da, E = K.denom_scaled(k, gamma, m, a, U, ch)
        if dk == 0.0:
            return k, it, False
        step = d / dk
        k1 = k - step
        s = abs(step)
        bound = step_tol * (1.0 + abs(k1))
        if s < bound or new_exits and it and s * s * s < bound * s_prev * s_prev:
            return (k1, it + 1, True) if E != 0.0 else (k, it + 1, False)
        if new_exits and it and abs(d) < K._ROUNDOFF * _terms(k, gamma, m, a, U, ch):
            return (k, it + 1, E != 0.0)
        k = k1
        s_prev = s
    return k, max_iter, False


def _roundoff_radius(k, gamma, m, a, U, ch):
    """How far from k a Newton step still reads roundoff: unit roundoff
    times the size of d's terms, grown by the argument error of its trig
    blocks, plus |dd/dw| times the rounding of w = k^2 + 2 m gamma U (which
    hides k where |k|^2 is small against the coupling), over |dd/dk|.
    Where it exceeds a step tolerance, the step test passes only on a lucky
    rounding."""
    c = 2.0 * m * gamma * U
    w = k * k + c
    z = a * cmath.sqrt(w)
    C, S, Z, G, E = K.trig_scaled(z)
    d, dk, dw = K._channel_terms(k, w, a, C, Z, G, ch)
    noise = (1.0 + abs(z)) * _terms(k, gamma, m, a, U, ch) + abs(dw) * (abs(k * k) + abs(c))
    return 2.0 ** -53 * noise / abs(dk)


_OVERFLOW_STARTS = (1e200 + 0j, 1e155 + 1e155j, 1e300j, -1e300j)
# start kinds: a generic point, a point on the imaginary axis with either
# sign of zero (mirror_defect starts at -conj(k)), |aK| inside each series
# window of trig_scaled, |Im aK| past the underflow of E, and the overflow
# starts
_STARTS = ("plane", "axis", "sinc_series", "g_series", "far", "overflow")


def _start(kind, c, a, u, v, n):
    """Start momentum of one kind from draws u, v in [-1, 1] and an index n."""
    if kind == "plane":
        return complex(20.0 * u, 20.0 * v)
    if kind == "axis":
        return complex(-0.0 if n % 2 else 0.0, 5.0 * v)
    if kind in ("sinc_series", "g_series"):
        # K = t/a with |t| in the window, so k = sqrt(K^2 - c)
        r = 5e-5 * (1.0 + u) / 2.0 if kind == "sinc_series" else 2e-4 + 0.04 * (1.0 + u)
        t = r * cmath.exp(1j * math.pi * v)
        return cmath.sqrt((t / a) ** 2 - c)
    if kind == "far":
        y = (1000.0 + 500.0 * (1.0 + u)) / a
        return complex(10.0 * v, y if n % 2 else -y)
    return _OVERFLOW_STARTS[n % len(_OVERFLOW_STARTS)]


@st.composite
def _newton_cases(draw):
    m = draw(st.floats(0.2, 10.0))
    a = draw(st.floats(0.1, 6.0))
    U = draw(st.floats(1e-3, 300.0))
    ch = draw(st.sampled_from([K.CH_PLUS, K.CH_MINUS]))
    alpha = draw(
        st.one_of(
            st.integers(-8, 8).map(lambda n: n * (math.pi / 2.0)),
            st.floats(-4.0 * math.pi, 4.0 * math.pi),
        )
    )
    gamma = _phase_to_gamma(alpha)
    if draw(st.booleans()):
        gamma = np.complex128(gamma)
    kind = draw(st.sampled_from(_STARTS))
    u = draw(st.floats(-1.0, 1.0))
    v = draw(st.floats(-1.0, 1.0))
    n = draw(st.integers(0, 7))
    k0 = _start(kind, 2.0 * m * gamma * U, a, u, v, n)
    if draw(st.booleans()):
        k0 = np.complex128(k0)
    step_tol = draw(st.sampled_from([1e-12, 1e-15]))
    max_iter = draw(st.sampled_from([1, 8, 50]))
    return k0, gamma, m, a, U, ch, step_tol, max_iter


class TestNewtonBitEquality:
    """newton_pole evaluates d and dd/dk inline; every iterate, the iteration
    count and the converged flag must equal a loop on denom_scaled."""

    @staticmethod
    def _check(args):
        assert repr(K.newton_pole(*args)[:3]) == repr(_reference_newton(*args))

    @pytest.mark.parametrize("kind", _STARTS)
    def test_each_start_kind(self, kind):
        cases = itertools.product(
            (K.CH_PLUS, K.CH_MINUS),
            (0.0, 0.7, math.pi / 2.0, math.pi, -3.0 * math.pi / 2.0),
            ((1.0, 1.5, 2.0), (0.2, 0.1, 1e-3), (10.0, 6.0, 300.0)),
            enumerate(((0.3, -0.8), (-0.9, 0.1), (0.95, 0.6))),
        )
        for ch, alpha, (m, a, U), (n, (u, v)) in cases:
            gamma = _phase_to_gamma(alpha)
            c = 2.0 * m * gamma * U
            k0 = _start(kind, c, a, u, v, n)
            z = a * cmath.sqrt(k0 * k0 + c)
            if kind == "sinc_series":
                assert abs(z) < K._SINC_CUT
            elif kind == "g_series":
                assert K._SINC_CUT <= abs(z) < K._G_CUT
            elif kind == "far":
                assert abs(z.imag) > 745.0
                assert K.denom_scaled(k0, gamma, m, a, U, ch)[3] == 0.0
            for max_iter in (1, 8):
                self._check((k0, gamma, m, a, U, ch, 1e-12, max_iter))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_newton_cases())
    @example((1e200 + 0j, 1.0 + 0j, M, A, 2.0, K.CH_PLUS, 1e-12, 50))
    @example((np.complex128(1.85j), np.complex128(1.0), M, A, 2.0, K.CH_MINUS, 1e-12, 8))
    def test_matches_reference_loop(self, args):
        self._check(args)


class TestNewtonStopRule:
    """The quadratic-model and roundoff exits only stop the same iterates
    earlier: where the step test alone converges, the stop rule converges
    too, in no more iterations, and within the tolerance of the same root,
    or within its roundoff radius where that is wider and the step test
    passed on a lucky rounding."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_newton_cases())
    @example((1.85j, 1.0 + 0j, M, A, 2.0, K.CH_PLUS, 1e-12, 50))
    # |k|^2 is 6e-6 of the coupling, so w's rounding hides steps below
    # 7e-13: Newton creeps on at rate 1/8 and the model stops 2.3e-14 early
    @example((0j, 1.0 + 0j, 4.9765625, 3.646484375, 28.359375, K.CH_MINUS, 1e-15, 8))
    def test_agrees_with_step_test_alone(self, args):
        k_old, it_old, ok_old = _reference_newton(*args, new_exits=False)
        if not ok_old:
            return
        k, it, ok, _ = K.newton_pole(*args)
        assert ok and it <= it_old
        k0, gamma, m, a, U, ch, step_tol, max_iter = args
        slack = 3.0 * step_tol * (1.0 + abs(k_old))
        assert abs(k - k_old) <= slack + 16.0 * _roundoff_radius(k_old, gamma, m, a, U, ch)

    @pytest.mark.parametrize("alpha", [10.0, 40.0, 67.435895])
    def test_stops_at_a_roundoff_limited_root(self, alpha):
        # the far virtual pole of a well with c = a sqrt(2 m U) = 0.005: d's
        # terms exceed its slope so far that every step, even from the root
        # itself, is noise 300 times the tolerance, and the noise steps do
        # not shrink as the quadratic model needs; only the roundoff exit
        # stops there, at the iterate whose d is noise
        U = 0.005 ** 2 / 2.0
        gamma = _phase_to_gamma(alpha)
        k0 = complex(-alpha / 2.0, -8.0)
        k, it, ok, _ = K.newton_pole(k0, gamma, 1.0, 1.0, U, K.CH_PLUS, 1e-12, 50)
        assert ok and -10.0 < k.imag < -8.0
        args = (k, gamma, 1.0, 1.0, U, K.CH_PLUS, 1e-12, 8)
        assert _reference_newton(*args, new_exits=False)[2] is False
        result = K.newton_pole(*args)
        assert result[1:3] == (2, True)
        assert repr(result[:3]) == repr(_reference_newton(*args))

    def test_keeps_the_iterate_next_to_a_near_double_zero(self):
        # 1e-14 below the even repulsive collision depth the pair sits
        # 5.8e-8 either side of k = -i/a. Newton halves its way in and can
        # pass within 8e-10 of -i/a, where dd/dk nearly vanishes and the
        # next step is 2e-6 of noise; the roundoff exit keeps the iterate
        from wellpoles.chart import _collision_depth
        from wellpoles.smatrix import Channel

        m, a = 2.75, 2.875
        U = _collision_depth(Channel.PLUS, False, m, a, 1) * (1.0 - 1e-14)
        kc = -1j / a
        for dk in (3e-4, -3e-4, 3e-4j, -3e-4j):
            args = (kc + dk, -1.0 + 0j, m, a, U, K.CH_PLUS, 1e-12, 80)
            k_old, it_old, ok_old = _reference_newton(*args, new_exits=False)
            k, it, ok, _ = K.newton_pole(*args)
            assert ok_old and abs(k_old - kc) < 1e-7
            assert ok and it < it_old and abs(k - kc) < 1e-7

    def test_saves_the_confirming_iteration(self):
        # the step test needs one step below the tolerance; the model stops
        # one iteration before it
        args = (1.85j, 1.0 + 0j, M, A, 2.0, K.CH_PLUS, 1e-12, 50)
        k_old, it_old, _ = _reference_newton(*args, new_exits=False)
        k, it, ok, _ = K.newton_pole(*args)
        assert ok and it == it_old - 1
        assert abs(k - k_old) < 1e-12 * (1.0 + abs(k))


def _window_pole(z, a, ch):
    """The pole k and coupling c = 2*m*gamma*U at which the channel pole
    function vanishes with interior phase a*K = z: d = 0 is linear in k
    once z is fixed, and c = K^2 - k^2."""
    C, S, Z, G, E = K.trig_scaled(z)
    w = (z / a) ** 2
    k = 1j * a * w * Z / C if ch == K.CH_PLUS else C / (1j * a * Z)
    return k, w - k * k


@st.composite
def _tangent_cases(draw):
    m = draw(st.floats(0.2, 10.0))
    a = draw(st.floats(0.1, 6.0))
    ch = draw(st.sampled_from([K.CH_PLUS, K.CH_MINUS]))
    kind = draw(st.sampled_from(("plane", "axis", "sinc_series", "g_series")))
    u = draw(st.floats(-1.0, 1.0))
    v = draw(st.floats(-1.0, 1.0))
    if kind in ("plane", "axis"):
        U = draw(st.floats(1e-3, 300.0))
        gamma = _phase_to_gamma(draw(st.floats(-4.0 * math.pi, 4.0 * math.pi)))
        return _start(kind, 2.0 * m * gamma * U, a, u, v, 0), gamma, m, a, U, ch
    # a pole whose interior phase lies in a series window fixes the
    # coupling, so U and gamma follow from it; start Newton just off it
    lo, hi = (0.0, K._SINC_CUT) if kind == "sinc_series" else (K._SINC_CUT, K._G_CUT)
    z = (lo + (0.05 + 0.45 * (1.0 + u)) * (hi - lo)) * cmath.exp(1j * math.pi * v)
    k, c = _window_pole(z, a, ch)
    assert lo <= abs(a * cmath.sqrt(k * k + c)) < hi
    return k * (1.0 + 1e-10j), c / abs(c), m, a, abs(c) / (2.0 * m), ch


def _dk_roundoff(k, gamma, m, a, U, ch):
    """Unit roundoff times the sum of |terms| of dd/dk over |dd/dk|: the
    relative scatter of the tangent where its terms cancel."""
    w = k * k + 2.0 * m * gamma * U
    C, S, Z, G, E = K.trig_scaled(a * cmath.sqrt(w))
    if ch == K.CH_PLUS:
        terms = (C, a * a * k * k * Z, a * k * Z, a * k * C)
    else:
        terms = (a * Z, a * a * k * Z, a ** 3 * k * k * G)
    dk = K._channel_terms(k, w, a, C, Z, G, ch)[1]
    return 2.0 ** -53 * sum(map(abs, terms)) / abs(dk)


class TestNewtonTangent:
    """newton_pole returns dk/dalpha at its last iterate k_n, which is the
    returned k at the roundoff exit and lies |s_n| from it otherwise: under
    the step test's bound, or under (step_tol*(1+|k|)*|s_{n-1}|^2)^(1/3) at
    the quadratic model's exit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_tangent_cases())
    def test_matches_denom_tangent(self, case):
        from wellpoles.smatrix import PotentialSpec
        from wellpoles.trajectory import _tangent

        k0, gamma, m, a, U, ch = case
        spec = PotentialSpec(m, a, U)
        k, it, ok, v = K.newton_pole(k0, gamma, m, a, U, ch, 1e-12, 50)
        if not ok:
            assert cmath.isnan(v)
            return
        # the same operations as denom_scaled at the last iterate
        k_last = K.newton_pole(k0, gamma, m, a, U, ch, 1e-12, it - 1)[0]
        assert v == _tangent(k_last, gamma, spec, ch)
        # the last step is the one the stop rule accepted: under the step
        # test's bound or the quadratic model's (none at the roundoff exit)
        step = abs(k - k_last)
        bound = 1e-12 * (1.0 + abs(k))
        if it > 1:
            s_prev = abs(k_last - K.newton_pole(k0, gamma, m, a, U, ch, 1e-12, it - 2)[0])
            bound = max(bound, (bound * s_prev * s_prev) ** (1.0 / 3.0))
        assert step <= bound * (1.0 + 1e-12)
        # at the returned k the reference is no more accurate than the
        # cancellation in dd/dk: at the far poles of a shallow narrow well
        # the terms exceed it 1e7-fold and the tangent scatters by ~1e-9
        # over 1e-11 in k
        ref = _tangent(k, gamma, spec, ch)
        if cmath.isnan(ref):
            # k ran past the underflow of E, where every scaled value is 0
            assert K.denom_scaled(k, gamma, m, a, U, ch)[3] == 0.0
            return
        slack = 10.0 * _dk_roundoff(k, gamma, m, a, U, ch)
        # v is the tangent |k - k_last| away: allow twice the rate a
        # central difference over 1e-6*(1+|k|) reads
        h = 1e-6 * (1.0 + abs(k))
        rate = abs(_tangent(k + h, gamma, spec, ch) - _tangent(k - h, gamma, spec, ch)) / (2.0 * h)
        drift = 2.0 * rate * step
        assert abs(v - ref) <= 1e-9 * (1.0 + abs(ref)) + slack * abs(ref) + drift


class TestNewtonWork:
    """The corrector makes no denom_scaled call, and neither does a trace
    step: the corrector returns the tangent there."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = [0]
        fn = getattr(K, name)

        def counted(*args):
            calls[0] += 1
            return fn(*args)

        monkeypatch.setattr(K, name, counted)
        return calls

    def test_newton_pole_makes_no_denom_call(self, monkeypatch):
        calls = self._count(monkeypatch, "denom_scaled")
        for ch in (K.CH_PLUS, K.CH_MINUS):
            assert K.newton_pole(1.85j, 1.0 + 0j, M, A, 2.0, ch, 1e-12, 50)[1] > 0
        assert calls[0] == 0

    def test_trace_makes_no_denom_call_per_step(self, monkeypatch):
        from wellpoles.rootfinder import scan_axis
        from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
        from wellpoles.trajectory import trace

        spec = PotentialSpec(M, A, 2.0)
        seed = min(
            scan_axis(spec, ComplexCoupling(0.0), Channel.PLUS),
            key=lambda p: abs(p.k - 1.841595559696953j),
        )
        denom = self._count(monkeypatch, "denom_scaled")
        plain = self._count(monkeypatch, "denom_plain")
        converged = [0]
        newton = K.newton_pole

        def counted_newton(*args):
            result = newton(*args)
            converged[0] += result[2]
            return result

        monkeypatch.setattr(K, "newton_pole", counted_newton)
        t = trace(seed, +1, spec)
        # the loop is marched to its half-turn anchor at 2 pi and mirrored
        # after it, so only the samples up to there are marched steps
        marched = int(np.searchsorted(t.alphas, 2.0 * np.pi, side="right"))
        assert converged[0] >= marched - 1 > 25
        # the tangent at the start, plus the seed residual check
        assert denom[0] == 1 + plain[0]
        assert plain[0] == 1


class TestGridKernel:
    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_grid_matches_scalar_kernel_bit_for_bit(self, ch):
        # the winding contours use the grid loop and the predictor the
        # scalar kernel; both must give one value at each point. Ten
        # draws of (gamma, m, a, U), each on 50 points; half the draws take
        # |Re k|, |Im k| up to 150, where |Im aK| mostly reaches the hundreds
        # and only the scaled forms stay finite
        rng = np.random.default_rng(21)
        for draw in range(10):
            g = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
            m, a, U = (float(v) for v in rng.uniform([0.2, 0.1, 1e-3], [10.0, 6.0, 300.0]))
            ks = [complex(k) for k in rand_points(50, 22 + draw, box=5.0 if draw % 2 else 150.0)]
            d, dk = K.grid_denom_dk(ks, g, m, a, U, ch)
            assert len(d) == len(dk) == len(ks)
            for k, d_k, dk_k in zip(ks, d, dk):
                ref = K.denom_scaled(k, g, m, a, U, ch)
                assert (d_k, dk_k) == ref[:2]


class TestConjugationSymmetry:
    """At a real coupling d(-conj k) = -conj d(k) in the even channel and
    +conj d(k) in the odd one, bit for bit: the half walk of
    ``rootfinder.count_zeros`` rests on it."""

    @settings(max_examples=400, deadline=None)
    @given(
        m=st.floats(0.2, 10.0),
        a=st.floats(0.1, 6.0),
        log_U=st.floats(math.log(1e-3), math.log(300.0)),
        gamma=st.sampled_from([1.0 + 0j, -1.0 + 0j]),
        ch=st.sampled_from([K.CH_PLUS, K.CH_MINUS]),
        x=st.floats(-150.0, 150.0),
        y=st.floats(-150.0, 150.0),
    )
    def test_mirror_point_conjugates_the_pole_function(self, m, a, log_U, gamma, ch, x, y):
        U = math.exp(log_U)
        k = complex(x, y)
        d, dk, _, E = K.denom_scaled(k, gamma, m, a, U, ch)
        d_m, dk_m, _, E_m = K.denom_scaled(-k.conjugate(), gamma, m, a, U, ch)
        assert E_m == E
        if ch == K.CH_PLUS:
            assert (d_m, dk_m) == (-d.conjugate(), dk.conjugate())
        else:
            assert (d_m, dk_m) == (d.conjugate(), -dk.conjugate())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """Past the float range the kernels return non-finite values; they never raise.

    At k = 700j and a = 1.5 the scale E = exp(-|Im aK|) underflows to 0, so
    every unscaled value divides by zero.
    """

    K_FAR = 700j
    U = 2.0

    def test_scale_underflows_at_far_point(self):
        for ch in (K.CH_PLUS, K.CH_MINUS):
            assert K.denom_scaled(self.K_FAR, 1.0 + 0j, M, A, self.U, ch)[3] == 0.0

    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    @pytest.mark.parametrize("gamma", [1.0 + 0j, -1.0 + 0j])
    @pytest.mark.parametrize("k", [700j, -700j, 500j])
    def test_denom_plain_overflows_without_raising(self, ch, gamma, k):
        d, dk = K.denom_plain(k, gamma, M, A, self.U, ch)
        assert not np.isfinite(d) and not np.isfinite(dk)

    def test_unscale_follows_ieee_division(self):
        v = K.unscale(complex(2.0, -3.0), 0.0)
        assert v.real == np.inf and v.imag == -np.inf
        v = K.unscale(complex(0.0, 1.0), 0.0)
        assert np.isnan(v.real) and v.imag == np.inf
        assert K.unscale(complex(2.0, -3.0), 0.5) == complex(4.0, -6.0)

    @pytest.mark.parametrize("alpha", [0.0, np.pi])
    def test_full_denominator_and_s_matrix(self, alpha):
        from wellpoles.smatrix import ComplexCoupling, PotentialSpec, denom_full, s_full

        sp = PotentialSpec(M, A, self.U)
        c = ComplexCoupling(alpha)
        assert not np.isfinite(denom_full(self.K_FAR, c, sp))
        s = s_full(self.K_FAR, c, sp)
        assert not np.isfinite(s.s11) and not np.isfinite(s.s12)

    def test_second_derivative_differences(self):
        # the repulsive E underflows at k = -i/a at this depth; the split
        # there is refused because U = 2e5 at alpha = pi is no pair
        # collision (the odd channel has none at gamma = -1, the even one
        # only at U* ~ 0.098)
        from wellpoles.errors import ModelInvalid
        from wellpoles.smatrix import Channel, PotentialSpec
        from wellpoles.trajectory import branch_at_double_zero

        U = 2e5
        assert K.denom_scaled(-1j / A, -1.0 + 0j, M, A, U, K.CH_PLUS)[3] == 0.0
        for ch in (Channel.PLUS, Channel.MINUS):
            with pytest.raises(ModelInvalid):
                branch_at_double_zero(np.pi, PotentialSpec(M, A, U), ch, +1)

    @pytest.mark.parametrize(
        "z",
        [complex(np.inf, 0.0), complex(-np.inf, 0.5), complex(np.nan, 0.0), complex(0.3, np.nan)],
    )
    def test_trig_blocks_of_non_finite_argument(self, z):
        C, S, Z, G, E = K.trig_scaled(z)
        for v in (C, S, Z, G):
            assert not np.isfinite(v)

    @pytest.mark.parametrize("k0", [1e200 + 0j, 1e155 + 1e155j, 1e300j, -1e300j])
    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_newton_iterate_overflow_is_not_converged(self, k0, ch):
        k, it, ok, v = K.newton_pole(k0, 1.0 + 0j, M, A, self.U, ch, 1e-12, 50)
        assert not ok and cmath.isnan(v)

    def test_newton_step_test_past_the_underflow_is_not_converged(self):
        # from -2.5i the second iterate lands near 5e15 + 1e15i, where
        # |Im aK| ~ 4e14 and E = 0; the step of a few units there passes a
        # test relative to |k|, though no pole is near
        from wellpoles.errors import NoConvergence
        from wellpoles.rootfinder import newton_refine
        from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec

        m, a, U, gamma = 0.2, 0.4, 15.18, cmath.exp(-2j)
        k, it, ok, v = K.newton_pole(-2.5j, gamma, m, a, U, K.CH_PLUS, 1e-12, 50)
        assert not ok and cmath.isnan(v)
        assert it == 2 and abs(k) > 1e15
        assert K.denom_scaled(k, gamma, m, a, U, K.CH_PLUS)[3] == 0.0
        with pytest.raises(NoConvergence):
            newton_refine(-2.5j, ComplexCoupling(-2.0), PotentialSpec(m, a, U), Channel.PLUS)
