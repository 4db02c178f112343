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


def _s(gamma, m, a, U):
    """The kernels' coupling s = c^2 gamma of the well (m, a, U), c^2 = 2 m a^2 U."""
    return 2.0 * m * a * a * gamma * U


def rand_points(n, seed, box=5.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)


def test_no_kernel_takes_a_well_parameter():
    # the kernels see the well only through q = k*a and s = c^2 gamma
    import inspect

    for name, fn in vars(K).items():
        if inspect.isfunction(fn) and fn.__module__ == K.__name__:
            params = set(inspect.signature(fn).parameters)
            assert not params & {"m", "a", "U"}, name


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

    @pytest.mark.parametrize("y", [
        math.nextafter(K._CMATH_CUT, 0.0), K._CMATH_CUT, 699.5, 700.5, 709.0,
    ])
    def test_both_forms_at_the_cut(self, y):
        # just below the cut C and S are cmath's, from it on the half-angle
        # forms'; both match a 40-digit value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for x in (0.0, 0.3, -2.9, 17.25, -123.4):
            for zc in (complex(x, y), complex(x, -y)):
                C, S, Z, G, E = K.trig_scaled(zc)
                if abs(zc.imag) >= K._CMATH_CUT:
                    assert (C, S) == K._half_angle(zc)
                zm = mp.mpc(zc.real, zc.imag)
                scale = mp.e ** (-abs(zm.imag))
                for got, ref in ((C, mp.cos(zm) * scale), (S, mp.sin(zm) * scale)):
                    assert abs(got - complex(ref)) <= 1e-14 * abs(complex(ref))

    def test_parts_accurate_near_the_real_axis(self):
        # each part of C and S to roundoff of itself: the half-angle forms
        # of Im C and Im S carry (1 - e^{-2|y|})/2, which cancels here and
        # left relative errors up to 2e-5
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(31)
        for _ in range(300):
            y = math.copysign(10.0 ** rng.uniform(-12.0, -3.0), rng.uniform(-1.0, 1.0))
            zc = complex(rng.uniform(-6.0, 6.0), y)
            C, S, Z, G, E = K.trig_scaled(zc)
            zm = mp.mpc(zc.real, zc.imag)
            scale = mp.e ** (-abs(zm.imag))
            for got, ref in ((C, mp.cos(zm) * scale), (S, mp.sin(zm) * scale)):
                for part, exact in ((got.real, ref.real), (got.imag, ref.imag)):
                    assert abs(part - float(exact)) <= 1e-14 * abs(float(exact))

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
            s = _s(g, M, A, rng.uniform(0.05, 5.0))
            d, dk, da, E = K.denom_scaled(k, s, ch)
            dp = K.denom_scaled(k + h, s, ch)
            dm = K.denom_scaled(k - h, s, ch)
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
            d, dk, da, E = K.denom_scaled(k, _s(np.exp(1j * al), M, A, U), ch)
            dp = K.denom_scaled(k, _s(np.exp(1j * (al + h)), M, A, U), ch)
            dm = K.denom_scaled(k, _s(np.exp(1j * (al - h)), M, A, U), ch)
            num = (dp[0] / dp[3] - dm[0] / dm[3]) / (2 * h)
            assert abs(num - da / E) < RTOL_DERIV * (1.0 + abs(da / E))

    def test_plus_k_derivative_vanishes_at_collision_point(self):
        # d(d_plus)/dq == 0 at q = ka = -i identically in (gamma, U)
        rng = np.random.default_rng(13)
        kc = -1j
        for _ in range(40):
            g = np.exp(1j * rng.uniform(-np.pi, np.pi))
            U = rng.uniform(0.01, 8.0)
            d, dk, da, E = K.denom_scaled(kc, _s(g, M, A, U), K.CH_PLUS)
            assert abs(dk) < 1e-13


class TestXForm:
    """The pole equation of one curve in x = aK, h = x - e cos x (even) or
    1 - e sinc x (odd), e = sigma*c*e^{i alpha/2}, and q(x) at a pole."""

    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_derivatives_match_central_differences(self, ch):
        rng = np.random.default_rng(21)
        h = 1e-6

        def form(x, alpha, c):
            # unscaled, so that neighbouring points compare
            return [v / math.exp(-abs(x.imag))
                    for v in K.x_form(x, c * cmath.exp(0.5j * alpha), ch)[:4]]

        for _ in range(60):
            x = complex(rng.uniform(-8, 8), rng.uniform(-3, 3))
            alpha, c = rng.uniform(-2 * np.pi, 2 * np.pi), rng.uniform(0.2, 20.0)
            _, hx, hxx, ha = form(x, alpha, c)
            pairs = [(form(x + h, alpha, c)[0] - form(x - h, alpha, c)[0], hx),
                     (form(x + h, alpha, c)[1] - form(x - h, alpha, c)[1], hxx),
                     (form(x, alpha + h, c)[0] - form(x, alpha - h, c)[0], ha)]
            for difference, value in pairs:
                assert abs(difference / (2 * h) - value) < RTOL_DERIV * (1.0 + abs(value))

    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_momentum_at_a_pole(self, ch):
        # a pole of the channel pole function solves the x form of one sign
        # at x = sqrt(q^2 + s), and q(x) gives it back
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(60):
            alpha, U = rng.uniform(-np.pi, np.pi), rng.uniform(0.05, 20.0)
            s = _s(cmath.exp(1j * alpha), M, A, U)
            q, _, ok, _ = K.newton_pole(complex(rng.uniform(-4, 4), rng.uniform(-3, 1)), s, ch, 50)
            if not ok:
                continue
            x = cmath.sqrt(q * q + s)
            e = math.sqrt(_s(1.0, M, A, U)) * cmath.exp(0.5j * alpha)
            h, _, _, _, q_x = min((K.x_form(x, sign * e, ch) for sign in (1.0, -1.0)),
                                  key=lambda f: abs(f[0]))
            E = math.exp(-abs(x.imag))
            assert abs(h) < 1e-10 * E * (1.0 + abs(x))
            assert abs(q_x - q) < 1e-8 * (1.0 + abs(q))
            checked += 1
        assert checked > 40

    def test_odd_form_is_finite_at_x_zero(self):
        # q = -i x cot x is -i at x = 0, where the odd form has a double
        # root in x at c = 1: x and -x are one pole
        h, hx, hxx, ha, q = K.x_form(0j, 1.0 + 0j, K.CH_MINUS)
        assert (h, hx, q) == (0.0, 0.0, -1j)
        assert abs(hxx - 1.0 / 3.0) < 1e-15 and ha == -0.5j


class TestNewton:
    def test_converges_to_known_zero(self):
        q, it, ok, _ = K.newton_pole(A * 1.85j, _s(1.0 + 0j, M, A, 2.0), K.CH_PLUS, 50)
        k = q / A
        assert ok and it <= 10
        assert abs(k - 1.841595559696953j) < 1e-12

    def test_reports_failure_on_tiny_budget(self):
        k, it, ok, v = K.newton_pole(3.0 + 2.0j, _s(1.0 + 0j, M, A, 2.0), K.CH_PLUS, 1)
        assert not ok and cmath.isnan(v)


def _terms(k, s, ch):
    """|p| + |r| for the channel pole function d = p - r at q = k."""
    w = k * k + s
    C, S, Z, G, E = K.trig_scaled(cmath.sqrt(w))
    if ch == K.CH_PLUS:
        return abs(k * C) + abs(1j * w * Z)
    return abs(C) + abs(1j * k * Z)


def _newton(k0, s, ch, step_tol, max_iter):
    """newton_pole with its step tolerance STEP_TOL set to step_tol, so that
    the cases below run at the tolerance of the reference loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "STEP_TOL", step_tol)
        return K.newton_pole(k0, s, ch, max_iter)


def _reference_newton(k0, s, ch, step_tol, max_iter, new_exits=True):
    """Newton on denom_scaled: the loop newton_pole must equal bit for bit.

    It stops on the step test or, with new_exits, where the quadratic model
    puts the next step under it after a step below _MODEL_STEP or, from the
    second iteration on, d is a rounding residue of its terms; without, on
    the step test alone.
    """
    k = k0
    s_prev = math.inf
    for it in range(max_iter):
        d, dk, da, E = K.denom_scaled(k, s, ch)
        if dk == 0.0:
            return k, it, False
        step = d / dk
        k1 = k - step
        size = abs(step)
        bound = step_tol * (1.0 + abs(k1))
        if size < bound or (new_exits and s_prev < K._MODEL_STEP
                            and size * size * size < bound * s_prev * s_prev):
            return (k1, it + 1, True) if E != 0.0 else (k, it + 1, False)
        if new_exits and it and abs(d) < K._ROUNDOFF * _terms(k, s, ch):
            return (k, it + 1, E != 0.0)
        k = k1
        s_prev = size
    return k, max_iter, False


def _roundoff_radius(k, s, ch):
    """How far from q = k a Newton step still reads roundoff: unit roundoff
    times the size of d's terms, grown by the argument error of its trig
    blocks, plus |dd/dw| times the rounding of w = q^2 + s (which hides q
    where |q|^2 is small against the coupling), over |dd/dq|.
    Where it exceeds a step tolerance, the step test passes only on a lucky
    rounding."""
    w = k * k + s
    z = cmath.sqrt(w)
    C, S, Z, G, E = K.trig_scaled(z)
    d, dk, dw = K._channel_terms(k, w, C, Z, G, ch)
    noise = (1.0 + abs(z)) * _terms(k, s, ch) + abs(dw) * (abs(k * k) + abs(s))
    return 2.0 ** -53 * noise / abs(dk)


_OVERFLOW_STARTS = (1e200 + 0j, 1e155 + 1e155j, 1e300j, -1e300j)
# start kinds: a generic point, a point on the imaginary axis with either
# sign of zero (mirror_defect starts at -conj(k)), |z| inside each series
# window of trig_scaled, |Im z| on either side of the cut between its cmath
# and half-angle forms, |Im z| past the underflow of E, and the overflow
# starts
_STARTS = ("plane", "axis", "sinc_series", "g_series", "seam", "far", "overflow")


def _start(kind, s, u, v, n):
    """Start q of one kind from draws u, v in [-1, 1] and an index n."""
    if kind == "plane":
        return complex(20.0 * u, 20.0 * v)
    if kind == "axis":
        return complex(-0.0 if n % 2 else 0.0, 5.0 * v)
    if kind in ("sinc_series", "g_series"):
        # z = t with |t| in the window, so q = sqrt(t^2 - s)
        r = 5e-5 * (1.0 + u) / 2.0 if kind == "sinc_series" else 2e-4 + 0.04 * (1.0 + u)
        t = r * cmath.exp(1j * math.pi * v)
        return cmath.sqrt(t ** 2 - s)
    if kind == "seam":
        # z = t with |Im t| in [690.5, 709.5]
        t = complex(10.0 * v, (700.0 + 9.5 * u) * (1.0 if n % 2 else -1.0))
        return cmath.sqrt(t ** 2 - s)
    if kind == "far":
        y = 1000.0 + 500.0 * (1.0 + u)
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
    s = _s(gamma, m, a, U)
    k0 = _start(kind, s, u, v, n)
    if draw(st.booleans()):
        k0 = np.complex128(k0)
    step_tol = draw(st.sampled_from([1e-12, 1e-15]))
    max_iter = draw(st.sampled_from([1, 8, 50]))
    return k0, s, ch, step_tol, max_iter


class TestNewtonBitEquality:
    """newton_pole evaluates d and dd/dk inline; every iterate, the iteration
    count and the converged flag must equal a loop on denom_scaled."""

    @staticmethod
    def _check(args):
        assert repr(_newton(*args)[:3]) == repr(_reference_newton(*args))

    @pytest.mark.parametrize("kind", _STARTS)
    def test_each_start_kind(self, kind):
        cases = itertools.product(
            (K.CH_PLUS, K.CH_MINUS),
            (0.0, 0.7, math.pi / 2.0, math.pi, -3.0 * math.pi / 2.0),
            ((1.0, 1.5, 2.0), (0.2, 0.1, 1e-3), (10.0, 6.0, 300.0)),
            enumerate(((0.3, -0.8), (-0.9, 0.1), (0.95, 0.6))),
        )
        for ch, alpha, (m, a, U), (n, (u, v)) in cases:
            s = _s(_phase_to_gamma(alpha), m, a, U)
            k0 = _start(kind, s, u, v, n)
            z = cmath.sqrt(k0 * k0 + s)
            if kind == "sinc_series":
                assert abs(z) < K._SINC_CUT
            elif kind == "g_series":
                assert K._SINC_CUT <= abs(z) < K._G_CUT
            elif kind == "seam":
                assert 690.0 < abs(z.imag) < 710.0
            elif kind == "far":
                assert abs(z.imag) > 745.0
                assert K.denom_scaled(k0, s, ch)[3] == 0.0
            for max_iter in (1, 8):
                self._check((k0, s, ch, 1e-12, max_iter))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_newton_cases())
    @example((1e200 + 0j, _s(1.0 + 0j, M, A, 2.0), K.CH_PLUS, 1e-12, 50))
    @example((np.complex128(A * 1.85j), _s(np.complex128(1.0), M, A, 2.0), K.CH_MINUS, 1e-12, 8))
    # a grown second step, after which the quadratic model may not exit
    @example((1.7402331821066375j, 21921.30814383263, K.CH_PLUS, 1e-12, 8))
    # previous steps of 5.83 and 0.214, from which it may not exit either
    @example((-0.1171875j, 10246.271216589628, K.CH_PLUS, 1e-12, 8))
    @example((-1.7271252689964451j, 784.0322612920717, K.CH_PLUS, 1e-12, 50))
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
    @example((A * 1.85j, _s(1.0 + 0j, M, A, 2.0), K.CH_PLUS, 1e-12, 50))
    # |q|^2 is 6e-6 of the coupling, so w's rounding hides steps below
    # 7e-13: Newton creeps on at rate 1/8 and the model stops 2.3e-14 early
    @example((0j, _s(1.0 + 0j, 4.9765625, 3.646484375, 28.359375), K.CH_MINUS, 1e-15, 8))
    # the steps run 21.7, 122.8, 1.2e-4: after the grown second step the
    # model's constant means nothing, and its exit stopped 2e-9 early
    @example((1.7402331821066375j, 21921.30814383263, K.CH_PLUS, 1e-12, 8))
    # the steps run 95.4, 5.83, 1.13e-3, 2.76e-6: the constant taken from
    # the pair (5.83, 1.13e-3) predicted a next step of 4.2e-11, and the
    # model's exit stopped 2.76e-6 from the root
    @example((-0.1171875j, 10246.271216589628, K.CH_PLUS, 1e-12, 8))
    # the steps run 1.12, 0.214, 3.98e-5, 7.1e-11: after the step of 0.214
    # the model's exit stopped 7.1e-11 from the root, past the slack
    @example((-1.7271252689964451j, 784.0322612920717, K.CH_PLUS, 1e-12, 50))
    def test_agrees_with_step_test_alone(self, args):
        k_old, it_old, ok_old = _reference_newton(*args, new_exits=False)
        if not ok_old:
            return
        k, it, ok, _ = _newton(*args)
        assert ok and it <= it_old
        k0, s, ch, step_tol, max_iter = args
        slack = 3.0 * step_tol * (1.0 + abs(k_old))
        assert abs(k - k_old) <= slack + 16.0 * _roundoff_radius(k_old, s, ch)

    @pytest.mark.parametrize("alpha", [10.0, 40.0, 67.435895])
    def test_stops_at_a_roundoff_limited_root(self, alpha):
        # the far virtual pole of a well with c = a sqrt(2 m U) = 0.005: d's
        # terms exceed its slope so far that every step, even from the root
        # itself, is noise 300 times the tolerance, and the noise steps do
        # not shrink as the quadratic model needs; only the roundoff exit
        # stops there, at the iterate whose d is noise
        U = 0.005 ** 2 / 2.0
        s = _s(_phase_to_gamma(alpha), 1.0, 1.0, U)
        k0 = complex(-alpha / 2.0, -8.0)
        k, it, ok, _ = K.newton_pole(k0, s, K.CH_PLUS, 50)
        assert ok and -10.0 < k.imag < -8.0
        args = (k, s, K.CH_PLUS, 1e-12, 8)
        assert _reference_newton(*args, new_exits=False)[2] is False
        result = _newton(*args)
        assert result[1:3] == (2, True)
        assert repr(result[:3]) == repr(_reference_newton(*args))

    def test_keeps_the_iterate_next_to_a_near_double_zero(self):
        # 1e-14 below the even repulsive collision depth the pair sits
        # 5.8e-8 either side of k = -i/a. Newton halves its way in and can
        # pass within 8e-10 of -i/a, where dd/dk nearly vanishes and the
        # next step is 2e-6 of noise; the roundoff exit keeps the iterate
        from wellpoles.rootfinder import collision_depth
        from wellpoles.smatrix import Channel

        m, a = 2.75, 2.875
        U = collision_depth(Channel.PLUS, False, m, a, 1) * (1.0 - 1e-14)
        kc = -1j / a
        for dk in (3e-4, -3e-4, 3e-4j, -3e-4j):
            args = (a * (kc + dk), _s(-1.0 + 0j, m, a, U), K.CH_PLUS, 1e-12, 80)
            q_old, it_old, ok_old = _reference_newton(*args, new_exits=False)
            q, it, ok, _ = _newton(*args)
            k_old, k = q_old / a, q / a
            assert ok_old and abs(k_old - kc) < 1e-7
            assert ok and it < it_old and abs(k - kc) < 1e-7

    def test_saves_the_confirming_iteration(self):
        # the step test needs one step below the tolerance; the model stops
        # one iteration before it
        args = (A * 1.85j, _s(1.0 + 0j, M, A, 2.0), K.CH_PLUS, 1e-12, 50)
        k_old, it_old, _ = _reference_newton(*args, new_exits=False)
        k, it, ok, _ = _newton(*args)
        assert ok and it == it_old - 1
        assert abs(k - k_old) < 1e-12 * (1.0 + abs(k))


def _window_pole(z, ch):
    """The pole q and coupling s at which the channel pole function
    vanishes with interior phase z: d = 0 is linear in q once z is fixed,
    and s = z^2 - q^2."""
    C, S, Z, G, E = K.trig_scaled(z)
    w = z ** 2
    k = 1j * w * Z / C if ch == K.CH_PLUS else C / (1j * Z)
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
        s = _s(gamma, m, a, U)
        return _start(kind, s, u, v, 0), s, ch
    # a pole whose interior phase lies in a series window fixes the
    # coupling s; start Newton just off it
    lo, hi = (0.0, K._SINC_CUT) if kind == "sinc_series" else (K._SINC_CUT, K._G_CUT)
    z = (lo + (0.05 + 0.45 * (1.0 + u)) * (hi - lo)) * cmath.exp(1j * math.pi * v)
    k, s = _window_pole(z, ch)
    assert lo <= abs(cmath.sqrt(k * k + s)) < hi
    return k * (1.0 + 1e-10j), s, ch


def _dk_roundoff(k, s, ch):
    """Unit roundoff times the sum of |terms| of dd/dq over |dd/dq|: the
    relative scatter of the tangent where its terms cancel."""
    w = k * k + s
    C, S, Z, G, E = K.trig_scaled(cmath.sqrt(w))
    if ch == K.CH_PLUS:
        terms = (C, k * k * Z, k * Z, k * C)
    else:
        terms = (Z, k * Z, k * k * G)
    dk = K._channel_terms(k, w, C, Z, G, ch)[1]
    return 2.0 ** -53 * sum(map(abs, terms)) / abs(dk)


def _tangent(q, s, ch):
    """dq/dalpha = -D_alpha/D_q from denom_scaled; nan where D_q vanishes."""
    d, dq, da, E = K.denom_scaled(q, s, ch)
    return -da / dq if dq != 0.0 else complex(math.nan, math.nan)


class TestNewtonTangent:
    """newton_pole returns dk/dalpha at its last iterate k_n, which is the
    returned k at the roundoff exit and lies |s_n| from it otherwise: under
    the step test's bound, or under (step_tol*(1+|k|)*|s_{n-1}|^2)^(1/3) at
    the quadratic model's exit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_tangent_cases())
    def test_matches_denom_tangent(self, case):
        k0, s, ch = case
        k, it, ok, v = K.newton_pole(k0, s, ch, 50)
        if not ok:
            assert cmath.isnan(v)
            return
        # the same operations as denom_scaled at the last iterate
        k_last = K.newton_pole(k0, s, ch, it - 1)[0]
        assert v == _tangent(k_last, s, ch)
        # the last step is the one the stop rule accepted: under the step
        # test's bound or the quadratic model's (none at the roundoff exit)
        step = abs(k - k_last)
        bound = K.STEP_TOL * (1.0 + abs(k))
        if it > 1:
            s_prev = abs(k_last - K.newton_pole(k0, s, ch, it - 2)[0])
            bound = max(bound, (bound * s_prev * s_prev) ** (1.0 / 3.0))
        assert step <= bound * (1.0 + 1e-12)
        # at the returned k the reference is no more accurate than the
        # cancellation in dd/dk: at the far poles of a shallow narrow well
        # the terms exceed it 1e7-fold and the tangent scatters by ~1e-9
        # over 1e-11 in k
        ref = _tangent(k, s, ch)
        if cmath.isnan(ref):
            # k ran past the underflow of E, where every scaled value is 0
            assert K.denom_scaled(k, s, ch)[3] == 0.0
            return
        slack = 10.0 * _dk_roundoff(k, s, ch)
        # v is the tangent |k - k_last| away: allow twice the rate a
        # central difference over 1e-6*(1+|k|) reads
        h = 1e-6 * (1.0 + abs(k))
        rate = abs(_tangent(k + h, s, ch) - _tangent(k - h, s, ch)) / (2.0 * h)
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
            assert K.newton_pole(A * 1.85j, _s(1.0 + 0j, M, A, 2.0), ch, 50)[1] > 0
        assert calls[0] == 0

    def test_trace_makes_no_denom_call_per_step(self, monkeypatch):
        # the march corrects on the x form, which returns the tangent, and
        # polishes each anchor it lands on with newton_pole; the q form is
        # evaluated only by the seed's residual check
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
        newton = self._count(monkeypatch, "newton_pole")
        forms = self._count(monkeypatch, "x_form")
        t = trace(seed, +1, spec)
        # the loop is marched to its half-turn anchor at 2 pi and mirrored
        # after it, so only the samples up to there are marched steps, and
        # anchors 1 to 4 the anchors it landed on
        marched = int(np.searchsorted(t.alphas, 2.0 * np.pi, side="right"))
        assert forms[0] >= 2 * (marched - 1) > 50
        assert newton[0] == 4
        assert denom[0] == plain[0] == 1


class TestGridKernel:
    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_grid_matches_scalar_kernel_bit_for_bit(self, ch):
        # the winding contours use the grid loop and the predictor the
        # scalar kernel; both must give one value at each point. Ten
        # draws of (gamma, m, a, U), each on 50 points q = k*a; half the
        # draws take |Re k|, |Im k| up to 150, where |Im z| mostly reaches
        # the hundreds and only the scaled forms stay finite
        rng = np.random.default_rng(21)
        for draw in range(10):
            g = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
            m, a, U = (float(v) for v in rng.uniform([0.2, 0.1, 1e-3], [10.0, 6.0, 300.0]))
            s = _s(g, m, a, U)
            ks = [a * complex(k)
                  for k in rand_points(50, 22 + draw, box=5.0 if draw % 2 else 150.0)]
            d, dk = K.grid_denom_dk(ks, s, ch)
            assert len(d) == len(dk) == len(ks)
            for k, d_k, dk_k in zip(ks, d, dk):
                ref = K.denom_scaled(k, s, ch)
                assert (d_k, dk_k) == ref[:2]


    @pytest.mark.parametrize("kind", _STARTS)
    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    def test_each_start_kind(self, kind, ch):
        # the series windows, both sides of the cut between the cmath and
        # half-angle trig forms, the underflow of E and the overflow starts
        for alpha, (m, a, U) in itertools.product(
            (0.0, 0.7, math.pi), ((1.0, 1.5, 2.0), (0.2, 0.1, 1e-3), (10.0, 6.0, 300.0)),
        ):
            s = _s(_phase_to_gamma(alpha), m, a, U)
            ks = [_start(kind, s, u, v, n)
                  for n, (u, v) in enumerate(((0.3, -0.8), (-0.9, 0.1), (0.95, 0.6), (-0.2, 0.4)))]
            d, dk = K.grid_denom_dk(ks, s, ch)
            for k, d_k, dk_k in zip(ks, d, dk):
                assert repr((d_k, dk_k)) == repr(K.denom_scaled(k, s, ch)[:2])


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
        s = _s(gamma, m, a, math.exp(log_U))
        k = a * complex(x, y)
        d, dk, _, E = K.denom_scaled(k, s, ch)
        d_m, dk_m, _, E_m = K.denom_scaled(-k.conjugate(), s, ch)
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
            assert K.denom_scaled(A * self.K_FAR, _s(1.0 + 0j, M, A, self.U), ch)[3] == 0.0

    @pytest.mark.parametrize("ch", [K.CH_PLUS, K.CH_MINUS])
    @pytest.mark.parametrize("gamma", [1.0 + 0j, -1.0 + 0j])
    @pytest.mark.parametrize("k", [700j, -700j, 500j])
    def test_denom_plain_overflows_without_raising(self, ch, gamma, k):
        d, dk = K.denom_plain(A * k, _s(gamma, M, A, self.U), ch)
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
        # the true s12 overflows (|s12| ~ 2e906), the true s11 is near 1 and
        # s_full keeps it finite (its digits are checked in test_smatrix)
        assert abs(s.s11 - 1.0) < 0.01 and not np.isfinite(s.s12)

    def test_second_derivative_differences(self):
        # the repulsive E underflows at k = -i/a at this depth; the split
        # there is refused because U = 2e5 at alpha = pi is no pair
        # collision (the odd channel has none at gamma = -1, the even one
        # only at U* ~ 0.098): the scan gives no pair, and a simple pole
        # record at k = -i/a is no seed to split
        from wellpoles.errors import ModelInvalid
        from wellpoles.rootfinder import Pole, scan_axis
        from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec
        from wellpoles.trajectory import branch_at_double_zero

        U = 2e5
        assert K.denom_scaled(-1j, _s(-1.0 + 0j, M, A, U), K.CH_PLUS)[3] == 0.0
        spec, coupling = PotentialSpec(M, A, U), ComplexCoupling(np.pi)
        for ch in (Channel.PLUS, Channel.MINUS):
            assert all(p.multiplicity == 1 for p in scan_axis(spec, coupling, ch))
            with pytest.raises(ModelInvalid):
                branch_at_double_zero(Pole(-1j, ch, coupling, 1, 0.0, A), spec)

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
        k, it, ok, v = K.newton_pole(k0, _s(1.0 + 0j, M, A, self.U), ch, 50)
        assert not ok and cmath.isnan(v)

    def test_newton_step_test_past_the_underflow_is_not_converged(self):
        # k = -2.5i is q = -i, where dd/dq of the even channel vanishes;
        # from one float spacing below it the second iterate lands near
        # k = 5e15i, where |Im z| ~ 2e15 and E = 0; the step of a few units
        # there passes a test relative to |q|, though no pole is near
        from wellpoles.errors import NoConvergence
        from wellpoles.rootfinder import newton_refine
        from wellpoles.smatrix import Channel, ComplexCoupling, PotentialSpec

        m, a, U, gamma = 0.2, 0.4, 15.18, cmath.exp(-2j)
        s = _s(gamma, m, a, U)
        q0 = complex(0.0, math.nextafter(-1.0, -2.0))
        q, it, ok, v = K.newton_pole(q0, s, K.CH_PLUS, 50)
        k = q / a
        assert not ok and cmath.isnan(v)
        assert it == 2 and abs(k) > 1e15
        assert K.denom_scaled(q, s, K.CH_PLUS)[3] == 0.0
        with pytest.raises(NoConvergence):
            newton_refine(-2.5j, ComplexCoupling(-2.0), PotentialSpec(m, a, U), Channel.PLUS)
