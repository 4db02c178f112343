"""Numeric kernels for the channel pole functions.

Every hot loop in the engine (Newton polishing, continuation correctors,
winding contours) bottoms out in one scalar kernel: ``trig_scaled`` for the
trig blocks and ``_channel_terms`` for the channel algebra, composed by
``denom_scaled``, which serves the continuation predictor and single
evaluations. The rest repeat its float operations in the same order, so
their values are bit-equal to it:

- ``newton_pole``, the corrector, evaluates d and dd/dk inline, without
  dd/dw, the D_alpha product or, outside the series windows, E, and forms
  dd/dw once, after it converges, for the tangent dk/dalpha at its last
  iterate, which it returns;
- ``grid_denom_dk`` loops over a list of momenta for the winding contours,
  with the same inline d and dd/dk as ``newton_pole``;
- ``axis_phi`` loops along the imaginary axis. The axis poles are
  enumerated in closed form (``rootfinder.scan_axis``), so it is only the
  sampled reference that tests count sign changes of.

Tests in ``tests/test_kernels.py`` lock the bit-equality. Everything runs
on ``math``/``cmath`` and Python ``float``/``complex`` values.

Scaling convention
------------------
For complex momentum k the interior phase z = a*K (K the interior momentum)
can have |Im z| in the hundreds, where cos/sin overflow. All kernel values
carry the factor E = exp(-|Im z|):

    C_s = cos(z) * E,   S_s = sin(z) * E

computed branch-free from exact half-angle identities, so they never
overflow. Every returned denominator/derivative here is the true value times
the same E, which cancels in Newton ratios and winding arguments. ``E`` is
returned alongside so callers can unscale when the true magnitude is needed.

Non-finite contract
-------------------
The kernels return non-finite values where the arithmetic leaves the float
range; they do not raise. ``E`` underflows to 0 once |Im z| passes about 745,
and ``unscale`` then gives the overflowed true value (inf, or nan for a zero
part) where Python's complex division would raise ZeroDivisionError. A
non-finite argument gives non-finite trig blocks, and a ``newton_pole``
whose iterate overflows, or whose stop rule (any of its exits) passes
where E underflowed, reports ``converged=False``.

Channel conventions
-------------------
ch = 0 selects the even channel denominator

    d_plus(k) = k*cos(aK) - i*K*sin(aK)

written in the manifestly even-in-K form k*C - i*a*w*Z with w = K^2 and
Z = sinc(aK). ch = 1 selects the *regularized* odd channel pole function

    d_minus(k) = cos(aK) - i*a*k*sinc(aK)  =  (K*cos(aK) - i*k*sin(aK)) / K

which shares the zeros of the literal odd denominator except the spurious
K = 0 one, is even in K, and is entire in k^2.
"""

from __future__ import annotations

import cmath
import math

CH_PLUS = 0
CH_MINUS = 1

# series cutoffs: sinc below 1e-4 (next omitted term ~1e-18), the curvature
# block G below 0.1 (series truncation error ~1e-14 relative)
_SINC_CUT = 1e-4
_G_CUT = 0.1

# newton_pole's roundoff exit: d below this many units of double precision
# of the terms whose difference it is
_ROUNDOFF = 16.0 * 2.0 ** -52

# the tangent newton_pole returns when it does not converge
_NAN = complex(math.nan, math.nan)


def trig_scaled(z):
    """Scaled trig blocks at complex z.

    Returns (C, S, Z, G, E) where C = cos(z)*E, S = sin(z)*E, Z = sinc(z)*E,
    G = ((cos(z) - sinc(z))/z**2)*E and E = exp(-|Im z|). Exact half-angle
    forms keep everything finite for arbitrarily large |Im z|; an infinite
    or nan z gives nan blocks.
    """
    x = z.real
    y = z.imag
    ay = abs(y)
    sgn = 1.0 if y >= 0.0 else -1.0
    e2 = math.exp(-2.0 * ay)
    cp = 0.5 * (1.0 + e2)
    cm = 0.5 * (1.0 - e2)
    try:
        cx = math.cos(x)
        sx = math.sin(x)
    except ValueError:  # x = +-inf, where math raises; the blocks are nan
        cx = sx = math.nan
    C = complex(cx * cp, -sgn * sx * cm)
    S = complex(sx * cp, sgn * cx * cm)
    E = math.exp(-ay)
    az = abs(z)
    if az >= _SINC_CUT:
        Z = S / z
    else:
        z2 = z * z
        Z = (1.0 - z2 / 6.0 + z2 * z2 / 120.0) * E
    if az >= _G_CUT:
        G = (C - Z) / (z * z)
    else:
        z2 = z * z
        G = (-1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0) * E
    return C, S, Z, G, E


def _channel_terms(k, w, a, C, Z, G, ch):
    """Scaled d, dd/dk and dd/dw (w = K^2) from the trig blocks at z = aK."""
    if ch == CH_PLUS:
        d = k * C - 1j * a * w * Z
        dk = C - (a * a) * (k * k) * Z - 1j * a * k * (Z + C)
        dw = -0.5 * (a * a) * k * Z - 0.5j * a * (Z + C)
    else:
        d = C - 1j * a * k * Z
        dk = -1j * a * Z - (a * a) * k * Z - 1j * (a * a * a) * (k * k) * G
        dw = -0.5 * (a * a) * (Z + 1j * a * k * G)
    return d, dk, dw


def denom_scaled(k, gamma, m, a, U, ch):
    """Channel pole function and derivatives, scaled by E = exp(-|Im aK|).

    Returns (d, dk, da, E): the pole function, its k-derivative, and its
    derivative along the coupling phase alpha (gamma = e^{i alpha}), all
    carrying the common factor E.
    """
    w = k * k + 2.0 * m * gamma * U
    z = a * cmath.sqrt(w)
    C, S, Z, G, E = trig_scaled(z)
    d, dk, dw = _channel_terms(k, w, a, C, Z, G, ch)
    return d, dk, dw * (2j * m * U * gamma), E


def unscale(v, E):
    """True value v/E of a scaled kernel output.

    Where E underflowed to 0 the true value overflows: each nonzero part of
    v goes to +-inf and a zero part to nan, as IEEE division by +0 gives,
    where Python's complex division would raise ZeroDivisionError.
    """
    if E == 0.0:
        return v * math.inf
    return v / E


def newton_pole(k0, gamma, m, a, U, ch, step_tol, max_iter):
    """Newton iteration on the channel pole function.

    With s_n = d/(dd/dk) at k_n the n-th step and k_{n+1} = k_n - s_n, it
    stops at the first n where one of three exits passes:

    - the step test, |s_n| < step_tol*(1+|k_{n+1}|); it returns k_{n+1};
    - from the second iteration on, Newton's quadratic error model puts the
      next step under that bound: |s_n|^3 < step_tol*(1+|k_{n+1}|)*|s_{n-1}|^2.
      This saves the iteration that would only confirm a converged step.
      It returns k_{n+1};
    - from the second iteration on, d = p - q is a rounding residue of its
      two terms (k*C and i*a*w*Z in the even channel, C and i*a*k*Z in the
      odd one): |d| < 16*eps*(|p| + |q|). Then k_n is a root to working
      precision and s_n is noise, so it returns k_n. At the far virtual
      poles of shallow narrow wells the terms exceed dd/dk so far that
      every step is noise above the step test's bound, and noise steps
      need not shrink as the model asks. Next to a near-double zero, where
      dd/dk nearly vanishes, the noise step can be large, and k_n is the
      better root. The first iteration skips this test: a corrector seldom
      starts within roundoff of its pole, and it would cost every call.

    Returns (k, iterations, converged, v), v = dk/dalpha = -D_alpha/D_k
    the tangent of the pole curve, or a complex nan when not converged. The
    ratio d/dk is scale-invariant, so overflow never enters; an iterate that
    runs off past the float range turns nan and is reported as not
    converged. So is a stop at an iterate where E = exp(-|Im aK|)
    underflowed to 0: there the step is roundoff, and every exit passes at
    no pole; the iterate k_n is returned.

    The loop evaluates d and dd/dk only: ``trig_scaled`` reduced to the
    blocks the channel reads, then ``_channel_terms`` without dd/dw. Every
    float operation, its order and its constants are those of
    ``denom_scaled``, so each iterate is bit-equal to a loop on it; keep
    ``(-1j * a) * Z``, since ``-(1j * a) * Z`` flips the sign of a zero
    real part. Only on convergence does it form dd/dw, from k_n's trig
    blocks, for v. So v is the tangent at k_n: at the returned k for the
    roundoff exit, |s_n| from it for the others, which is under
    step_tol*(1+|k|) at the step test and under
    (step_tol*(1+|k|)*|s_{n-1}|^2)^(1/3) at the model's exit; in the
    continuation corrector that reaches about 1.5e-6*(1+|k|).
    """
    c = 2.0 * m * gamma * U
    a2 = a * a
    ia = 1j * a
    mia = -1j * a
    ia3 = 1j * (a2 * a)
    odd = ch != CH_PLUS
    sqrt, exp, cos, sin = cmath.sqrt, math.exp, math.cos, math.sin
    k = k0
    for it in range(max_iter):
        kk = k * k
        w = kk + c
        z = a * sqrt(w)
        x = z.real
        y = z.imag
        ay = abs(y)
        sgn = 1.0 if y >= 0.0 else -1.0
        e2 = exp(-2.0 * ay)
        cp = 0.5 * (1.0 + e2)
        cm = 0.5 * (1.0 - e2)
        try:
            cx = cos(x)
            sx = sin(x)
        except ValueError:
            cx = sx = math.nan
        C = complex(cx * cp, -sgn * sx * cm)
        az = abs(z)
        # E = exp(-|Im z|) is a factor only of the series forms
        if az >= _SINC_CUT:
            Z = complex(sx * cp, sgn * cx * cm) / z
        else:
            z2 = z * z
            Z = (1.0 - z2 / 6.0 + z2 * z2 / 120.0) * exp(-ay)
        if odd:
            if az >= _G_CUT:
                G = (C - Z) / (z * z)
            else:
                z2 = z * z
                G = (
                    -1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0
                ) * exp(-ay)
            p = C
            q = ia * k * Z
            dk = mia * Z - a2 * k * Z - ia3 * kk * G
        else:
            p = k * C
            q = ia * w * Z
            dk = C - a2 * kk * Z - ia * k * (Z + C)
        d = p - q
        if dk == 0.0:
            return k, it, False, _NAN
        step = d / dk
        k1 = k - step
        s = abs(step)
        bound = step_tol * (1.0 + abs(k1))
        # the step passes the test, or, from the second iteration on,
        # Newton's quadratic model puts the next one under it:
        # |s_{n+1}| ~ |s_n|^2 / |s_{n-1}|
        if s < bound or it and s * s * s < bound * s_prev * s_prev:
            k_root = k1
        elif it and abs(d) < _ROUNDOFF * (abs(p) + abs(q)):
            # d is a rounding residue of its two terms: k is a root to
            # working precision, and the step is noise
            k_root = k
        else:
            k = k1
            s_prev = s
            continue
        if exp(-ay) == 0.0:
            # E underflowed: every scaled value is 0 or a rounding residue,
            # and each exit passes anywhere
            return k, it + 1, False, _NAN
        if odd:
            dw = -0.5 * a2 * (Z + ia * k * G)
        else:
            dw = -0.5 * a2 * k * Z - 0.5j * a * (Z + C)
        return k_root, it + 1, True, -(dw * (2j * m * U * gamma)) / dk
    return k, max_iter, False, _NAN


def _grid(ks, gamma, m, a, U, ch):
    """Scaled d and dd/dk at each Python complex momentum of ks, as two lists.

    The loop body is ``newton_pole``'s: ``trig_scaled`` reduced to the
    blocks the channel reads and ``_channel_terms`` without dd/dw, in the
    float operations and order of ``denom_scaled``, so every pair is
    bit-equal to its (d, dk) at the same k and gamma.
    """
    c = 2.0 * m * gamma * U
    a2 = a * a
    ia = 1j * a
    mia = -1j * a
    ia3 = 1j * (a2 * a)
    odd = ch != CH_PLUS
    sqrt, exp, cos, sin = cmath.sqrt, math.exp, math.cos, math.sin
    ds, dks = [], []
    for k in ks:
        kk = k * k
        w = kk + c
        z = a * sqrt(w)
        x = z.real
        y = z.imag
        ay = abs(y)
        sgn = 1.0 if y >= 0.0 else -1.0
        e2 = exp(-2.0 * ay)
        cp = 0.5 * (1.0 + e2)
        cm = 0.5 * (1.0 - e2)
        try:
            cx = cos(x)
            sx = sin(x)
        except ValueError:
            cx = sx = math.nan
        C = complex(cx * cp, -sgn * sx * cm)
        az = abs(z)
        if az >= _SINC_CUT:
            Z = complex(sx * cp, sgn * cx * cm) / z
        else:
            z2 = z * z
            Z = (1.0 - z2 / 6.0 + z2 * z2 / 120.0) * exp(-ay)
        if odd:
            if az >= _G_CUT:
                G = (C - Z) / (z * z)
            else:
                z2 = z * z
                G = (
                    -1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0
                ) * exp(-ay)
            ds.append(C - ia * k * Z)
            dks.append(mia * Z - a2 * k * Z - ia3 * kk * G)
        else:
            ds.append(k * C - ia * w * Z)
            dks.append(C - a2 * kk * Z - ia * k * (Z + C))
    return ds, dks


def axis_phi(kappas, gamma, m, a, U, ch):
    """Real pole function along the imaginary axis k = i*kappa, real gamma.

    For the even channel phi = Re(-i * d_plus(i kappa)); for the odd channel
    phi = Re(d_minus(i kappa)). Both are real-valued up to roundoff when
    gamma is real. Values carry the scaling factor E (positive), which does
    not affect sign changes. Returns a list of floats.
    """
    ds, _ = _grid([complex(0.0, x) for x in kappas], complex(gamma), m, a, U, ch)
    if ch == CH_PLUS:
        return [(-1j * d).real for d in ds]
    return [d.real for d in ds]


def grid_denom_dk(ks, gamma, m, a, U, ch):
    """Scaled pole function and k-derivative at each momentum of ks.

    Returns two lists (d, dk), each value bit-equal to ``denom_scaled``.
    """
    return _grid([complex(k) for k in ks], complex(gamma), m, a, U, ch)


def denom_plain(k, gamma, m, a, U, ch):
    """Unscaled channel pole function and k-derivative.

    Overflows to inf or nan when |Im aK| exceeds ~709; use the scaled form
    there.
    """
    d, dk, da, E = denom_scaled(complex(k), complex(gamma), m, a, U, ch)
    return unscale(d, E), unscale(dk, E)
