"""Numeric kernels for the channel pole functions.

Every hot loop in the engine (Newton polishing, continuation correctors,
winding contours) bottoms out in one scalar kernel: ``trig_scaled`` for the
trig blocks and ``_channel_terms`` for the channel algebra, composed by
``denom_scaled``, which serves the continuation predictor and single
evaluations. The rest give values bit-equal to it:

- ``newton_pole``, the corrector, evaluates d and dd/dq inline, without
  dd/dw or the D_alpha product, and forms dd/dw once, after it converges,
  for the tangent dq/dalpha at its last iterate, which it returns. As the
  corrector's hot loop, it alone repeats ``trig_scaled`` and
  ``_channel_terms`` inline, in their float operations and order; its
  step tolerance STEP_TOL is stated here, and no caller sets it;
- ``grid_denom_dk`` loops over a list of momenta for the winding contours,
  with ``trig_scaled`` and ``_channel_terms``;
- ``axis_phi`` reads ``grid_denom_dk`` along the imaginary axis. The axis
  poles are enumerated in closed form (``rootfinder.scan_axis``), so it is
  only the sampled reference that tests count sign changes of.

Tests in ``tests/test_kernels.py`` lock the bit-equality. Everything runs
on ``math``/``cmath`` and Python ``float``/``complex`` values.

Units
-----
The kernels see no mass, width or depth. A well of mass m, half-width a
and depth U enters only through c = a*sqrt(2 m U): with the scaled
momentum q = k*a, the scaled coupling s = c^2 * gamma and the interior
phase z = a*K = sqrt(q^2 + s), the pole condition is (z/cos z)^2 = s in
the even channel and (z/sin z)^2 = s in the odd one. Every kernel takes
(q, s, ch) and returns values in q units; the caller forms k = q/a.

Scaling convention
------------------
For complex q the interior phase z can have |Im z| past 710, where cos(z)
and sin(z) overflow. All kernel values carry the factor E = exp(-|Im z|):

    C_s = cos(z) * E,   S_s = sin(z) * E

Below |Im z| = _CMATH_CUT = 700 they are ``cmath.cos(z) * E`` and
``cmath.sin(z) * E``: cosh(|Im z|) is finite there and E a normal float,
and each part of C_s and S_s is accurate to a few units of roundoff, also
next to the real axis. At and above 700 they come from the exact
half-angle forms of ``_half_angle``, e.g. Re C_s = cos(x)*(1 + e^{-2|y|})/2,
which never overflow; near the real axis those lose the imaginary parts to
the cancellation in (1 - e^{-2|y|})/2, so they serve only where that
cannot matter. The inline loop of ``newton_pole`` keeps the two cmath
calls in its body and calls ``_half_angle`` only above the cut. The sinc
and curvature blocks Z and G are S_s/z and (C_s - Z)/z^2, or their series
times E inside the series windows |z| < _SINC_CUT and |z| < _G_CUT. Every returned
denominator/derivative here is the true value times the same E, which
cancels in Newton ratios and winding arguments. ``E`` is returned alongside
so callers can unscale when the true magnitude is needed.

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
ch = 0 selects the even channel denominator, times a,

    d_plus(q) = q*cos(z) - i*z*sin(z)

written in the manifestly even-in-z form q*C - i*w*Z with w = z^2 and
Z = sinc(z). ch = 1 selects the *regularized* odd channel pole function

    d_minus(q) = cos(z) - i*q*sinc(z)  =  (z*cos(z) - i*q*sin(z)) / z

which shares the zeros of the literal odd denominator except the spurious
z = 0 one, is even in z, and is entire in q^2.
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

# newton_pole's step tolerance, relative to 1 + |q|
STEP_TOL = 1e-12

# newton_pole's roundoff exit: d below this many units of double precision
# of the terms whose difference it is
_ROUNDOFF = 16.0 * 2.0 ** -52

# the longest previous step, in q, after which newton_pole's quadratic
# model may exit: the pole functions vary on a scale of order 1 in q
_MODEL_STEP = 0.1

# the tangent newton_pole returns when it does not converge, and the trig
# blocks at an infinite real part
_NAN = complex(math.nan, math.nan)

# below this |Im z| the trig blocks are cmath's cos and sin times E: cosh
# stays finite up to about 710, and E = exp(-|Im z|) is a normal float
_CMATH_CUT = 700.0


def _half_angle(z):
    """C = cos(z)*E and S = sin(z)*E, E = exp(-|Im z|), from the exact
    half-angle forms, finite at any |Im z|; an infinite real part or a nan
    part gives nan blocks."""
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
    return complex(cx * cp, -sgn * sx * cm), complex(sx * cp, sgn * cx * cm)


def trig_scaled(z):
    """Scaled trig blocks at complex z.

    Returns (C, S, Z, G, E) where C = cos(z)*E, S = sin(z)*E, Z = sinc(z)*E,
    G = ((cos(z) - sinc(z))/z**2)*E and E = exp(-|Im z|). C and S are the
    cmath values times E below |Im z| = _CMATH_CUT and the half-angle forms
    above it, so everything stays finite for arbitrarily large |Im z|; a z
    with an infinite real part or a nan part gives nan blocks.
    """
    ay = abs(z.imag)
    E = math.exp(-ay)
    if ay < _CMATH_CUT:
        try:
            C = cmath.cos(z) * E
            S = cmath.sin(z) * E
        except ValueError:  # Re z = +-inf, where cmath raises
            C = S = _NAN
    else:
        C, S = _half_angle(z)
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


def _channel_terms(q, w, C, Z, G, ch):
    """Scaled d, dd/dq and dd/dw (w = z^2 = q^2 + s) from the trig blocks at z."""
    if ch == CH_PLUS:
        d = q * C - 1j * w * Z
        dq = C - (q * q) * Z - 1j * q * (Z + C)
        dw = -0.5 * q * Z - 0.5j * (Z + C)
    else:
        d = C - 1j * q * Z
        dq = -1j * Z - q * Z - 1j * (q * q) * G
        dw = -0.5 * (Z + 1j * q * G)
    return d, dq, dw


def denom_scaled(q, s, ch):
    """Channel pole function and derivatives, scaled by E = exp(-|Im z|).

    Returns (d, dq, da, E): the pole function, its q-derivative, and its
    derivative along the coupling phase alpha (s = c^2 e^{i alpha}, so
    ds/dalpha = i*s), all carrying the common factor E.
    """
    w = q * q + s
    C, S, Z, G, E = trig_scaled(cmath.sqrt(w))
    d, dq, dw = _channel_terms(q, w, C, Z, G, ch)
    return d, dq, dw * (1j * s), E


def unscale(v, E):
    """True value v/E of a scaled kernel output.

    Where E underflowed to 0 the true value overflows: each nonzero part of
    v goes to +-inf and a zero part to nan, as IEEE division by +0 gives,
    where Python's complex division would raise ZeroDivisionError.
    """
    if E == 0.0:
        return v * math.inf
    return v / E


def newton_pole(q0, s, ch, max_iter):
    """Newton iteration on the channel pole function.

    With t_n = d/(dd/dq) at q_n the n-th step and q_{n+1} = q_n - t_n, it
    stops at the first n where one of three exits passes:

    - the step test, |t_n| < STEP_TOL*(1+|q_{n+1}|); it returns q_{n+1};
    - after a previous step |t_{n-1}| < _MODEL_STEP = 0.1, Newton's
      quadratic error model puts the next step under that bound:
      |t_n|^3 < STEP_TOL*(1+|q_{n+1}|)*|t_{n-1}|^2, which saves the
      iteration that would only confirm a converged step. The model's
      constant |t_n|/|t_{n-1}|^2 holds only in the quadratic regime, which
      a step of order 1 in q has not reached. It returns q_{n+1};
    - from the second iteration on, d = p - r is a rounding residue of its
      two terms (q*C and i*w*Z in the even channel, C and i*q*Z in the
      odd one): |d| < 16*eps*(|p| + |r|). Then q_n is a root to working
      precision and t_n is noise, so it returns q_n. At the far virtual
      poles of shallow narrow wells the terms exceed dd/dq so far that
      every step is noise above the step test's bound, and noise steps
      need not shrink as the model asks. Next to a near-double zero, where
      dd/dq nearly vanishes, the noise step can be large, and q_n is the
      better root. The first iteration skips this test: a corrector seldom
      starts within roundoff of its pole, and it would cost every call.

    Returns (q, iterations, converged, v), v = dq/dalpha = -D_alpha/D_q the
    tangent of the pole curve, or a complex nan when not converged. The
    ratio d/dq is scale-invariant, so overflow never enters; an iterate that
    runs off past the float range turns nan and is reported as not
    converged. So is a stop at an iterate where E = exp(-|Im z|)
    underflowed to 0: there the step is roundoff, and every exit passes at
    no pole; the iterate q_n is returned.

    The loop evaluates d and dd/dq only: ``trig_scaled`` inline (the two
    cmath calls below _CMATH_CUT, ``_half_angle`` above it) with G only in
    the odd channel, then ``_channel_terms`` without dd/dw: the package's
    one inline repeat of the algebra. Every float operation, its order and
    its constants are those of ``denom_scaled``, so each iterate is
    bit-equal to a loop on it. Only on convergence does it form dd/dw, from
    q_n's trig blocks, for v. So v is the tangent at q_n: at the returned q
    for the roundoff exit, |t_n| from it for the others, which is under
    STEP_TOL*(1+|q|) at the step test and under
    (STEP_TOL*(1+|q|)*|t_{n-1}|^2)^(1/3) at the model's exit; in the
    continuation corrector that reaches about 1.5e-6*(1+|q|).
    """
    odd = ch != CH_PLUS
    sqrt, exp, cos, sin = cmath.sqrt, math.exp, cmath.cos, cmath.sin
    q = q0
    size_prev = math.inf
    for it in range(max_iter):
        qq = q * q
        w = qq + s
        z = sqrt(w)
        ay = abs(z.imag)
        E = exp(-ay)
        if ay < _CMATH_CUT:
            try:
                C = cos(z) * E
                S = sin(z) * E
            except ValueError:
                C = S = _NAN
        else:
            C, S = _half_angle(z)
        az = abs(z)
        if az >= _SINC_CUT:
            Z = S / z
        else:
            z2 = z * z
            Z = (1.0 - z2 / 6.0 + z2 * z2 / 120.0) * E
        if odd:
            if az >= _G_CUT:
                G = (C - Z) / (z * z)
            else:
                z2 = z * z
                G = (
                    -1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0
                ) * E
            p = C
            r = 1j * q * Z
            dq = -1j * Z - q * Z - 1j * qq * G
        else:
            p = q * C
            r = 1j * w * Z
            dq = C - qq * Z - 1j * q * (Z + C)
        d = p - r
        if dq == 0.0:
            return q, it, False, _NAN
        step = d / dq
        q1 = q - step
        size = abs(step)
        bound = STEP_TOL * (1.0 + abs(q1))
        # the step passes the test, or, after a step below _MODEL_STEP,
        # Newton's quadratic model puts the next one under it:
        # |t_{n+1}| ~ |t_n|^2 / |t_{n-1}|
        if size < bound or (size_prev < _MODEL_STEP
                            and size * size * size < bound * size_prev * size_prev):
            q_root = q1
        elif it and abs(d) < _ROUNDOFF * (abs(p) + abs(r)):
            # d is a rounding residue of its two terms: q is a root to
            # working precision, and the step is noise
            q_root = q
        else:
            q = q1
            size_prev = size
            continue
        if E == 0.0:
            # E underflowed: every scaled value is 0 or a rounding residue,
            # and each exit passes anywhere
            return q, it + 1, False, _NAN
        if odd:
            dw = -0.5 * (Z + 1j * q * G)
        else:
            dw = -0.5 * q * Z - 0.5j * (Z + C)
        return q_root, it + 1, True, -(dw * (1j * s)) / dq
    return q, max_iter, False, _NAN


def grid_denom_dk(ks, s, ch):
    """Scaled d and dd/dq at each scaled momentum q = k*a of ks, as two lists.

    Each pair is ``denom_scaled``'s (d, dq) at the same q and s: the trig
    blocks come from ``trig_scaled`` and the channel algebra from
    ``_channel_terms``.
    """
    s = complex(s)
    ds, dqs = [], []
    for q in ks:
        q = complex(q)
        w = q * q + s
        C, _, Z, G, _ = trig_scaled(cmath.sqrt(w))
        d, dq, _ = _channel_terms(q, w, C, Z, G, ch)
        ds.append(d)
        dqs.append(dq)
    return ds, dqs


def axis_phi(kappas, s, ch):
    """Real pole function along the imaginary axis q = i*kappa, real s.

    kappas are scaled, a times the momentum's imaginary part. For the even
    channel phi = Re(-i * d_plus(i kappa)); for the odd channel
    phi = Re(d_minus(i kappa)). Both are real-valued up to roundoff when
    s is real. Values carry the scaling factor E (positive), which does
    not affect sign changes. Returns a list of floats.
    """
    ds, _ = grid_denom_dk([complex(0.0, x) for x in kappas], s, ch)
    if ch == CH_PLUS:
        return [(-1j * d).real for d in ds]
    return [d.real for d in ds]


def denom_plain(q, s, ch):
    """Unscaled channel pole function and q-derivative.

    Overflows to inf or nan when |Im z| exceeds ~709; use the scaled form
    there.
    """
    d, dq, da, E = denom_scaled(complex(q), complex(s), ch)
    return unscale(d, E), unscale(dq, E)
