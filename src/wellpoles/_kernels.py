"""Numeric kernels for the channel pole functions.

Every hot loop in the engine (Newton polishing, continuation correctors,
winding contours) bottoms out in the kernels here: a scalar kernel
(``trig_scaled``, ``denom_scaled``, ``newton_pole``) for pointwise work, and
a numpy array kernel (``denom_scaled_numpy``) behind the grid drivers
``grid_denom_dk``, which the winding contours use, and ``axis_phi``. Only
the trig blocks exist twice; both call one ``_channel_terms`` for the
channel algebra. The axis poles are enumerated in closed form
(``rootfinder.scan_axis``), so ``axis_phi`` is only the sampled reference
along the imaginary axis that tests count sign changes of.

The scalar kernel runs on ``math``/``cmath`` and Python ``float``/``complex``
values, never on numpy scalars, which cost several times as much per call.
The two kernels evaluate the same formulas with the same series cut-offs, so
they agree to about 1e-13 relative, but not bit for bit: numpy's ``exp`` and
complex division round differently from ``math.exp`` and CPython's.

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
whose iterate overflows reports ``converged=False``.

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

import numpy as np

CH_PLUS = 0
CH_MINUS = 1

# series cutoffs: sinc below 1e-4 (next omitted term ~1e-18), the curvature
# block G below 0.1 (series truncation error ~1e-14 relative)
_SINC_CUT = 1e-4
_G_CUT = 0.1


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
    except ValueError:  # x = +-inf, where math raises and numpy gives nan
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
    """Scaled d, dd/dk and dd/dw (w = K^2) from the trig blocks at z = aK;
    k and w are complex scalars or arrays."""
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

    Stops when |step| < step_tol*(1+|k|). Returns (k, iterations, converged).
    The ratio d/dk is scale-invariant, so overflow never enters; an iterate
    that runs off past the float range turns nan and is reported as not
    converged.
    """
    k = k0
    for it in range(max_iter):
        d, dk, da, E = denom_scaled(k, gamma, m, a, U, ch)
        if dk == 0.0:
            return k, it, False
        step = d / dk
        k = k - step
        if abs(step) < step_tol * (1.0 + abs(k)):
            return k, it + 1, True
    return k, max_iter, False


def _trig_scaled_numpy(z):
    """Vectorized twin of trig_scaled over a complex array."""
    x = z.real
    y = z.imag
    ay = np.abs(y)
    sgn = np.where(y >= 0.0, 1.0, -1.0)
    e2 = np.exp(-2.0 * ay)
    cp = 0.5 * (1.0 + e2)
    cm = 0.5 * (1.0 - e2)
    cx = np.cos(x)
    sx = np.sin(x)
    C = cx * cp - 1j * sgn * sx * cm
    S = sx * cp + 1j * sgn * cx * cm
    E = np.exp(-ay)
    az = np.abs(z)
    zsafe = np.where(az >= _SINC_CUT, z, 1.0)
    z2 = z * z
    Z = np.where(az >= _SINC_CUT, S / zsafe, (1.0 - z2 / 6.0 + z2 * z2 / 120.0) * E)
    zsafe2 = np.where(az >= _G_CUT, z, 1.0)
    G = np.where(
        az >= _G_CUT,
        (C - Z) / (zsafe2 * zsafe2),
        (-1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0) * E,
    )
    return C, S, Z, G, E


def denom_scaled_numpy(ks, gamma, m, a, U, ch):
    """Vectorized twin of denom_scaled over an array of momenta."""
    k = np.asarray(ks, dtype=np.complex128)
    w = k * k + 2.0 * m * gamma * U
    z = a * np.sqrt(w)
    C, S, Z, G, E = _trig_scaled_numpy(z)
    d, dk, dw = _channel_terms(k, w, a, C, Z, G, ch)
    return d, dk, dw * (2j * m * U * gamma), E


def axis_phi(kappas, gamma, m, a, U, ch):
    """Real pole function along the imaginary axis k = i*kappa, real gamma.

    For the even channel phi = Re(-i * d_plus(i kappa)); for the odd channel
    phi = Re(d_minus(i kappa)). Both are real-valued up to roundoff when
    gamma is real. Values carry the scaling factor E (positive), which does
    not affect sign changes.
    """
    ks = 1j * np.asarray(kappas, dtype=np.float64)
    d, dk, da, E = denom_scaled_numpy(ks, gamma, m, a, U, ch)
    if ch == CH_PLUS:
        return (-1j * d).real.copy()
    return d.real.copy()


def grid_denom_dk(ks, gamma, m, a, U, ch):
    """Scaled pole function and k-derivative on an array of momenta."""
    d, dk, da, E = denom_scaled_numpy(ks, gamma, m, a, U, ch)
    return d, dk


def denom_plain(k, gamma, m, a, U, ch):
    """Unscaled channel pole function and k-derivative.

    Overflows to inf or nan when |Im aK| exceeds ~709; use the scaled form
    there.
    """
    d, dk, da, E = denom_scaled(complex(k), complex(gamma), m, a, U, ch)
    return unscale(d, E), unscale(dk, E)
