"""Independent reference values for the benchmark's output checks.

Nothing here imports wellpoles. The critical depths come from the closed
form of the well: with interior momentum K, a channel pole satisfies
g(K)^2 = 2 m U gamma, where g(K) = K / cos(aK) in the even channel and
K / sin(aK) in the odd one. Pole pairs collide where g'(K) = 0, so with
x = aK the collision equations are

    even, attractive:  cos x + x sin x = 0     (1 + x tan x = 0)
    odd, attractive:   sin x - x cos x = 0     (tan x = x)
    even, repulsive:   cosh y - y sinh y = 0   (1 - y tanh y = 0, K = i y / a)

and the critical depth is U* = |g(K)|^2 / (2m). The odd repulsive channel
has no collision. Roots are found by plain bisection on brackets known from
the sign pattern of each equation.

The pole function is evaluated here in its own cmath form, scaled by
exp(-|Im aK|) so that deep wells do not overflow.
"""

from __future__ import annotations

import cmath
import math


def bisect(f, lo: float, hi: float, rel_tol: float = 4e-16) -> float:
    """Root of f on [lo, hi], which must hold a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= rel_tol * abs(mid):
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_depth(channel: str, attractive: bool, index: int, m: float, a: float) -> float:
    """U* of the index-th pair collision (index counts from 1)."""
    if index < 1:
        raise ValueError("index counts from 1")
    half_pi = 0.5 * math.pi
    if attractive and channel == "plus":
        x = bisect(lambda t: math.cos(t) + t * math.sin(t),
                   (2 * index - 1) * half_pi, index * math.pi)
        return (x / (a * math.cos(x))) ** 2 / (2.0 * m)
    if attractive and channel == "minus":
        x = bisect(lambda t: math.sin(t) - t * math.cos(t),
                   index * math.pi, (2 * index + 1) * half_pi)
        return (x / (a * math.sin(x))) ** 2 / (2.0 * m)
    if channel == "plus" and index == 1:
        # y tanh y rises monotonically from 0, so there is one root; it
        # lies in [1, 2] since tanh(1) < 1 < 2 tanh(2)
        y = bisect(lambda t: math.cosh(t) - t * math.sinh(t), 1.0, 2.0)
        return (y / (a * math.cosh(y))) ** 2 / (2.0 * m)
    raise ValueError(f"no collision for channel={channel} attractive={attractive} index={index}")


def bound_threshold(channel: str, n: int, m: float, a: float) -> float:
    """Depth at which the n-th bound state enters at k = 0.

    At k = 0 the even condition reduces to K sin(aK) = 0 and the odd one to
    cos(aK) = 0, so aK = n pi or (2n - 1) pi / 2.
    """
    x = n * math.pi if channel == "plus" else (2 * n - 1) * 0.5 * math.pi
    return (x / a) ** 2 / (2.0 * m)


def _scaled_cos_sin(z: complex) -> tuple[complex, complex]:
    """cos z and sin z, both times exp(-|Im z|), from Euler's formula."""
    shift = abs(z.imag)
    ep = cmath.exp(1j * z - shift)
    em = cmath.exp(-1j * z - shift)
    return 0.5 * (ep + em), (ep - em) / 2j


def pole_residual(k: complex, channel: str, m: float, a: float, U: float) -> float:
    """Relative residual of the attractive-coupling pole function at k.

    Even channel: k cos(aK) - i K sin(aK); odd channel:
    cos(aK) - i a k sinc(aK). The residual is |D| over the sum of the
    magnitudes of its two terms, so the common scale cancels.
    """
    K = cmath.sqrt(k * k + 2.0 * m * U)
    z = a * K
    c, s = _scaled_cos_sin(z)
    if channel == "plus":
        t1, t2 = k * c, -1j * K * s
    else:
        sinc = s / z if abs(z) > 1e-8 else complex(math.exp(-abs(z.imag)))
        t1, t2 = c, -1j * a * k * sinc
    scale = abs(t1) + abs(t2)
    return abs(t1 + t2) / scale if scale > 0.0 else math.inf
