"""The panels that the chart-correctness gates are stated over, as code.

"The box" (ROADMAP, "Context") is 2000 random wells drawn from
``random.Random(7)``. Each well draws, in this order, the mass m uniform in
[0.2, 10], the half-width a uniform in [0.1, 6], the depth U log-uniform in
[1e-3, 300] and the channel by ``rng.choice(["plus", "minus"])``.

"Item 7's grid" is the near-collision grid: the index-1 collisions of the
plus attractive, plus repulsive and minus attractive couplings, at
(m, a) in {(1, 1.5), (0.7, 2.3), (3, 0.8)}, and U = U*(1 + eps) for eps in
+-{1e-5, 1e-7, 1e-9, 1e-11, 1e-13}: 90 charts, and with the 9 exact
depths U = U*, 99.

"The deep panel" is (m, a) = (1, 1.5) at c in {1000, 2121.3, 5000, 1e4},
U = c^2/4.5, in both channels; "below it" is c in {250, 500}.

"The verify grid" is 70 runs of ``wellpoles verify --a A --U U --samples
200 --seed 5`` over the widths and depths below; four lie past ``C_LIMIT``
and exit 2.

"The mpmath S check" is 300 samples from ``random.Random(3)``. Each draws,
in this order, a log-uniform in [0.1, 20], U log-uniform in [1e-12, 10],
Re k uniform in [-6, 6], Im k uniform in [-3, 3] and alpha uniform in
[0, 2 pi), at m = 1. At each, ``s_plus`` and ``s_minus`` are compared with
mpmath at 60 digits where both are finite.

"The weak-well commands" are four CLI runs on very weak wells.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

from wellpoles import Channel, ComplexCoupling, PoleHit, PotentialSpec, s_minus, s_plus
from wellpoles.rootfinder import collision_depth

BOX_SEED = 7
BOX_SIZE = 2000

# (channel, attractive) of each index-1 collision, the wells, and the
# relative offsets from U* of item 7's grid
GRID_COLLISIONS = (("plus", True), ("plus", False), ("minus", True))
GRID_WELLS = ((1.0, 1.5), (0.7, 2.3), (3.0, 0.8))
GRID_EPSILONS = tuple(sign * 10.0 ** -e for e in (5, 7, 9, 11, 13) for sign in (1, -1))

DEEP_STRENGTHS = (1000.0, 2121.3, 5000.0, 1e4)
BELOW_DEEP_STRENGTHS = (250.0, 500.0)

VERIFY_WIDTHS = (0.1, 1.0, 1.5, 5.0, 10.0, 100.0, 300.0, 1000.0, 3000.0, 9000.0)
VERIFY_DEPTHS = (1e-300, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 100.0)

S_CHECK_SEED = 3
S_CHECK_SIZE = 300
S_CHECK_DIGITS = 60

WEAK_WELL_COMMANDS = (
    ["chart", "--m", "1e-6", "--a", "0.01", "--U", "1", "--channel", "plus"],
    ["chart", "--m", "0.01", "--a", "100", "--U", "1e-300", "--channel", "minus"],
    ["sweep", "--m", "1", "--a", "1e-6", "--channel", "minus", "--depths", "1e-12,1"],
    ["sweep", "--depths", "1e-300,1e-200"],
)


@functools.cache
def box() -> tuple[tuple[float, float, float, str], ...]:
    """The box's wells as (m, a, U, channel), in draw order."""
    rng = random.Random(BOX_SEED)
    wells = []
    for _ in range(BOX_SIZE):
        m = rng.uniform(0.2, 10.0)
        a = rng.uniform(0.1, 6.0)
        U = math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        channel = rng.choice(["plus", "minus"])
        wells.append((m, a, U, channel))
    return tuple(wells)


def collision_grid(epsilons: tuple[float, ...] = (0.0,) + GRID_EPSILONS,
                   ) -> tuple[tuple[float, float, float, str], ...]:
    """Item 7's grid as (m, a, U, channel), U = U*(1 + eps) for each
    collision, well and eps in turn; epsilons=(0.0,) gives the 9 exact
    collision depths."""
    return tuple(
        (m, a, collision_depth(Channel.parse(channel), attractive, m, a, 1) * (1.0 + eps), channel)
        for channel, attractive in GRID_COLLISIONS
        for m, a in GRID_WELLS
        for eps in epsilons
    )


def deep_panel(strengths: tuple[float, ...] = DEEP_STRENGTHS,
               ) -> tuple[tuple[float, float, float, str], ...]:
    """The deep panel as (m, a, U, channel): (1, 1.5) at each strength c,
    U = c^2/4.5, plus channel first."""
    return tuple((1.0, 1.5, c * c / 4.5, channel)
                 for c in strengths for channel in ("plus", "minus"))


def verify_grid() -> tuple[tuple[float, float], ...]:
    """The verify grid's (a, U) pairs, width by width."""
    return tuple((a, U) for a in VERIFY_WIDTHS for U in VERIFY_DEPTHS)


def verify_argv(a: float, U: float) -> list[str]:
    """The CLI arguments of one verify grid run."""
    return ["verify", "--a", repr(a), "--U", repr(U), "--samples", "200", "--seed", "5"]


@functools.cache
def s_check_draws() -> tuple[tuple[float, float, complex, float], ...]:
    """The S check's samples as (a, U, k, alpha), in draw order."""
    rng = random.Random(S_CHECK_SEED)
    draws = []
    for _ in range(S_CHECK_SIZE):
        a = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
        U = math.exp(rng.uniform(math.log(1e-12), math.log(10.0)))
        k = complex(rng.uniform(-6.0, 6.0), rng.uniform(-3.0, 3.0))
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        draws.append((a, U, k, alpha))
    return tuple(draws)


def _mp_channel_s(a: float, U: float, k: complex, alpha: float, odd: bool) -> complex:
    """-+e^{-2ika} d(-k)/d(k) at m = 1 in mpmath, with d = k cos aK -
    i K sin aK (even) or K cos aK - i k sin aK (odd), K = sqrt(k^2 + 2 U
    e^{i alpha}), from the float inputs as given."""
    import mpmath as mp

    with mp.workdps(S_CHECK_DIGITS):
        a_, k_ = mp.mpf(a), mp.mpc(k.real, k.imag)
        K = mp.sqrt(k_ * k_ + 2 * mp.mpf(U) * mp.expj(mp.mpf(alpha)))

        def d(kk):
            if odd:
                return K * mp.cos(a_ * K) - 1j * kk * mp.sin(a_ * K)
            return kk * mp.cos(a_ * K) - 1j * K * mp.sin(a_ * K)

        s = mp.exp(-2j * k_ * a_) * d(-k_) / d(k_)
        return complex(s if odd else -s)


@functools.cache
def s_check_errors(channel: str) -> tuple[float, ...]:
    """The relative error of ``s_plus`` or ``s_minus`` against mpmath at each
    S-check sample where both are finite (a PoleHit is no value)."""
    odd = Channel.parse(channel) is Channel.MINUS
    s_channel = s_minus if odd else s_plus
    errors = []
    for a, U, k, alpha in s_check_draws():
        try:
            value = s_channel(k, ComplexCoupling(alpha), PotentialSpec(1.0, a, U))
        except PoleHit:
            continue
        ref = _mp_channel_s(a, U, k, alpha, odd)
        if cmath.isfinite(value) and cmath.isfinite(ref):
            errors.append(abs(value - ref) / abs(ref))
    return tuple(errors)
