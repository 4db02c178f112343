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
"""

from __future__ import annotations

import functools
import math
import random

from wellpoles import Channel
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
