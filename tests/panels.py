"""The panels that the chart-correctness gates are stated over, as code.

"The box" (ROADMAP, "Context") is 2000 random wells drawn from
``random.Random(7)``. Each well draws, in this order, the mass m uniform in
[0.2, 10], the half-width a uniform in [0.1, 6], the depth U log-uniform in
[1e-3, 300] and the channel by ``rng.choice(["plus", "minus"])``.
"""

from __future__ import annotations

import functools
import math
import random

BOX_SEED = 7
BOX_SIZE = 2000


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
