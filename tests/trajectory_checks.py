"""Reference checks on traced trajectories, used by the tests only.

``point_at`` continues a trajectory to an arbitrary phase inside its span
with the tracer's own checked step; ``mirror_defect`` measures how far the
mirror image of every sample lies from the pole manifold; ``meets_pair``
tells whether a loop passes the coalesced pair at a half-turn anchor.
"""

from __future__ import annotations

import bisect
import cmath
import math

from wellpoles import _kernels as _k
from wellpoles import trajectory
from wellpoles.errors import NoConvergence
from wellpoles.rootfinder import multiplicity_at
from wellpoles.smatrix import ComplexCoupling, PotentialSpec, _phase_to_gamma
from wellpoles.trajectory import Trajectory


def point_at(traj: Trajectory, alpha: float, spec: PotentialSpec) -> complex:
    """The trajectory's pole at an arbitrary phase inside its span.

    Continued from the sample at or below alpha with the tracer's checked
    step, halved on rejection, and exact at a sample. A bare Newton start
    from a sample up to a whole step away could land on another pole.
    """
    if not (traj.alphas[0] - 1e-12 <= alpha <= traj.alphas[-1] + 1e-12):
        raise ValueError(f"alpha {alpha:.6f} outside trajectory span")
    i = max(bisect.bisect_right(traj.alphas, alpha) - 1, 0)
    a, k = traj.alphas[i], traj.ks[i]
    if a == alpha:
        return k
    # the tracer steps in q = k*a with s = c^2 gamma
    c2 = spec.c ** 2
    q = spec.a * k
    ch = traj.channel.code
    v = trajectory._tangent(q, c2 * _phase_to_gamma(a), ch)
    prev = None
    h = alpha - a
    while a != alpha:
        target = alpha if abs(alpha - a) <= abs(h) else a + h
        step = trajectory._step(a, q, v, prev, target, c2 * _phase_to_gamma(target), ch)
        if step is None:
            h *= 0.5
            if abs(h) < trajectory._STEP_MINIMUM:
                raise NoConvergence(q / spec.a, trajectory._CORRECTOR_ITERS)
            continue
        prev = (a, q, v)
        a = target
        q, v, _ = step
    return q / spec.a


def mirror_defect(traj: Trajectory, spec: PotentialSpec) -> float:
    """Largest distance from mirrored samples to the pole manifold.

    Mirror symmetry maps every sample (alpha, k) to (-alpha + 2*alpha_seed,
    -conj(k)), which must again be a pole at its coupling. The defect is the
    Newton projection distance, maximal over samples.
    """
    a0 = traj.seed_alpha
    worst = 0.0
    ch = traj.channel.code
    a, c2 = spec.a, spec.c ** 2
    for alpha, k in zip(traj.alphas, traj.ks):
        am = 2.0 * a0 - alpha
        km = -k.conjugate()
        q, iters, ok, _ = _k.newton_pole(a * km, c2 * _phase_to_gamma(am), ch, 50)
        if not ok:
            return math.inf
        worst = max(worst, abs(q / a - km))
    return worst


def meets_pair(traj: Trajectory, n: int, spec: PotentialSpec) -> bool:
    """Whether the curve passes the coalesced pair at the anchor n.

    True when the curve holds no sample at alpha = n*(pi/2) but samples on
    both sides of it, the last one before it lies within the tracer's pair
    radius of k = -i/a, and ``multiplicity_at`` finds the pair there at
    that coupling.
    """
    alpha = n * trajectory.HALF_PI
    i = bisect.bisect_left(traj.alphas, alpha)
    if not 0 < i < len(traj.alphas) or traj.alphas[i] == alpha:
        return False
    a = spec.a
    zc = cmath.sqrt(-1.0 + spec.c ** 2 * _phase_to_gamma(alpha))
    return (
        abs(a * traj.ks[i - 1] + 1j) < trajectory._DOUBLE_ZERO_RADIUS * abs(zc)
        and multiplicity_at(-1j / a, ComplexCoupling(alpha), spec, traj.channel) == 2
    )
