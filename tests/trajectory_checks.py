"""Reference checks on traced trajectories, used by the tests only.

``point_at`` continues a trajectory to an arbitrary phase inside its span
with the tracer's own checked step; ``mirror_defect`` measures how far the
mirror image of every sample lies from the pole manifold.
"""

from __future__ import annotations

import bisect
import math

from wellpoles import _kernels as _k
from wellpoles import trajectory
from wellpoles.errors import NoConvergence
from wellpoles.rootfinder import STEP_TOL
from wellpoles.smatrix import PotentialSpec, _phase_to_gamma
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
    ch = traj.channel.code
    v = trajectory._tangent(k, _phase_to_gamma(a), spec, ch)
    prev = None
    h = alpha - a
    while a != alpha:
        target = alpha if abs(alpha - a) <= abs(h) else a + h
        step = trajectory._step(a, k, v, prev, target, spec, ch)
        if step is None:
            h *= 0.5
            if abs(h) < trajectory._STEP_MINIMUM:
                raise NoConvergence(k, trajectory._CORRECTOR_ITERS)
            continue
        prev = (a, k, v)
        a = target
        k, v, _ = step
    return k


def mirror_defect(traj: Trajectory, spec: PotentialSpec) -> float:
    """Largest distance from mirrored samples to the pole manifold.

    Mirror symmetry maps every sample (alpha, k) to (-alpha + 2*alpha_seed,
    -conj(k)), which must again be a pole at its coupling. The defect is the
    Newton projection distance, maximal over samples.
    """
    a0 = traj.seed_alpha
    worst = 0.0
    ch = traj.channel.code
    for alpha, k in zip(traj.alphas, traj.ks):
        am = 2.0 * a0 - alpha
        km = -k.conjugate()
        kk, iters, ok, _ = _k.newton_pole(
            km, _phase_to_gamma(am), spec.m, spec.a, spec.U, ch, STEP_TOL, 50
        )
        if not ok:
            return math.inf
        worst = max(worst, abs(kk - km))
    return worst
