"""Pole trajectories under rotation of the coupling phase.

A pole k(alpha) of a channel pole function D(k; gamma=e^{i alpha}) is
continued in alpha by an Euler predictor (dk/dalpha = -D_alpha/D_k) and a
Newton corrector at the stepped phase. Steps adapt to corrector effort and
are clipped so the trace lands exactly on every quarter-turn anchor
alpha = n*(pi/2); anchors are tracked by the integer n, never by comparing
accumulated floats against multiples of pi, which closure detection needs
to be exact.

Trajectories close after one or two full turns of the coupling or run open
until a cap; pole pairs coalesce only at k = -i/a, where the quadratic
branch model splits them deterministically.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels as _k
from .errors import ModelInvalid, NoConvergence, SeedNotOnPole, StallAtDoubleZero
from .rootfinder import RESIDUAL_TOL, STEP_TOL, TOL_AXIS, Pole, PoleKind, classify
from .smatrix import Channel, ComplexCoupling, PotentialSpec, _phase_to_gamma

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi


class ClosureKind(enum.Enum):
    CLOSED_2PI = "closed_2pi"
    CLOSED_4PI = "closed_4pi"
    OPEN = "open"


class ExitReason(enum.Enum):
    ALPHA_CAP = "alpha_cap"
    K_WINDOW = "k_window"


@dataclass(frozen=True)
class Closure:
    kind: ClosureKind
    forward_reason: ExitReason | None = None
    backward_reason: ExitReason | None = None

    @property
    def is_closed(self) -> bool:
        return self.kind is not ClosureKind.OPEN


@dataclass(frozen=True)
class CollisionEvent:
    """A pole pair coalescing at k = -i/a while alpha passes the event."""

    alpha: float
    k: complex
    kind: str  # 'axis_pair_to_plane_pair' or 'plane_pair_to_axis_pair'
    branches: tuple[tuple[str, complex], ...]


@dataclass(frozen=True)
class TraceCaps:
    """Stop conditions: |alpha - alpha_seed| cap and |k| window radius.

    k_window=None resolves to 40/a at trace time.
    """

    alpha_cap: float = 8.0 * math.pi
    k_window: float | None = None

    def window(self, spec: PotentialSpec) -> float:
        return self.k_window if self.k_window is not None else 40.0 / spec.a


@dataclass(frozen=True)
class StepControl:
    initial: float = 0.01
    minimum: float = 1e-6
    maximum: float = 0.05
    displacement_factor: float = 0.1
    corrector_iters: int = 8
    easy_iters: int = 4
    easy_streak: int = 5
    closure_tol: float = 1e-6
    # stall-to-collision attribution radius; must exceed the pair splitting
    # scale sqrt(2*h_min*|D_alpha/D_kk|) at the minimum step
    double_zero_radius: float = 1e-2


@dataclass
class Trajectory:
    """A continued pole path: samples (alphas[i], ks[i]) with alpha ascending."""

    seed: Pole
    channel: Channel
    direction: str  # 'forward', 'backward' or 'both'
    alphas: np.ndarray
    ks: np.ndarray
    anchors: list[tuple[int, complex]]
    axis_crossings: list[tuple[float, complex]]
    collisions: list[CollisionEvent]
    closure: Closure
    merged_seeds: list[Pole] = field(default_factory=list)

    @property
    def seed_alpha(self) -> float:
        return self.seed.coupling.alpha

    def k_at_anchor(self, n: int) -> complex | None:
        for m, k in self.anchors:
            if m == n:
                return k
        return None

    def anchor_index_map(self) -> dict[int, complex]:
        return dict(self.anchors)


def _collision_point(spec: PotentialSpec) -> complex:
    return -1j / spec.a


def _on_half_grid(alpha: float) -> int | None:
    n = round(alpha / HALF_PI)
    return n if alpha == n * HALF_PI else None


def _seed_residual_ok(seed: Pole, spec: PotentialSpec) -> bool:
    d, dk = _k.denom_plain(
        seed.k, seed.coupling.gamma, spec.m, spec.a, spec.U, seed.channel.code
    )
    return abs(d) < RESIDUAL_TOL * (1.0 + abs(seed.k))


def branch_at_double_zero(
    alpha_c: float,
    spec: PotentialSpec,
    channel: Channel,
    direction: int,
    delta_alpha: float = 1e-3,
) -> tuple[CollisionEvent, list[tuple[str, complex]]]:
    """Split a coalesced pair at k = -i/a into its two emerging branches.

    Local model D ~ 0.5*D_kk*(k-k_c)^2 + D_alpha*(alpha-alpha_c) gives
    k branches k_c +- sqrt(-2*D_alpha*sigma*delta/D_kk) at
    alpha = alpha_c + sigma*delta; each is Newton-polished at the stepped
    coupling. Branch labels are deterministic: ordered lexicographically by
    (Re k, Im k), the greater is 'resonance_side' when it leaves the axis,
    otherwise the pair is labeled 'axis_upper'/'axis_lower'.
    """
    kc = _collision_point(spec)
    gamma_c = _phase_to_gamma(alpha_c)
    ch = channel.code
    d0, dk0, da0, E0 = _k.denom_scaled(kc, gamma_c, spec.m, spec.a, spec.U, ch)
    h = 1e-5
    dkp = _k.denom_scaled(kc + h, gamma_c, spec.m, spec.a, spec.U, ch)
    dkm = _k.denom_scaled(kc - h, gamma_c, spec.m, spec.a, spec.U, ch)
    dkk = (_k.unscale(dkp[1], dkp[3]) - _k.unscale(dkm[1], dkm[3])) / (2.0 * h)
    da = _k.unscale(da0, E0)
    scale = abs(da) + abs(dkk) + 1.0
    if abs(dkk) < 1e-8 * scale:
        raise ModelInvalid(f"vanishing curvature at collision point, D_kk={dkk!r}")
    if abs(da) < 1e-12 * scale:
        raise ModelInvalid(f"vanishing coupling derivative at collision point, D_alpha={da!r}")

    alpha_new = alpha_c + direction * delta_alpha
    gamma_new = _phase_to_gamma(alpha_new)
    root = cmath.sqrt(-2.0 * da * (direction * delta_alpha) / dkk)
    branches = []
    for sgn in (+1.0, -1.0):
        k_est = kc + sgn * root
        kk, iters, ok = _k.newton_pole(
            k_est, gamma_new, spec.m, spec.a, spec.U, ch, STEP_TOL, 60
        )
        if not ok or abs(kk - k_est) > 10.0 * abs(root) + 1e-6:
            raise ModelInvalid(
                f"branch polish failed from {k_est!r} at alpha={alpha_new:.6f}"
            )
        branches.append(kk)
    branches.sort(key=lambda z: (z.real, z.imag))
    lo, hi = branches
    if abs(hi - lo) < 1e-12:
        raise ModelInvalid("branches did not separate; step too small")
    if hi.real > TOL_AXIS:
        labeled = [("resonance_side", hi), ("antiresonance_side", lo)]
        kind = "axis_pair_to_plane_pair"
    else:
        up, dn = (hi, lo) if hi.imag >= lo.imag else (lo, hi)
        labeled = [("axis_upper", up), ("axis_lower", dn)]
        kind = "plane_pair_to_axis_pair"
    event = CollisionEvent(
        alpha=alpha_c, k=kc, kind=kind, branches=tuple(labeled)
    )
    return event, labeled


def _trace_from_state(
    k_start: complex,
    alpha_start: float,
    seed: Pole,
    spec: PotentialSpec,
    direction: int,
    caps: TraceCaps,
    control: StepControl,
    prior_collisions: list[CollisionEvent] | None = None,
) -> Trajectory:
    """Predictor-corrector march from (k_start, alpha_start)."""
    ch = seed.channel.code
    alpha0 = seed.coupling.alpha
    k0 = seed.k
    kc = _collision_point(spec)
    window = caps.window(spec)

    alphas = [alpha_start]
    ks = [k_start]
    anchors: list[tuple[int, complex]] = []
    crossings: list[tuple[float, complex]] = []
    collisions: list[CollisionEvent] = list(prior_collisions or [])

    n_start = _on_half_grid(alpha_start)
    if n_start is not None and abs(k_start.real) < TOL_AXIS:
        crossings.append((alpha_start, k_start))
    if n_start is not None:
        anchors.append((n_start, k_start))
        next_anchor = n_start + direction
    else:
        next_anchor = math.floor(alpha_start / HALF_PI) + (1 if direction > 0 else 0)

    n_seed = _on_half_grid(alpha0)

    def closure_targets():
        # alpha values where |k - k_seed| decides closure, in trace order
        j = 1
        while j * TWO_PI <= caps.alpha_cap + 1e-9:
            if n_seed is not None:
                yield (n_seed + direction * 4 * j) * HALF_PI, j
            else:
                yield alpha0 + direction * j * TWO_PI, j
            j += 1

    closures = closure_targets()
    next_closure = next(closures, None)

    alpha = alpha_start
    gamma = _phase_to_gamma(alpha)
    k = k_start
    h = control.initial
    easy = 0
    halve_next = False
    closure_kind: ClosureKind | None = None
    reason: ExitReason | None = None

    while True:
        if halve_next:
            h = max(h * 0.5, control.minimum)
            halve_next = False
        t_step = alpha + direction * h
        t_anchor = next_anchor * HALF_PI
        target = t_step
        if direction > 0:
            target = min(target, t_anchor)
            if next_closure is not None:
                target = min(target, next_closure[0])
        else:
            target = max(target, t_anchor)
            if next_closure is not None:
                target = max(target, next_closure[0])

        d, dk, da, E = _k.denom_scaled(k, gamma, spec.m, spec.a, spec.U, ch)
        accepted = False
        if dk != 0.0:
            kp = k - (da / dk) * (target - alpha)
            gamma_target = _phase_to_gamma(target)
            knew, iters, ok = _k.newton_pole(
                kp, gamma_target, spec.m, spec.a, spec.U, ch,
                STEP_TOL, control.corrector_iters,
            )
            if ok and abs(knew - k) <= control.displacement_factor * (1.0 + abs(k)):
                accepted = True
        if not accepted:
            if h <= control.minimum * (1.0 + 1e-12):
                if abs(k - kc) < control.double_zero_radius:
                    # pair coalescing mid-trace: split and continue on the
                    # deterministic branch, recording the event
                    try:
                        event, labeled = branch_at_double_zero(
                            alpha, spec, seed.channel, direction
                        )
                    except ModelInvalid as exc:
                        raise StallAtDoubleZero(alpha, k) from exc
                    collisions.append(event)
                    k = labeled[0][1]
                    alpha = alpha + direction * 1e-3
                    gamma = _phase_to_gamma(alpha)
                    alphas.append(alpha)
                    ks.append(k)
                    h = control.initial
                    easy = 0
                    halve_next = False
                    # anchor and closure targets behind the advanced phase
                    # would march the trace back into the collision
                    if direction > 0:
                        next_anchor = math.floor(alpha / HALF_PI) + 1
                        while next_closure is not None and next_closure[0] <= alpha:
                            next_closure = next(closures, None)
                    else:
                        next_anchor = math.ceil(alpha / HALF_PI) - 1
                        while next_closure is not None and next_closure[0] >= alpha:
                            next_closure = next(closures, None)
                    continue
                raise StallAtDoubleZero(alpha, k)
            h = max(h * 0.5, control.minimum)
            easy = 0
            continue

        alpha = target
        gamma = gamma_target
        k = knew
        alphas.append(alpha)
        ks.append(k)
        if iters > control.easy_iters:
            halve_next = True
            easy = 0
        else:
            easy += 1
            if easy >= control.easy_streak:
                h = min(h * 2.0, control.maximum)
                easy = 0

        if abs(k.real) < TOL_AXIS:
            crossings.append((alpha, k))
        if alpha == t_anchor:
            anchors.append((next_anchor, k))
            next_anchor += direction
        if next_closure is not None and alpha == next_closure[0]:
            j = next_closure[1]
            if abs(k - k0) < control.closure_tol:
                closure_kind = ClosureKind.CLOSED_2PI if j == 1 else (
                    ClosureKind.CLOSED_4PI if j == 2 else None
                )
                if closure_kind is not None:
                    break
            next_closure = next(closures, None)
        if abs(alpha - alpha0) >= caps.alpha_cap - 1e-12:
            reason = ExitReason.ALPHA_CAP
            break
        if abs(k) > window:
            reason = ExitReason.K_WINDOW
            break

    if closure_kind is not None:
        closure = Closure(kind=closure_kind)
    elif direction > 0:
        closure = Closure(kind=ClosureKind.OPEN, forward_reason=reason)
    else:
        closure = Closure(kind=ClosureKind.OPEN, backward_reason=reason)

    a = np.asarray(alphas, dtype=float)
    kk = np.asarray(ks, dtype=complex)
    if direction < 0:
        a = a[::-1].copy()
        kk = kk[::-1].copy()
        anchors.reverse()
        crossings.reverse()
    return Trajectory(
        seed=seed,
        channel=seed.channel,
        direction="forward" if direction > 0 else "backward",
        alphas=a,
        ks=kk,
        anchors=anchors,
        axis_crossings=crossings,
        collisions=collisions,
        closure=closure,
    )


def trace(
    seed: Pole,
    direction: int,
    spec: PotentialSpec,
    caps: TraceCaps | None = None,
    control: StepControl | None = None,
) -> Trajectory:
    """Continue a refined pole in the coupling phase, one direction.

    direction is +1 (increasing alpha) or -1. The seed must satisfy the pole
    residual requirement; a coalesced-pair seed cannot be continued as a
    single branch and raises StallAtDoubleZero immediately (split it with
    branch_at_double_zero instead).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    caps = caps or TraceCaps()
    control = control or StepControl()
    if not _seed_residual_ok(seed, spec):
        raise SeedNotOnPole(f"seed residual too large at k={seed.k!r}")
    if seed.multiplicity == 2:
        raise StallAtDoubleZero(seed.coupling.alpha, seed.k)
    return _trace_from_state(
        seed.k, seed.coupling.alpha, seed, spec, direction, caps, control
    )


def trace_branch(
    seed: Pole,
    branch_k: complex,
    branch_alpha: float,
    direction: int,
    spec: PotentialSpec,
    caps: TraceCaps | None = None,
    control: StepControl | None = None,
    event: CollisionEvent | None = None,
) -> Trajectory:
    """Continue one emerging branch of a split coalesced pair."""
    caps = caps or TraceCaps()
    control = control or StepControl()
    return _trace_from_state(
        branch_k, branch_alpha, seed, spec, direction, caps, control,
        prior_collisions=[event] if event is not None else None,
    )


def combine(first: Trajectory, second: Trajectory) -> Trajectory:
    """Stitch a backward and a forward trace from the same seed.

    Accepts the two halves in either order; they must share the seed sample.
    """
    if first.alphas[-1] == second.alphas[0]:
        backward, forward = first, second
    elif second.alphas[-1] == first.alphas[0]:
        backward, forward = second, first
    else:
        raise ValueError("traces do not share the seed sample")
    a = np.concatenate([backward.alphas[:-1], forward.alphas])
    k = np.concatenate([backward.ks[:-1], forward.ks])
    anchors = backward.anchors[:-1] + forward.anchors if (
        backward.anchors and forward.anchors and backward.anchors[-1][0] == forward.anchors[0][0]
    ) else backward.anchors + forward.anchors
    closure = Closure(
        kind=ClosureKind.OPEN,
        forward_reason=forward.closure.forward_reason,
        backward_reason=backward.closure.backward_reason,
    )
    return Trajectory(
        seed=forward.seed,
        channel=forward.channel,
        direction="both",
        alphas=a,
        ks=k,
        anchors=anchors,
        axis_crossings=backward.axis_crossings[:-1] + forward.axis_crossings
        if backward.axis_crossings and forward.axis_crossings
        and backward.axis_crossings[-1] == forward.axis_crossings[0]
        else backward.axis_crossings + forward.axis_crossings,
        collisions=backward.collisions + forward.collisions,
        closure=closure,
    )


def classify_closure(traj: Trajectory, closure_tol: float = 1e-6) -> Closure:
    """Re-derive the closure label from the recorded anchors."""
    amap = traj.anchor_index_map()
    n0 = _on_half_grid(traj.seed_alpha)
    if n0 is not None and n0 in amap:
        k0 = amap[n0]
        for turns, kind in ((1, ClosureKind.CLOSED_2PI), (2, ClosureKind.CLOSED_4PI)):
            for sgn in (+1, -1):
                n = n0 + sgn * 4 * turns
                if n in amap and abs(amap[n] - k0) < closure_tol:
                    return Closure(kind=kind)
    return traj.closure


def mirror(traj: Trajectory) -> Trajectory:
    """Reflect a trajectory through its seed axis: (alpha, k) -> (2*alpha_seed - alpha, -conj(k)).

    The reflected path solves the same pole equation, by the conjugation
    relation of the S-matrix; for a self-symmetric trajectory it retraces
    the original curve.
    """
    a0 = traj.seed_alpha
    a = (2.0 * a0 - traj.alphas)[::-1].copy()
    k = (-np.conj(traj.ks))[::-1].copy()
    n0 = _on_half_grid(a0)
    anchors = []
    if n0 is not None:
        for n, kk in traj.anchors:
            anchors.append((2 * n0 - n, -kk.conjugate()))
        anchors.reverse()
    crossings = [(2.0 * a0 - al, -kk.conjugate()) for al, kk in traj.axis_crossings]
    crossings.reverse()
    collisions = [
        replace(ev, alpha=2.0 * a0 - ev.alpha, k=-ev.k.conjugate(),
                branches=tuple((lbl, -bk.conjugate()) for lbl, bk in ev.branches))
        for ev in traj.collisions
    ]
    mirrored_seed = replace(
        traj.seed,
        k=-traj.seed.k.conjugate(),
        kind=classify(-traj.seed.k.conjugate(), traj.seed.multiplicity),
    )
    return Trajectory(
        seed=mirrored_seed,
        channel=traj.channel,
        direction=traj.direction,
        alphas=a,
        ks=k,
        anchors=anchors,
        axis_crossings=crossings,
        collisions=collisions,
        closure=traj.closure,
    )


def point_at(traj: Trajectory, alpha: float, spec: PotentialSpec) -> complex:
    """The trajectory's pole at an arbitrary phase inside its span.

    Correct to Newton tolerance: seeded from the nearest recorded sample and
    polished at exactly the requested coupling.
    """
    if not (traj.alphas[0] - 1e-12 <= alpha <= traj.alphas[-1] + 1e-12):
        raise ValueError(f"alpha {alpha:.6f} outside trajectory span")
    i = int(np.argmin(np.abs(traj.alphas - alpha)))
    ch = traj.channel.code
    k_seed = traj.ks[i]
    kk, iters, ok = _k.newton_pole(
        k_seed, _phase_to_gamma(alpha), spec.m, spec.a, spec.U, ch, STEP_TOL, 50
    )
    if not ok:
        raise NoConvergence(k_seed, 50)
    return kk


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
        km = -np.conj(k)
        kk, iters, ok = _k.newton_pole(
            km, _phase_to_gamma(am), spec.m, spec.a, spec.U, ch, STEP_TOL, 50
        )
        if not ok:
            return math.inf
        worst = max(worst, abs(kk - km))
    return worst
