"""Pole trajectories under rotation of the coupling phase.

A pole k(alpha) of a channel pole function D(k; gamma=e^{i alpha}) is
continued in increasing alpha by a cubic Hermite predictor through the last
two samples of (alpha, k, v = dk/dalpha = -D_alpha/D_k), Euler at a start
or split, and a Newton corrector at the stepped phase, which returns the
tangent v1 at the new pole with it, so a step makes no other kernel call.
A step of length h is accepted when it moves k by at most
0.1*(1 + |k0|) and its local error, the trapezoid defect
e = |k1 - k0 - h(v0 + v1)/2| of the tangents at both ends, is at most
tol*(1 + |k0|); the next h is then 0.9*h*(tol/e)^(1/3), at most 2h and the
maximum, and a rejected h is halved. After every accepted step, clipped or
not, h is also capped so that the tangent's predicted move h*|v1| stays
within 0.9 of the displacement bound at k1, though not below the minimum
step: a step grown into that bound would only be rejected and halved. The
test cannot see a swap onto a neighbouring curve closer than
tol*(1 + |k|); there only a check that each anchor pole lies on one curve
can. Steps are clipped so the trace lands exactly on every quarter-turn
anchor alpha = n*(pi/2); anchors are tracked by the integer n, never by
comparing accumulated floats against multiples of pi, which closure
detection needs to be exact.

The march only ever runs forward. The conjugation relation of the S-matrix,
S*(-k*, gamma*) = S(k, gamma), maps the pole at (alpha, k) to
(-alpha, -conj(k)), so about a seed at a real coupling (alpha a multiple of
pi) the backward half of a curve is the mirror image of the forward march
from the mirrored seed (see mirror).

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
from .rootfinder import RESIDUAL_TOL, STEP_TOL, TOL_AXIS, Pole, classify
from .smatrix import Channel, PotentialSpec, _phase_to_gamma

HALF_PI = math.pi / 2.0

# corrector budget, largest accepted |dk|/(1+|k|), and the largest accepted
# local error e/(1+|k|) of a step
_CORRECTOR_ITERS = 8
_DISPLACEMENT_FACTOR = 0.1
_LOCAL_ERROR_TOL = 1e-3
# the step schedule in alpha: first, smallest and largest step, and the
# phase offset at which a split pair's branches are resumed
_STEP_INITIAL = 0.01
_STEP_MINIMUM = 1e-6
_STEP_MAXIMUM = 0.4
_SPLIT_STEP = 1e-3
# |k - k_seed| at a whole-turn anchor below which a curve is closed
_CLOSURE_TOL = 1e-6
# stall-to-collision attribution radius; must exceed the pair splitting
# scale sqrt(2*h_min*|D_alpha/D_kk|) at the minimum step
_DOUBLE_ZERO_RADIUS = 1e-2


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

    def anchor_index_map(self) -> dict[int, complex]:
        return dict(self.anchors)


def _on_half_grid(alpha: float) -> int | None:
    n = round(alpha / HALF_PI)
    return n if alpha == n * HALF_PI else None


def branch_at_double_zero(
    alpha_c: float,
    spec: PotentialSpec,
    channel: Channel,
    direction: int,
) -> tuple[CollisionEvent, list[tuple[str, complex]]]:
    """Split a coalesced pair at k = -i/a into its two emerging branches.

    Local model D ~ 0.5*D_kk*(k-k_c)^2 + D_alpha*(alpha-alpha_c) gives
    k branches k_c +- sqrt(-2*D_alpha*sigma*delta/D_kk) at
    alpha = alpha_c + sigma*delta, delta = _SPLIT_STEP; each is
    Newton-polished at the stepped coupling. Branch labels are
    deterministic: ordered lexicographically by (Re k, Im k), the greater is
    'resonance_side' when it leaves the axis, otherwise the pair is labeled
    'axis_upper'/'axis_lower'.
    """
    kc = -1j / spec.a
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

    alpha_new = alpha_c + direction * _SPLIT_STEP
    gamma_new = _phase_to_gamma(alpha_new)
    root = cmath.sqrt(-2.0 * da * (direction * _SPLIT_STEP) / dkk)
    branches = []
    for sgn in (+1.0, -1.0):
        k_est = kc + sgn * root
        kk, iters, ok, _ = _k.newton_pole(
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
    return CollisionEvent(alpha=alpha_c, k=kc, kind=kind, branches=tuple(labeled)), labeled


def _tangent(k: complex, gamma: complex, spec: PotentialSpec, ch: int) -> complex:
    """dk/dalpha = -D_alpha/D_k at a pole; nan where D_k vanishes.

    Only where no corrector has just run: a trace start, a split restart and
    point_at's start. A step takes the tangent newton_pole returns.
    """
    d, dk, da, E = _k.denom_scaled(k, gamma, spec.m, spec.a, spec.U, ch)
    return -da / dk if dk != 0.0 else complex(math.nan, math.nan)


def _step(alpha, k, v, prev, target, spec, ch):
    """One checked continuation step from the pole k at alpha, tangent v.

    prev is the accepted sample (alpha, k, v) before this one, or None for
    an Euler predictor. Returns (k1, v1, r) at the target phase, with r the
    local error over its bound, or None when the corrector fails, the step
    moves k too far, or r exceeds 1 (nan counts as a failure).
    """
    dt = target - alpha
    if prev is None:
        kp = k + v * dt
    else:
        # cubic Hermite through prev and (alpha, k, v), expanded about alpha
        a0, k0, v0 = prev
        H = alpha - a0
        slope = (k - k0) / H
        c2 = (2.0 * v + v0 - 3.0 * slope) / H
        c3 = (v + v0 - 2.0 * slope) / (H * H)
        kp = k + dt * (v + dt * (c2 + dt * c3))
    k1, iters, ok, v1 = _k.newton_pole(
        kp, _phase_to_gamma(target), spec.m, spec.a, spec.U, ch, STEP_TOL, _CORRECTOR_ITERS
    )
    if not ok:
        return None
    scale = 1.0 + abs(k)
    r = abs(k1 - k - 0.5 * dt * (v + v1)) / (_LOCAL_ERROR_TOL * scale)
    if not (abs(k1 - k) <= _DISPLACEMENT_FACTOR * scale and r <= 1.0):
        return None
    return k1, v1, r


def _trace_from_state(
    k_start: complex,
    alpha_start: float,
    seed: Pole,
    spec: PotentialSpec,
    caps: TraceCaps,
    prior_collisions: list[CollisionEvent] | None = None,
) -> Trajectory:
    """Predictor-corrector march in increasing alpha from (k_start, alpha_start).

    The seed sits on a quarter-turn anchor n_seed (ValueError otherwise);
    closure is decided at the anchors one and two turns on, n_seed + 4 and
    n_seed + 8, by |k - k_seed|.
    """
    ch = seed.channel.code
    alpha0 = seed.coupling.alpha
    n_seed = _on_half_grid(alpha0)
    if n_seed is None:
        raise ValueError(f"a seed must sit on a quarter-turn anchor, got alpha={alpha0!r}")
    k0 = seed.k
    kc = -1j / spec.a
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
        next_anchor = n_start + 1
    else:
        next_anchor = math.floor(alpha_start / HALF_PI) + 1

    alpha = alpha_start
    k = k_start
    v = _tangent(k, _phase_to_gamma(alpha), spec, ch)
    prev = None
    h = _STEP_INITIAL
    closure_kind = ClosureKind.OPEN
    reason: ExitReason | None = None

    while True:
        t_anchor = next_anchor * HALF_PI
        target = min(alpha + h, t_anchor)

        step = _step(alpha, k, v, prev, target, spec, ch)
        if step is None:
            if h <= _STEP_MINIMUM * (1.0 + 1e-12):
                if abs(k - kc) < _DOUBLE_ZERO_RADIUS:
                    # pair coalescing mid-trace: split and continue on the
                    # deterministic branch, recording the event
                    try:
                        event, labeled = branch_at_double_zero(alpha, spec, seed.channel, +1)
                    except ModelInvalid as exc:
                        raise StallAtDoubleZero(alpha, k) from exc
                    collisions.append(event)
                    k = labeled[0][1]
                    alpha = alpha + _SPLIT_STEP
                    v = _tangent(k, _phase_to_gamma(alpha), spec, ch)
                    prev = None
                    alphas.append(alpha)
                    ks.append(k)
                    h = _STEP_INITIAL
                    # an anchor behind the advanced phase would march the
                    # trace back into the collision
                    next_anchor = math.floor(alpha / HALF_PI) + 1
                    continue
                raise StallAtDoubleZero(alpha, k)
            h = max(0.5 * min(h, target - alpha), _STEP_MINIMUM)
            continue

        k1, v1, r = step
        # resize h only after a step that no anchor clipped; compare
        # phases, since alpha + h - alpha need not equal h.
        # r <= 1 keeps the factor at or above 0.9
        if not target < alpha + h:
            grow = 2.0 if r == 0.0 else min(0.9 * r ** (-1.0 / 3.0), 2.0)
            h = min(h * grow, _STEP_MAXIMUM)
        prev = (alpha, k, v)
        alpha, k, v = target, k1, v1
        # keep the tangent's predicted move inside the displacement bound
        # that _step tests, with the growth rule's safety factor
        reach = 0.9 * _DISPLACEMENT_FACTOR * (1.0 + abs(k))
        if h * abs(v) > reach:
            h = max(reach / abs(v), _STEP_MINIMUM)
        alphas.append(alpha)
        ks.append(k)

        if abs(k.real) < TOL_AXIS:
            crossings.append((alpha, k))
        # before the anchor, so no curve carries an anchor past the window
        if abs(k) > window:
            reason = ExitReason.K_WINDOW
            break
        if alpha == t_anchor:
            anchors.append((next_anchor, k))
            turns = next_anchor - n_seed
            next_anchor += 1
            if turns in (4, 8) and abs(k - k0) < _CLOSURE_TOL:
                closure_kind = ClosureKind.CLOSED_2PI if turns == 4 else ClosureKind.CLOSED_4PI
                break
        if abs(alpha - alpha0) >= caps.alpha_cap - 1e-12:
            reason = ExitReason.ALPHA_CAP
            break

    return Trajectory(
        seed=seed, channel=seed.channel, direction="forward",
        alphas=np.asarray(alphas, dtype=float), ks=np.asarray(ks, dtype=complex),
        anchors=anchors, axis_crossings=crossings, collisions=collisions,
        closure=Closure(kind=closure_kind, forward_reason=reason),
    )


def trace(
    seed: Pole,
    direction: int,
    spec: PotentialSpec,
    caps: TraceCaps | None = None,
) -> Trajectory:
    """Continue a refined pole in the coupling phase, one direction.

    direction is +1 (increasing alpha) or -1, which mirrors the forward
    march from the mirrored seed -conj(k) and so needs alpha a multiple of
    pi (ValueError otherwise). The seed must sit on a quarter-turn anchor,
    alpha a multiple of pi/2 (ValueError otherwise), and satisfy the pole
    residual requirement; a coalesced-pair seed cannot be continued as a
    single branch and raises StallAtDoubleZero immediately (split it with
    branch_at_double_zero instead).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    if direction < 0:
        _mirror_index(seed.coupling.alpha)
    caps = caps or TraceCaps()
    d, _ = _k.denom_plain(
        seed.k, seed.coupling.gamma, spec.m, spec.a, spec.U, seed.channel.code
    )
    if not abs(d) < RESIDUAL_TOL * (1.0 + abs(seed.k)):
        raise SeedNotOnPole(f"seed residual too large at k={seed.k!r}")
    if seed.multiplicity == 2:
        raise StallAtDoubleZero(seed.coupling.alpha, seed.k)
    start = seed if direction > 0 else _mirror_pole(seed)
    fwd = _trace_from_state(start.k, start.coupling.alpha, start, spec, caps)
    return fwd if direction > 0 else mirror(fwd)


def trace_branch(
    seed: Pole,
    branch_k: complex,
    branch_alpha: float,
    spec: PotentialSpec,
    caps: TraceCaps | None = None,
    event: CollisionEvent | None = None,
) -> Trajectory:
    """Continue one emerging branch of a split coalesced pair forward.

    The seed sits on a quarter-turn anchor (ValueError otherwise).
    """
    return _trace_from_state(
        branch_k, branch_alpha, seed, spec, caps or TraceCaps(),
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
    closure = Closure(ClosureKind.OPEN, forward.closure.forward_reason,
                      backward.closure.backward_reason)
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


def _mirror_index(alpha: float) -> int:
    """Anchor index of alpha; the symmetry alpha -> -alpha reflects only
    about multiples of pi, so any other phase raises ValueError."""
    n = _on_half_grid(alpha)
    if n is None or n % 2:
        raise ValueError(f"mirroring needs alpha a multiple of pi, got {alpha!r}")
    return n


def _mirror_pole(pole: Pole) -> Pole:
    k = -pole.k.conjugate()
    return replace(pole, k=k, kind=classify(k, pole.multiplicity))


def _mirror_event(ev: CollisionEvent, a0: float) -> CollisionEvent:
    ks = [-bk.conjugate() for _, bk in ev.branches]
    if ev.kind == "axis_pair_to_plane_pair":
        # k -> -conj(k) puts each branch on the other side of the axis, so
        # the resonance-side label passes to the partner branch
        ks.reverse()
    return replace(
        ev, alpha=2.0 * a0 - ev.alpha, k=-ev.k.conjugate(),
        branches=tuple((lbl, bk) for (lbl, _), bk in zip(ev.branches, ks)),
    )


def mirror(traj: Trajectory) -> Trajectory:
    """Reflect a trajectory through its seed axis: (alpha, k) -> (2*alpha_seed - alpha, -conj(k)).

    The reflected path solves the same pole equation by the conjugation
    relation of the S-matrix, S*(-k*, gamma*) = S(k, gamma), but only when
    the seed phase is a multiple of pi; at any other seed phase this raises
    ValueError. A forward trace becomes a backward one with the exit reasons
    swapped, and split-pair branches keep 'resonance_side' on Re k > 0. For
    a self-symmetric trajectory it retraces the original curve.
    """
    a0 = traj.seed_alpha
    n0 = _mirror_index(a0)
    a = (2.0 * a0 - traj.alphas)[::-1].copy()
    k = (-np.conj(traj.ks))[::-1].copy()
    anchors = [(2 * n0 - n, -kk.conjugate()) for n, kk in reversed(traj.anchors)]
    crossings = [
        (2.0 * a0 - al, -kk.conjugate()) for al, kk in reversed(traj.axis_crossings)
    ]
    closure = Closure(traj.closure.kind, traj.closure.backward_reason,
                      traj.closure.forward_reason)
    return Trajectory(
        seed=_mirror_pole(traj.seed),
        channel=traj.channel,
        direction={"forward": "backward", "backward": "forward"}.get(
            traj.direction, traj.direction),
        alphas=a,
        ks=k,
        anchors=anchors,
        axis_crossings=crossings,
        collisions=[_mirror_event(ev, a0) for ev in traj.collisions],
        closure=closure,
    )


def point_at(traj: Trajectory, alpha: float, spec: PotentialSpec) -> complex:
    """The trajectory's pole at an arbitrary phase inside its span.

    Continued from the sample at or below alpha with the tracer's checked
    step, halved on rejection, and exact at a sample. A bare Newton start
    from a sample up to a whole step away could land on another pole.
    """
    if not (traj.alphas[0] - 1e-12 <= alpha <= traj.alphas[-1] + 1e-12):
        raise ValueError(f"alpha {alpha:.6f} outside trajectory span")
    i = max(int(np.searchsorted(traj.alphas, alpha, side="right")) - 1, 0)
    a, k = float(traj.alphas[i]), complex(traj.ks[i])
    ch = traj.channel.code
    v = _tangent(k, _phase_to_gamma(a), spec, ch)
    prev = None
    h = alpha - a
    while a != alpha:
        target = alpha if abs(alpha - a) <= abs(h) else a + h
        step = _step(a, k, v, prev, target, spec, ch)
        if step is None:
            h *= 0.5
            if abs(h) < _STEP_MINIMUM:
                raise NoConvergence(k, _CORRECTOR_ITERS)
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
        km = -np.conj(k)
        kk, iters, ok, _ = _k.newton_pole(
            km, _phase_to_gamma(am), spec.m, spec.a, spec.U, ch, STEP_TOL, 50
        )
        if not ok:
            return math.inf
        worst = max(worst, abs(kk - km))
    return worst
