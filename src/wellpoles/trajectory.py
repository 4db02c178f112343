"""Pole trajectories under rotation of the coupling phase.

A pole k(alpha) of a channel pole function D(k; gamma=e^{i alpha}) is
continued in increasing alpha by a cubic Hermite predictor through the last
two samples of (alpha, k, v = dk/dalpha = -D_alpha/D_k), Euler at a start,
and a Newton corrector at the stepped phase. The corrector stops on its
step test, on Newton's quadratic error model or at the roundoff of the
pole function (see _kernels.newton_pole), so a sample holds the pole to
1e-12*(1 + |k|), or to roundoff where that is wider, in about two
iterations. It returns the tangent v1 at its last iterate, up to about
1.5e-6*(1 + |k|) from the new pole, so a step makes no other kernel call.
A step of length h is accepted when it moves k by at most
0.1*(1 + |k0|) and its local error, the trapezoid defect
e = |k1 - k0 - h(v0 + v1)/2| of the tangents at both ends, is at most
tol*(1 + |k0|); the next h is then 0.9*h*(tol/e)^(1/3), at most 2h, and a
rejected h is halved. After every accepted step, clipped or not, h is also
capped so that the tangent's predicted move h*|v1| stays within 0.9 of the
displacement bound at k1, though not below the minimum step: a step grown
into that bound would only be rejected and halved. The test cannot see a
swap onto a neighbouring curve closer than tol*(1 + |k|); there only a
check that each anchor pole lies on one curve can. Steps are clipped so the
trace lands exactly on every quarter-turn anchor alpha = n*(pi/2), and a
step that would end within rounding of one ends on it; so no step is longer
than pi/2, and there is no other cap on the step. In the far field, where
|dk/dalpha| tends to 1/(2a), the error-sized step grows from about 0.4 of a
quarter turn at |k|a = 10 to 0.94 at |k|a = 40, and the anchor clips the
rest, about two steps per quarter turn. Anchors are tracked by the integer
n, never by comparing accumulated floats against multiples of pi, so the
half-turn stop and the mirror below land exactly on them.

The march only ever runs forward. The conjugation relation of the S-matrix,
S*(-k*, gamma*) = S(k, gamma), maps the pole at (alpha, k) to
(-alpha, -conj(k)), and so, the coupling being 2pi-periodic in alpha, to
(2*alpha0 - alpha, -conj(k)) for alpha0 any multiple of pi. About a seed
at a real coupling the backward half of a curve is therefore the mirror
image of the forward march from the mirrored seed (see mirror). And a
curve that meets the imaginary axis at a real coupling is its own mirror
image about that point.

That fixes the closed loops. A march from a seed on the imaginary axis at
a real coupling, an axis pole or a coalesced pair split into its branches,
stops at the half-turn anchor n* = n_seed + 2 or n_seed + 4 where its pole
lies on the axis again (|Re k| < TOL_AXIS), or where it reaches the
coalesced pair at k = -i/a and closes there (the chart lists the pair's
collision event). The loop is the marched half plus its mirror image about
alpha* = n*(pi/2), and it is closed_2pi or closed_4pi as n* - n_seed is 2
or 4. An open curve meets the axis at a real coupling only at its seed, or
it would be symmetric about two points and so periodic; it runs until
|alpha - alpha_seed| reaches 40*pi or |k| passes 40/a, and its backward
half is the mirror image of that march about the seed, which stops for the
same reason. Like the step schedule, this stop rule is a set of module
constants that no caller sets.
Pole pairs coalesce only at k = -i/a and at a real coupling, where the
curve meets the axis, so a march meets the pair only at its half-turn; a
march that stalls anywhere else raises StallAtDoubleZero.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

from . import _kernels as _k
from .errors import ModelInvalid, SeedNotOnPole, StallAtDoubleZero
from .rootfinder import RESIDUAL_TOL, STEP_TOL, TOL_AXIS, Pole, multiplicity_at
from .smatrix import Channel, ComplexCoupling, PotentialSpec, _phase_to_gamma

HALF_PI = math.pi / 2.0

# corrector budget, largest accepted |dk|/(1+|k|), and the largest accepted
# local error e/(1+|k|) of a step
_CORRECTOR_ITERS = 8
_DISPLACEMENT_FACTOR = 0.1
_LOCAL_ERROR_TOL = 1e-3
# the step schedule in alpha: first and smallest step, and the phase
# offset at which a split pair's branches start; the quarter-turn anchors
# bound the step from above
_STEP_INITIAL = 0.01
_STEP_MINIMUM = 1e-6
_SPLIT_STEP = 1e-3
# an open curve stops where |alpha - alpha_seed| reaches the cap or |k|
# passes _WINDOW_A / a; the cap is meant to let open curves cross a chart's
# whole working window first
_ALPHA_CAP = 40.0 * math.pi
_WINDOW_A = 40.0
# radius, in units of max(1, |K_c|) at the half-turn anchor ahead, within
# which a stall is the loop meeting the coalesced pair there: it must exceed
# the pair splitting scale |K_c|*sqrt(h_min) at the minimum step, and
# |K_c| ~ x_c/a grows without bound as a narrows
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
    """How a curve ends. An open curve carries the reason its march stopped,
    which is its mirrored half's too (see mirror); a closed one carries None."""

    kind: ClosureKind
    reason: ExitReason | None = None

    @property
    def is_closed(self) -> bool:
        return self.kind is not ClosureKind.OPEN


@dataclass(frozen=True)
class CollisionEvent:
    """A pole pair coalescing at k = -i/a while alpha passes the event, with
    its two labelled branches; they always leave the axis."""

    alpha: float
    k: complex
    branches: tuple[tuple[str, complex], ...]
    kind: ClassVar[str] = "axis_pair_to_plane_pair"


@dataclass
class Trajectory:
    """A continued pole path: samples (alphas[i], ks[i]) with alpha ascending.

    Its channel is the seed's, and its axis crossings are its on-axis
    anchors: a curve meets the imaginary axis only at a real coupling.
    """

    seed: Pole
    alphas: list[float]
    ks: list[complex]
    anchors: list[tuple[int, complex]]
    closure: Closure
    merged_seeds: list[Pole] = field(default_factory=list)

    @property
    def channel(self) -> Channel:
        return self.seed.channel

    @property
    def seed_alpha(self) -> float:
        return self.seed.coupling.alpha

    @property
    def axis_crossings(self) -> list[tuple[float, complex]]:
        return [(n * HALF_PI, k) for n, k in self.anchors if abs(k.real) < TOL_AXIS]

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
) -> CollisionEvent:
    """Split a coalesced pair at k = -i/a into its two emerging branches.

    Raises ModelInvalid unless ``multiplicity_at`` finds a coalesced pair
    at k_c = -i/a and the coupling e^{i alpha_c}. There the pair sits at a
    saddle K_c of g (see ``chart.critical_depth``), where in both channels
    g''(K_c) = a^2 g(K_c) and dk/dK = i a K_c, so g(K)^2 = S^2 e^{i alpha}
    puts the branches at alpha = alpha_c + sigma*delta, delta = _SPLIT_STEP,
    at k_c +- i K_c sqrt(i sigma delta), K_c = sqrt(k_c^2 + 2 m U gamma_c).
    Each is Newton-polished at the stepped coupling. K_c is real or
    imaginary, so both sit about |K_c| sqrt(delta/2) off the axis, and the
    greater in (Re k, Im k) order is 'resonance_side', the event's first
    branch. sigma is direction; build_chart splits axis seeds with +1.
    """
    kc = -1j / spec.a
    coupling = ComplexCoupling(alpha_c)
    if multiplicity_at(kc, coupling, spec, channel) != 2:
        raise ModelInvalid(f"no coalesced pair at k=-i/a, alpha={alpha_c!r}")
    step = direction * _SPLIT_STEP
    alpha_new = alpha_c + step
    gamma_new = _phase_to_gamma(alpha_new)
    big_k = cmath.sqrt(kc * kc + 2.0 * spec.m * spec.U * coupling.gamma)
    root = 1j * big_k * cmath.sqrt(1j * step)
    branches = []
    for sgn in (+1.0, -1.0):
        k_est = kc + sgn * root
        kk, iters, ok, _ = _k.newton_pole(
            k_est, gamma_new, spec.m, spec.a, spec.U, channel.code, STEP_TOL, 60
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
    return CollisionEvent(alpha_c, kc, (("resonance_side", hi), ("antiresonance_side", lo)))


def _tangent(k: complex, gamma: complex, spec: PotentialSpec, ch: int) -> complex:
    """dk/dalpha = -D_alpha/D_k at a pole; nan where D_k vanishes.

    Only where no corrector has just run, as at a trace start. A step
    takes the tangent newton_pole returns.
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
) -> Trajectory:
    """Predictor-corrector march in increasing alpha from (k_start, alpha_start).

    The seed sits on a quarter-turn anchor n_seed (ValueError otherwise).
    A march from a seed on the axis at a real coupling, started at the seed
    or on a branch of it, stops at its half-turn anchor, n_seed + 2 or
    n_seed + 4, and returns the closed loop (see _close_loop). The phase
    cap counts from the seed's phase, not from alpha_start. A stall ends
    the march only next to a coalesced pair at its half-turn anchor.
    """
    ch = seed.channel.code
    alpha0 = seed.coupling.alpha
    n_seed = _on_half_grid(alpha0)
    if n_seed is None:
        raise ValueError(f"a seed must sit on a quarter-turn anchor, got alpha={alpha0!r}")
    kc = -1j / spec.a
    window = _WINDOW_A / spec.a
    # the anchors at which a loop through an axis seed meets the axis again
    half_turns = (
        (n_seed + 2, n_seed + 4) if n_seed % 2 == 0 and abs(seed.k.real) < TOL_AXIS else ()
    )

    alphas = [float(alpha_start)]
    ks = [complex(k_start)]
    anchors: list[tuple[int, complex]] = []

    n_start = _on_half_grid(alpha_start)
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
    n_star = None
    reason: ExitReason | None = None

    while True:
        t_anchor = next_anchor * HALF_PI
        # a step that would end within rounding of the anchor ends on it:
        # the sliver left over would be the next predictor's base H
        target = t_anchor if t_anchor - (alpha + h) < 1e-9 * h else alpha + h

        step = _step(alpha, k, v, prev, target, spec, ch)
        if step is None:
            if h <= _STEP_MINIMUM * (1.0 + 1e-12):
                # a loop meets the coalesced pair at k = -i/a only at its
                # half-turn: end the march there
                anchor = ComplexCoupling(t_anchor)
                big_k = cmath.sqrt(kc * kc + 2.0 * spec.m * spec.U * anchor.gamma)
                if not (next_anchor in half_turns
                        and abs(k - kc) < _DOUBLE_ZERO_RADIUS * max(1.0, abs(big_k))
                        and multiplicity_at(kc, anchor, spec, seed.channel) == 2):
                    raise StallAtDoubleZero(alpha, k)
                n_star = next_anchor
                break
            h = max(0.5 * min(h, target - alpha), _STEP_MINIMUM)
            continue

        k1, v1, r = step
        # resize h only after a step that no anchor clipped; compare
        # phases, since alpha + h - alpha need not equal h.
        # r <= 1 keeps the factor at or above 0.9
        if not target < alpha + h:
            grow = 2.0 if r == 0.0 else min(0.9 * r ** (-1.0 / 3.0), 2.0)
            h *= grow
        prev = (alpha, k, v)
        alpha, k, v = target, k1, v1
        # keep the tangent's predicted move inside the displacement bound
        # that _step tests, with the growth rule's safety factor
        reach = 0.9 * _DISPLACEMENT_FACTOR * (1.0 + abs(k))
        if h * abs(v) > reach:
            h = max(reach / abs(v), _STEP_MINIMUM)
        alphas.append(alpha)
        ks.append(k)

        # before the anchor, so no curve carries an anchor past the window
        if abs(k) > window:
            reason = ExitReason.K_WINDOW
            break
        if alpha == t_anchor:
            anchors.append((next_anchor, k))
            if next_anchor in half_turns and abs(k.real) < TOL_AXIS:
                n_star = next_anchor
                break
            next_anchor += 1
        if abs(alpha - alpha0) >= _ALPHA_CAP - 1e-12:
            reason = ExitReason.ALPHA_CAP
            break

    traj = Trajectory(
        seed=seed, alphas=alphas, ks=ks, anchors=anchors,
        closure=Closure(ClosureKind.OPEN, reason),
    )
    return traj if n_star is None else _close_loop(traj, n_star, n_star - n_seed)


def _close_loop(half: Trajectory, n_star: int, turns: int) -> Trajectory:
    """The loop of a march that ended at its half-turn anchor n_star, turns
    quarter-turns past its seed: the march, then its mirror image about
    n_star.

    The march ends on the half-turn sample, its own image; a march that
    stopped at the coalesced pair ends just short of it, with no sample there.
    """
    kind = ClosureKind.CLOSED_2PI if turns == 2 else ClosureKind.CLOSED_4PI
    return _join(half, mirror(half, n_star), kind)


def _join(marched: Trajectory, image: Trajectory, kind: ClosureKind) -> Trajectory:
    """A forward march and its mirror image, joined into one curve.

    The image lies after the march (a loop about its half-turn) or before
    it (the backward half of an open curve). A sample or anchor that both
    hold at the joint is kept once, as marched: a mirrored axis pole
    carries Re k = -0.0. The curve takes kind and the march's exit reason,
    which is its image's too.
    """
    before = image.alphas[-1] <= marched.alphas[0]
    first, second = (image, marched) if before else (marched, image)

    anchors = first.anchors + second.anchors
    if first.anchors and second.anchors and first.anchors[-1][0] == second.anchors[0][0]:
        del anchors[len(first.anchors) - before]
    cut = first.alphas[-1] == second.alphas[0]
    head = len(first.alphas) - (cut and before)
    tail = int(cut and not before)
    return Trajectory(
        seed=marched.seed,
        alphas=first.alphas[:head] + second.alphas[tail:],
        ks=first.ks[:head] + second.ks[tail:],
        anchors=anchors,
        closure=Closure(kind, marched.closure.reason),
    )


def trace(
    seed: Pole,
    direction: int,
    spec: PotentialSpec,
) -> Trajectory:
    """Continue a refined pole in the coupling phase, one direction.

    direction is +1 (increasing alpha) or -1, which mirrors the forward
    march from the mirrored seed -conj(k) and so needs alpha a multiple of
    pi (ValueError otherwise). The seed must sit on a quarter-turn anchor,
    alpha a multiple of pi/2 (ValueError otherwise), and satisfy the pole
    residual requirement; a coalesced-pair seed cannot be continued as a
    single branch and raises StallAtDoubleZero immediately (split it with
    branch_at_double_zero instead).

    From a seed on the imaginary axis at a real coupling, a closed loop is
    marched only to its half-turn anchor, where it meets the axis again,
    and the rest is that half's mirror image; the loop comes back closed_2pi
    or closed_4pi. A curve from any other seed comes back open.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    n0 = _mirror_index(seed.coupling.alpha) if direction < 0 else None
    d, _ = _k.denom_plain(
        seed.k, seed.coupling.gamma, spec.m, spec.a, spec.U, seed.channel.code
    )
    if not abs(d) < RESIDUAL_TOL * (1.0 + abs(seed.k)):
        raise SeedNotOnPole(f"seed residual too large at k={seed.k!r}")
    if seed.multiplicity == 2:
        raise StallAtDoubleZero(seed.coupling.alpha, seed.k)
    start = seed if direction > 0 else _mirror_pole(seed, n0)
    fwd = _trace_from_state(start.k, start.coupling.alpha, start, spec)
    return fwd if direction > 0 else mirror(fwd)


def trace_branch(
    seed: Pole,
    branch_k: complex,
    branch_alpha: float,
    spec: PotentialSpec,
) -> Trajectory:
    """Continue one emerging branch of a split coalesced pair forward.

    The seed, the pair, sits on a quarter-turn anchor (ValueError
    otherwise). A branch closes as a march from an axis seed does: one that
    goes round a loop stops where it meets the axis again, at its half-turn,
    and comes back closed with the rest mirrored (see _close_loop); a branch
    of an open curve is marched to the window or the phase cap and comes
    back open. The pair's collision event is the chart's, not the branch's.
    """
    return _trace_from_state(branch_k, branch_alpha, seed, spec)


def _mirror_index(alpha: float) -> int:
    """Anchor index of alpha; the symmetry alpha -> -alpha reflects only
    about multiples of pi, so any other phase raises ValueError."""
    n = _on_half_grid(alpha)
    if n is None or n % 2:
        raise ValueError(f"mirroring needs alpha a multiple of pi, got {alpha!r}")
    return n


def _reflect(alpha: float, n0: int) -> float:
    """2*alpha0 - alpha about alpha0 = n0*(pi/2); an anchor phase n*(pi/2)
    goes exactly to the anchor phase (2*n0 - n)*(pi/2)."""
    n = _on_half_grid(alpha)
    return 2.0 * (n0 * HALF_PI) - alpha if n is None else (2 * n0 - n) * HALF_PI


def _mirror_pole(pole: Pole, n0: int) -> Pole:
    return replace(pole, k=-pole.k.conjugate(),
                   coupling=ComplexCoupling(_reflect(pole.coupling.alpha, n0)))


def mirror(traj: Trajectory, about: int | None = None) -> Trajectory:
    """Reflect a trajectory about the anchor n0 = about, by default the
    seed's: (alpha, k) -> (2*alpha0 - alpha, -conj(k)), alpha0 = n0*(pi/2).

    The reflected path solves the same pole equation by the conjugation
    relation of the S-matrix, S*(-k*, gamma*) = S(k, gamma), but only when
    alpha0 is a multiple of pi; about any other phase this raises
    ValueError. Anchor phases map exactly onto the quarter-turn grid (see
    _reflect). A forward trace becomes a backward one that stops, at its
    other end, for the same reason, so the closure is unchanged. For a
    self-symmetric trajectory it retraces the original curve.
    """
    n0 = _mirror_index(traj.seed_alpha if about is None else about * HALF_PI)
    return Trajectory(
        seed=_mirror_pole(traj.seed, n0),
        alphas=[_reflect(al, n0) for al in reversed(traj.alphas)],
        ks=[-kk.conjugate() for kk in reversed(traj.ks)],
        anchors=[(2 * n0 - n, -kk.conjugate()) for n, kk in reversed(traj.anchors)],
        closure=traj.closure,
    )
