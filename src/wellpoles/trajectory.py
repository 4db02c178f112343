"""Pole trajectories under rotation of the coupling phase.

The march runs in the interior phase x = aK = sqrt(q^2 + s), q = k*a,
s = c^2 e^{i alpha}, at the strength c = a sqrt(2 m U) (see _kernels), and
every step tolerance below is stated in x. Each sample's q = q(x) is
formed once (_kernels.pole_momentum), and every rule that reads the pole
reads q: the window stop, ``on_axis``, the anchors, the half-turn, the
image and the stall at the coalesced pair. Samples, anchors and collision
events are given in k = q/a.

Why x. Every curve lies on |g(x)| = c, g = x/cos x (even) or x/sin x
(odd), which is A(u) + B(v) = 0 in x = u + iv. Its components are
u-intervals with gaps of order pi between them, except at a saddle where a
pair coalesces; the points of one curve at one phase lie about pi apart;
and |dx/dalpha| = |x|/(2|1 - iq|) tends to 1/2 in the far field. So a
tolerance fixed in x keeps the curves apart at every |x|. In q the loops
crowd where x is small (0.17 apart next to |q| = c at c = 263), and the
turns of the open curve, pi apart, fall inside any tolerance that grows
with |q|.

A pole on a curve solves the x form h(x) = x - e*cos x (even) or
1 - e*sinc x (odd), e = sigma*c*e^{i alpha/2}, where the sign sigma is the
one the start solves (_start) and stays fixed along the curve. It is
continued in increasing alpha by a cubic Hermite predictor through the
last two samples of (alpha, x, v = dx/dalpha = -h_alpha/h_x), Euler at a
start, and a Newton corrector on the x form at the stepped phase (_correct),
whose e the march supplies: the exact square root of the axis coupling at
an anchor, cos + i sin of half the phase at any other phase, which lies
strictly between two anchors (both as _phase_to_root gives them). The
corrector stops on its step test |dx| < 4e-16*(1 + |x|), or where Newton's
quadratic model puts the next step under it, and evaluates the x form once
more at its root for v and q: about three Newton iterations a step.
A step of length h is accepted when it moves x by at most
0.1*(1 + min(|x0|, 10)) and its local error, the trapezoid defect
e = |x1 - x0 - h(v0 + v1)/2| of the tangents at both ends, is at most
tol*(1 + min(|x0|, 10)), tol = 1e-3; the next h is then
0.9*h*(tol*(1 + min(|x0|, 10))/e)^(1/3), at most 2h (_growth), and a
rejected h is halved. Every step, the first included, is also capped so
that the tangent's predicted move h*|v| stays within 0.9 of the
displacement bound at its start, though not below the minimum step: a
step grown into that bound would only be rejected and halved. Both
bounds stay below the pi between neighbouring curves at every |x|, so a
step that lands on another curve fails them, except next to a saddle,
where two curves pass closer. Steps are clipped so the trace lands
exactly on every quarter-turn anchor alpha = n*(pi/2), and a step that
would end within rounding of one ends on it; so no step is longer than
pi/2, and there is no other cap on the step. In the far field, where
|dx/dalpha| tends to 1/2 and the bounds no longer grow, about two steps
cover a quarter turn. Anchors are tracked by the integer n, never by
comparing accumulated floats against multiples of pi, so the half-turn
stop and the image below land exactly on them.
Each anchor's q is polished on the q form (_kernels.newton_pole) at the
anchor's exact coupling: q(x) carries x's rounding times
|dq/dx| ~ |q|^2/|x|, which on the innermost loops of a deep well, where
|q| ~ c and |x| is small, reaches the 1e-9 band of ``on_axis`` (c = 2121
in the deep panel). The march itself stays in x.
Where the x form's quadratic term outweighs its linear one over a split
step, x(alpha) turns about a branch point: the odd channel's x = 0, where
x and -x are one pole (c = 1, q = -i), or the saddle of a pair next to its
collision. There the first step is a split step long and starts from the
root of the quadratic that leaves the start.

The march only ever runs forward. The conjugation relation of the S-matrix,
S*(-k*, gamma*) = S(k, gamma), maps the pole at (alpha, k) to
(-alpha, -conj(k)), and so, the coupling being 2pi-periodic in alpha, to
(2*alpha0 - alpha, -conj(k)) for alpha0 any multiple of pi. About a seed
at a real coupling the backward half of a curve is therefore the mirror
image of the forward march about the seed's anchor. And a curve that meets
the imaginary axis at a real coupling is its own mirror image about that
point. One helper, _image, states that reflection, and the march alone
calls it.

So every curve comes back whole from one march and its image. A seed sits
on the imaginary axis at a real coupling: an axis pole, or a coalesced pair
split into its branches. A march from it stops at the half-turn anchor
n* = n_seed + 2 or n_seed + 4 where its pole lies on the axis again
(``on_axis``), or where it reaches the coalesced pair at q = -i and closes
there (the chart lists the pair's collision event). The loop is the march
and then its image about alpha* = n*(pi/2), and it is closed_2pi or
closed_4pi as n* - n_seed is 2 or 4. An open curve meets the axis at a real
coupling only at its seed, or it would be symmetric about two points and so
periodic; the open component is unbounded, so the curve leaves every
window, and it runs until |q| passes the trace window, _WINDOW_MARGIN = 1.2
times the corner radius of the chart's working window (window_extents). The
open curve is the image of that march about the seed's anchor, which stops
for the same reason, and then the march; a branch's image lies across the
pair. The march knows both orders, so a sample or anchor the two halves
share at the joint (the half-turn where a loop's march ends on it, the
seed's where an open curve's march starts on it) is kept once, as marched:
an axis seed keeps its Re k = +0.0, not the image's -0.0.
The window grows with c, so the loops of deep and wide wells, which reach
past any fixed radius, close inside it, the open curve, which needs about
1.5*c*pi of phase to leave it, is followed all the way across, and the
curves of a shallow well stop soon after they leave the region the
certificate counts. A march still inside the window at (40 + 2c)*pi from
its seed (_alpha_guard) stops there as a runaway, with ExitReason.ALPHA_CAP,
and fails the chart's certificate. Like the step schedule, this stop rule
is fixed in this module, and no caller sets it.
Pole pairs coalesce only at k = -i/a and at a real coupling, where the
curve meets the axis, so a march meets the pair only at its half-turn; a
march that stalls anywhere else raises StallAtDoubleZero.
"""

from __future__ import annotations

import cmath
import enum
import math

from . import _kernels as _k
from ._record import Record
from .errors import ModelInvalid, SeedNotOnPole, StallAtDoubleZero
from .rootfinder import MAX_NEWTON, Pole, multiplicity_at, on_axis, residual_ratio
from .smatrix import (
    HALF_PI,
    _ANCHOR_GAMMA,
    _ANCHOR_ROOT,
    Channel,
    ComplexCoupling,
    PotentialSpec,
    _anchor_index,
    _phase_to_gamma,
    _phase_to_root,
)

# the corrector's budget, its step test relative to 1 + |x| (a few units
# of rounding) and the longest previous step after which its quadratic
# model may exit: the x form varies on a scale of order 1 in x
_CORRECTOR_ITERS = 8
_CORRECTOR_TOL = 4e-16
_MODEL_STEP = 0.1
# a step's largest accepted |dx| and local error, relative to 1 + |x| with
# |x| capped at _SCALE_CAP: past it the points of neighbouring curves at one
# phase lie about pi apart however far out they are
_DISPLACEMENT_FACTOR = 0.1
_LOCAL_ERROR_TOL = 1e-3
_SCALE_CAP = 10.0
# the step schedule in alpha: first and smallest step, and the phase
# offset at which a split pair's branches start; the quarter-turn anchors
# bound the step from above
_STEP_INITIAL = 0.01
_STEP_MINIMUM = 1e-6
_SPLIT_STEP = 1e-3
# how far past the corner of the working window a march runs
_WINDOW_MARGIN = 1.2
# radius, in units of x_c = |aK_c| at the half-turn anchor ahead, within
# which a stall is the loop meeting the coalesced pair there: it must exceed
# the pair splitting scale x_c*sqrt(h_min) at the minimum step
_DOUBLE_ZERO_RADIUS = 1e-2


def window_extents(c: float) -> tuple[float, float, float]:
    """The working window of a chart's certificate in q = k*a, as
    (re_max, -im_min, im_max): |Re q| <= 8 + 2c, -(6 + 2c) <= Im q <= 2 + 2c."""
    reach = 2.0 * c
    return 8.0 + reach, 6.0 + reach, 2.0 + reach


def _trace_window(c: float) -> float:
    """The radius in q past which a march stops: _WINDOW_MARGIN times the
    working window's corner radius, so every curve crosses the whole window
    the certificate counts in, and no curve is marched far beyond it."""
    re_max, im_depth, _ = window_extents(c)
    return _WINDOW_MARGIN * math.hypot(re_max, im_depth)


def _alpha_guard(c: float) -> float:
    """The phase from the seed at which a march that has not left the trace
    window stops, (40 + 2c)*pi: a runaway guard, not a stop rule. The open
    curve leaves the window after about 1.5*c*pi of phase, so no curve of a
    sound march reaches it; one that does ends with ExitReason.ALPHA_CAP,
    and the chart's certificate fails on it."""
    return (40.0 + 2.0 * c) * math.pi


class ClosureKind(enum.Enum):
    CLOSED_2PI = "closed_2pi"
    CLOSED_4PI = "closed_4pi"
    OPEN = "open"


class ExitReason(enum.Enum):
    ALPHA_CAP = "alpha_cap"
    K_WINDOW = "k_window"


class Closure(Record):
    """How a curve ends. An open curve carries the reason its march stopped,
    which is its mirrored half's too (see _image); a closed one carries None."""

    __slots__ = ("kind", "reason")

    def __init__(self, kind: ClosureKind, reason: ExitReason | None = None):
        self.kind, self.reason = kind, reason

    @property
    def is_closed(self) -> bool:
        return self.kind is not ClosureKind.OPEN


class CollisionEvent(Record):
    """A pole pair coalescing at k = -i/a while alpha passes the event, with
    its two labelled branches at branch_alpha, a split step past it; they
    always leave the axis. A branch is held as its polished q = k*a, the
    exact point its march starts from."""

    __slots__ = ("alpha", "k", "branches")
    kind = "axis_pair_to_plane_pair"

    def __init__(self, alpha: float, k: complex, branches: tuple[tuple[str, complex], ...]):
        self.alpha, self.k, self.branches = alpha, k, branches

    @property
    def branch_alpha(self) -> float:
        return self.alpha + _SPLIT_STEP


class Trajectory(Record):
    """A continued pole path: samples (alphas[i], ks[i]) with alpha ascending.

    Its channel is the seed's, and its axis crossings are its on-axis
    anchors: a curve meets the imaginary axis only at a real coupling.
    """

    __slots__ = ("seed", "alphas", "ks", "anchors", "closure", "merged_seeds")

    def __init__(self, seed: Pole, alphas: list[float], ks: list[complex],
                 anchors: list[tuple[int, complex]], closure: Closure,
                 merged_seeds: list[Pole] | None = None):
        self.seed, self.alphas, self.ks, self.anchors, self.closure = (
            seed, alphas, ks, anchors, closure)
        self.merged_seeds = [] if merged_seeds is None else merged_seeds

    @property
    def channel(self) -> Channel:
        return self.seed.channel

    @property
    def seed_alpha(self) -> float:
        return self.seed.coupling.alpha

    @property
    def axis_crossings(self) -> list[tuple[float, complex]]:
        a = self.seed.a
        return [(n * HALF_PI, k) for n, k in self.anchors if on_axis(a * k)]


def branch_at_double_zero(seed: Pole, spec: PotentialSpec) -> CollisionEvent:
    """Split the coalesced pair an axis scan found at k = -i/a into its two
    branches, a split step delta = _SPLIT_STEP past its phase alpha_c.

    The seed is the scan's pair: its multiplicity 2 is the scan's pair-ball
    test (``scan_axis``), and any other seed raises ModelInvalid. The pair
    sits at a saddle z_c = aK_c of g (see ``chart.critical_depth``), where
    in both channels, in q = k*a, g''(z_c) = g(z_c) and dq/dz = i z_c, so
    g(z)^2 = c^2 e^{i alpha} puts the branches at alpha = alpha_c + delta,
    the event's branch_alpha, at q_c +- i z_c sqrt(i delta), q_c = -i,
    z_c = sqrt(q_c^2 + c^2 gamma_c). Each is Newton-polished at the stepped
    coupling. z_c is real or imaginary, so both sit about |z_c| sqrt(delta/2)
    off the axis, and the greater in (Re k, Im k) order is 'resonance_side',
    the event's first branch; each is held as its polished q.
    """
    alpha_c = seed.coupling.alpha
    if seed.multiplicity != 2:
        raise ModelInvalid(f"no coalesced pair at k=-i/a, alpha={alpha_c!r}")
    a, c = spec.a, spec.c
    kc = -1j / a
    delta = _SPLIT_STEP
    alpha_new = alpha_c + delta
    s_new = c * c * _phase_to_gamma(alpha_new)
    root = 1j * cmath.sqrt(-1.0 + c * c * seed.coupling.gamma) * cmath.sqrt(1j * delta)
    branches = []
    for sgn in (+1.0, -1.0):
        q_est = -1j + sgn * root
        q, iters, ok, _ = _k.newton_pole(q_est, s_new, seed.channel.code, MAX_NEWTON)
        if not ok or abs(q - q_est) > 10.0 * abs(root) + 1e-6:
            raise ModelInvalid(
                f"branch polish failed from {q_est / a!r} at alpha={alpha_new:.6f}"
            )
        branches.append(q)
    branches.sort(key=lambda z: (z.real, z.imag))
    lo, hi = branches
    if abs(hi - lo) < 1e-12:
        raise ModelInvalid("branches did not separate; step too small")
    return CollisionEvent(alpha_c, kc, (("resonance_side", hi), ("antiresonance_side", lo)))


def _start(q: complex, alpha: float, c: float, ch: int) -> tuple[complex, float]:
    """(x, sigma*c) at the pole q = k*a, phase alpha: x = sqrt(q^2 + s) and
    the sign sigma with which x solves the x form there."""
    x = cmath.sqrt(q * q + c * c * _phase_to_gamma(alpha))
    unit = _phase_to_root(alpha)
    return x, min((c, -c), key=lambda sigma_c: abs(_k.x_form(x, sigma_c * unit, ch)[0]))


def _growth(r: float) -> float:
    """The factor on h after a step whose local error is r times its bound:
    0.9*r^(-1/3), at most 2."""
    return 2.0 if r == 0.0 else min(0.9 * r ** (-1.0 / 3.0), 2.0)


def _correct(x, e, ch):
    """Newton on the x form at e = sigma*c*e^{i alpha/2} from x.

    With t_n = h/h_x at x_n and x_{n+1} = x_n - t_n, it stops at the first
    n where |t_n| < _CORRECTOR_TOL*(1 + |x_{n+1}|), or, after a step
    |t_{n-1}| < _MODEL_STEP, where Newton's quadratic model puts the next
    step under that bound: |t_n|^3 < _CORRECTOR_TOL*(1 + |x_{n+1}|)*|t_{n-1}|^2.
    Returns (x_{n+1}, v, q) with v = dx/dalpha = -h_alpha/h_x and q = q(x)
    at x_{n+1}, or None when _CORRECTOR_ITERS steps do not converge (an
    iterate that runs off turns nan and never does).
    """
    size_prev = math.inf
    for _ in range(_CORRECTOR_ITERS):
        h, hx, _, ha, q = _k.x_form(x, e, ch)
        if hx == 0.0:
            return None
        t = h / hx
        x -= t
        size = abs(t)
        bound = _CORRECTOR_TOL * (1.0 + abs(x))
        if size < bound or (size_prev < _MODEL_STEP
                            and size * size * size < bound * size_prev * size_prev):
            h, hx, _, ha, q = _k.x_form(x, e, ch)
            return (x, -ha / hx, q) if hx != 0.0 else None
        size_prev = size
    return None


def _step(alpha, x, v, prev, target, e, ch):
    """One checked continuation step from the pole at x = aK, phase alpha,
    tangent v = dx/dalpha.

    prev is the accepted sample (alpha, x, v) before this one, or None for
    an Euler predictor. The caller supplies the corrector's e, sigma*c
    times e^{i target/2}. Returns (x1, v1, q1, r) at the target phase, with
    r the local error over its bound, or None when the corrector fails, the
    step moves x too far, or r exceeds 1 (nan counts as a failure).
    """
    dt = target - alpha
    if prev is None:
        xp = x + v * dt
    else:
        # cubic Hermite through prev and (alpha, x, v), expanded about alpha
        a0, x0, v0 = prev
        H = alpha - a0
        slope = (x - x0) / H
        c2 = (2.0 * v + v0 - 3.0 * slope) / H
        c3 = (v + v0 - 2.0 * slope) / (H * H)
        xp = x + dt * (v + dt * (c2 + dt * c3))
    found = _correct(xp, e, ch)
    if found is None:
        return None
    x1, v1, q1 = found
    scale = 1.0 + min(abs(x), _SCALE_CAP)
    r = abs(x1 - x - 0.5 * dt * (v + v1)) / (_LOCAL_ERROR_TOL * scale)
    if not (abs(x1 - x) <= _DISPLACEMENT_FACTOR * scale and r <= 1.0):
        return None
    return x1, v1, q1, r


def _trace_from_state(
    q_start: complex,
    alpha_start: float,
    seed: Pole,
    spec: PotentialSpec,
) -> Trajectory:
    """The whole curve of a predictor-corrector march in increasing alpha
    from (q_start, alpha_start), q = k*a.

    The seed sits on the imaginary axis on a real-coupling anchor n_seed,
    a multiple of pi (ValueError otherwise); the march starts at the seed or
    on a branch of it. A march that reaches its half-turn anchor
    n* = n_seed + 2 or n_seed + 4 on the axis again, or stalls next to the
    coalesced pair there, is one half of a loop, and the loop is that half
    followed by its image about n*: closed_2pi or closed_4pi as
    n* - n_seed is 2 or 4. Any other march stops where |q| passes
    _trace_window(c), or at the runaway guard _alpha_guard(c), which counts
    from the seed's phase, not from alpha_start; it is the forward half of
    an open curve, which is its image about n_seed followed by it. A stall
    anywhere else raises StallAtDoubleZero. Samples and anchors are
    k = q/a.
    """
    ch = seed.channel.code
    alpha0 = seed.coupling.alpha
    n_seed = _anchor_index(alpha0)
    a, c = spec.a, spec.c
    if n_seed is None or n_seed % 2 or not on_axis(seed.q):
        raise ValueError(f"a seed must be an axis pole on a real-coupling quarter-turn "
                         f"anchor, got k={seed.k!r} at alpha={alpha0!r}")
    c2 = c * c
    # the anchors at which a loop through the seed meets the axis again
    half_turns = (n_seed + 2, n_seed + 4)

    q = complex(q_start)
    alphas = [float(alpha_start)]
    qs = [q]
    anchors: list[tuple[int, complex]] = []

    n_start = _anchor_index(alpha_start)
    if n_start is not None:
        anchors.append((n_start, q))
        next_anchor = n_start + 1
    else:
        next_anchor = math.floor(alpha_start / HALF_PI) + 1

    alpha = alpha_start
    x, sigma_c = _start(q, alpha, c, ch)
    _, hx, hxx, ha, _ = _k.x_form(x, sigma_c * _phase_to_root(alpha), ch)
    # over a split step delta the x form moves by h_x*dx + h_xx*dx^2/2 +
    # h_alpha*delta = 0. Where the quadratic term outweighs the linear one,
    # x(alpha) turns about a branch point (the odd channel's x = 0 at
    # c = 1, a coalesced pair's saddle) on a phase scale below delta, so
    # the first step is delta long and ends at the root of that quadratic
    # that leaves the start
    delta = _SPLIT_STEP
    quad = 2.0 * hxx * ha * delta
    if abs(hx * hx) < abs(quad):
        w = cmath.sqrt(hx * hx - quad)
        dx = -2.0 * ha * delta / (hx + w if abs(hx + w) >= abs(hx - w) else hx - w)
        alpha += delta
        found = _correct(x + dx, sigma_c * _phase_to_root(alpha), ch)
        if found is None:
            raise StallAtDoubleZero(alpha_start, q / a)
        x, v, q = found
        alphas.append(alpha)
        qs.append(q)
    else:
        v = -ha / hx
    prev = None
    reach_factor = 0.9 * _DISPLACEMENT_FACTOR
    h = _STEP_INITIAL
    n_star = None
    reason: ExitReason | None = None
    h_floor = _STEP_MINIMUM * (1.0 + 1e-12)
    guard = _alpha_guard(c) - 1e-12
    window = _trace_window(c)
    cos, sin = math.cos, math.sin
    t_anchor = next_anchor * HALF_PI

    while True:
        # keep the tangent's predicted move inside the displacement bound
        # that _step tests, with the growth rule's safety factor
        reach = reach_factor * (1.0 + min(abs(x), _SCALE_CAP))
        abs_v = abs(v)
        if h * abs_v > reach:
            h = max(reach / abs_v, _STEP_MINIMUM)
        # a step that would end within rounding of the anchor ends on it:
        # the sliver left over would be the next predictor's base H. Any
        # other target lies strictly between two anchors, where
        # _phase_to_root is cos + i sin of half the phase
        if t_anchor - (alpha + h) < 1e-9 * h:
            target, unit = t_anchor, _ANCHOR_ROOT[next_anchor % 8]
        else:
            target = alpha + h
            unit = complex(cos(0.5 * target), sin(0.5 * target))

        step = _step(alpha, x, v, prev, target, sigma_c * unit, ch)
        if step is None:
            if h <= h_floor:
                # a loop meets the coalesced pair at q = -i only at its
                # half-turn: end the march there
                anchor = ComplexCoupling(t_anchor)
                zc = cmath.sqrt(-1.0 + c2 * anchor.gamma)
                if not (next_anchor in half_turns
                        and abs(q + 1j) < _DOUBLE_ZERO_RADIUS * abs(zc)
                        and multiplicity_at(-1j / a, anchor, spec, seed.channel) == 2):
                    raise StallAtDoubleZero(alpha, q / a)
                n_star = next_anchor
                break
            h = max(0.5 * min(h, target - alpha), _STEP_MINIMUM)
            continue

        x1, v1, q, r = step
        # resize h only after a step that no anchor clipped; compare
        # phases, since alpha + h - alpha need not equal h
        if not target < alpha + h:
            h *= _growth(r)
        prev = (alpha, x, v)
        alpha, x, v = target, x1, v1
        alphas.append(alpha)
        qs.append(q)

        # before the anchor, so no curve carries an anchor past the window
        if abs(q) > window:
            reason = ExitReason.K_WINDOW
            break
        if alpha == t_anchor:
            # on_axis and the chart read an anchor's q, which q(x) holds
            # only to x's rounding times |dq/dx|
            polished, _, ok, _ = _k.newton_pole(q, c2 * _ANCHOR_GAMMA[next_anchor % 4], ch,
                                                _CORRECTOR_ITERS)
            if ok:
                q = qs[-1] = polished
            anchors.append((next_anchor, q))
            if next_anchor in half_turns and on_axis(q):
                n_star = next_anchor
                break
            next_anchor += 1
            t_anchor = next_anchor * HALF_PI
        if abs(alpha - alpha0) >= guard:
            reason = ExitReason.ALPHA_CAP
            break

    ks = [q / a for q in qs]
    anchors = [(n, q / a) for n, q in anchors]
    if n_star is None:
        # the image about the seed's anchor, then the march: the seed's
        # sample and anchor are held once, as marched, and a split branch's
        # march shares neither with its image
        j = 0 if n_start is None else 1
        back_alphas, back_ks, back_anchors = _image(alphas[j:], ks[j:], anchors[j:], n_seed)
        return Trajectory(seed, back_alphas + alphas, back_ks + ks, back_anchors + anchors,
                          Closure(ClosureKind.OPEN, reason))
    # the march, then its image about n*: the half-turn sample and anchor,
    # where the march ends on them, are held once, as marched; a march that
    # stops short of the coalesced pair shares neither with its image
    j = -1 if anchors[-1][0] == n_star else None
    rest_alphas, rest_ks, rest_anchors = _image(alphas[:j], ks[:j], anchors[:j], n_star)
    kind = ClosureKind.CLOSED_2PI if n_star - n_seed == 2 else ClosureKind.CLOSED_4PI
    return Trajectory(seed, alphas + rest_alphas, ks + rest_ks, anchors + rest_anchors,
                      Closure(kind))


def trace(
    seed: Pole,
    direction: int,
    spec: PotentialSpec,
) -> Trajectory:
    """The whole curve through an axis pole, in ascending alpha.

    The seed must lie on the imaginary axis at a real coupling, alpha a
    multiple of pi (ValueError otherwise), and meet the pole residual bound
    of ``residual_ratio`` at its q; a coalesced-pair seed cannot be
    continued as a single branch and raises StallAtDoubleZero immediately
    (split it with branch_at_double_zero instead). The curve is marched
    forward from the seed's q, the scan's own, and completed by its mirror
    image (see _trace_from_state): a loop comes back closed_2pi or
    closed_4pi, with the seed its first sample, and the open curve comes
    back open, with the seed in its middle. direction must be +1: the
    curve is its own image about the seed, so there is no other to trace;
    any other value raises ValueError.
    """
    if direction != 1:
        raise ValueError("direction must be +1")
    c = spec.c
    if not residual_ratio(seed.q, c * c * seed.coupling.gamma, seed.channel) < 1.0:
        raise SeedNotOnPole(f"seed residual too large at k={seed.k!r}")
    if seed.multiplicity == 2:
        raise StallAtDoubleZero(seed.coupling.alpha, seed.k)
    return _trace_from_state(seed.q, seed.coupling.alpha, seed, spec)


def trace_branch(seed: Pole, branch_q: complex, spec: PotentialSpec) -> Trajectory:
    """The whole curve through one branch of a split coalesced pair.

    The seed is the pair, on the axis at a real coupling (ValueError
    otherwise), and the branch's march starts at its polished q = k*a, a
    branch of ``CollisionEvent.branches``, at the split's phase
    alpha + _SPLIT_STEP (``CollisionEvent.branch_alpha``). A
    branch closes as a march from an axis seed does: one that goes round a
    loop stops where it meets the axis again, at its half-turn, and comes
    back closed with the rest mirrored; a branch of an open curve is
    marched to the window, or to the runaway guard, and comes back open,
    its backward half the image across the pair. The pair's collision
    event is the chart's, not the branch's.
    """
    return _trace_from_state(branch_q, seed.coupling.alpha + _SPLIT_STEP, seed, spec)


def _reflect(alpha: float, n0: int) -> float:
    """2*alpha0 - alpha about alpha0 = n0*(pi/2); an anchor phase n*(pi/2)
    goes exactly to the anchor phase (2*n0 - n)*(pi/2)."""
    n = _anchor_index(alpha)
    return 2.0 * (n0 * HALF_PI) - alpha if n is None else (2 * n0 - n) * HALF_PI


def _image(alphas: list[float], ks: list[complex], anchors: list[tuple[int, complex]],
           n0: int) -> tuple[list[float], list[complex], list[tuple[int, complex]]]:
    """Samples and anchors reflected about the anchor n0, in ascending
    phase: (alpha, k) -> (2*alpha0 - alpha, -conj(k)), alpha0 = n0*(pi/2),
    with anchor phases mapped exactly (see _reflect) and the anchor n taken
    to 2*n0 - n. n0 must be even, a multiple of pi."""
    return ([_reflect(al, n0) for al in reversed(alphas)],
            [-k.conjugate() for k in reversed(ks)],
            [(2 * n0 - n, -k.conjugate()) for n, k in reversed(anchors)])
