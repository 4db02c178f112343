"""Pole charts: every trajectory of a well, plus depth transitions.

A chart gathers the axis poles of both real couplings (gamma = +1 and -1),
continues each curve once through the phase rotation until it closes or
meets the tracer's stop rule (a phase cap and a k window, both trajectory
constants), and certifies completeness by comparing a contour count over
the working momentum window against the poles the trajectories deliver
back at the attractive coupling.

Depth analysis lives here too: the critical depths where an axis pole pair
coalesces at k = -i/a, in closed form from the interior-momentum form of
the pole condition (see critical_depth) and verified by a contour count;
the closed-form bound state thresholds; and sweeps that attribute topology
changes between consecutive depths to the collision they bracket.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EdgeTooClose, NoRootInBracket, StallAtDoubleZero
from .rootfinder import (
    TOL_AXIS,
    CountRegion,
    Pole,
    _axis_roots,
    collision_x,
    count_zeros_padded,
    scan_axis,
)
from .smatrix import Channel, ComplexCoupling, PotentialSpec
from .trajectory import (
    _SPLIT_STEP,
    ClosureKind,
    CollisionEvent,
    Trajectory,
    _join,
    branch_at_double_zero,
    mirror,
    trace,
    trace_branch,
)

HALF_PI = math.pi / 2.0

_DEDUP_TOL = 1e-6
# wide enough to flag a 4-significant-digit rounding of a collision depth,
# narrow enough to stay quiet at every chart depth of interest (>= 2e-3 away)
_CRITICAL_WARN = 1e-4
_NEAR_CONTACT = 0.05


def _inventory_key(k: complex) -> tuple[float, float]:
    return (0.0 if abs(k.real) < _DEDUP_TOL else k.real, k.imag)


@dataclass(frozen=True)
class WorkingWindow:
    re_max: float
    im_min: float
    im_max: float

    def contains(self, k: complex) -> bool:
        return (
            abs(k.real) <= self.re_max
            and self.im_min <= k.imag <= self.im_max
        )


def working_window(spec: PotentialSpec) -> WorkingWindow:
    reach = 2.0 * math.sqrt(2.0 * spec.m * spec.U)
    return WorkingWindow(
        re_max=8.0 / spec.a + reach,
        im_min=-(6.0 / spec.a + reach),
        im_max=reach + 2.0 / spec.a,
    )


@dataclass(frozen=True)
class ChartWarning:
    code: str
    message: str


@dataclass(frozen=True)
class NearContact:
    alpha_index: int
    k_first: complex
    k_second: complex
    distance: float


@dataclass
class PoleChart:
    """What tracing one well and channel found; the topology and the near
    contacts are read off the curves."""

    spec: PotentialSpec
    channel: Channel
    seeds: list[Pole]
    trajectories: list[Trajectory]
    collisions: list[CollisionEvent]
    warnings: list[ChartWarning]
    completeness: dict | None

    @property
    def topology(self) -> dict[str, int]:
        """The number of curves of each closure kind."""
        return dict(Counter(t.closure.kind.value for t in self.trajectories))

    @property
    def near_contacts(self) -> list[NearContact]:
        """Pairs of curves closer than _NEAR_CONTACT at a shared anchor."""
        return _near_contacts(self.trajectories)

    def anchor_poles(self, phase_class: int = 0, window: WorkingWindow | None = None) -> list[complex]:
        """Distinct poles delivered at anchors with index = phase_class (mod 4).

        phase_class 0 is the attractive coupling, 2 the repulsive one. A
        closed curve revisits its anchors every turn, so matching momenta
        are merged; the survivors are sorted by (Re, Im), with an axis pole
        (|Re k| < _DEDUP_TOL) taken at Re = 0 so that the sign of its
        roundoff real part does not decide its place.
        """
        found: list[complex] = []
        for traj in self.trajectories:
            for n, k in traj.anchors:
                if (n - phase_class) % 4 != 0:
                    continue
                if window is not None and not window.contains(k):
                    continue
                if all(abs(k - q) >= _DEDUP_TOL for q in found):
                    found.append(k)
        return sorted(found, key=_inventory_key)


def _critical_proximity(spec: PotentialSpec, channel: Channel) -> list[ChartWarning]:
    """Warn when the depth lies within _CRITICAL_WARN of a pair collision.

    The distance min |U - U*| is exact, taken over the closed-form collision
    depths of each real coupling.
    """
    warnings = []
    for attractive, name in ((True, "attractive"), (False, "repulsive")):
        near = _collisions_between(
            channel, attractive, spec.m, spec.a,
            spec.U - _CRITICAL_WARN, spec.U + _CRITICAL_WARN,
        )
        if not near:
            continue
        dist = min(abs(spec.U - u_star) for _, u_star in near)
        if dist < _CRITICAL_WARN:
            warnings.append(ChartWarning(
                code="critical_proximity",
                message=(
                    f"{name} coupling sits within {dist:.3e} of a pair "
                    f"collision depth; trajectories may stall at k=-i/a"
                ),
            ))
    return warnings


def _claimed(kept: list[Trajectory], seed: Pole, n: int, k: complex) -> bool:
    """List seed with the kept curve that delivers pole k at an anchor of
    index n (mod 4); False when no kept curve does.

    Away from the double point k = -i/a, a pole at a quarter-turn anchor
    lies on exactly one curve, so it names that curve; the coupling is
    periodic in the phase, so anchors a whole number of turns apart match.
    """
    for traj in kept:
        for m, q in traj.anchors:
            if (m - n) % 4 == 0 and abs(q - k) < _DEDUP_TOL:
                traj.merged_seeds.append(seed)
                return True
    return False


def _near_contacts(trajectories: list[Trajectory]) -> list[NearContact]:
    contacts = []
    maps = [t.anchor_index_map() for t in trajectories]
    for i, amap in enumerate(maps):
        for bmap in maps[i + 1:]:
            for n in set(amap) & set(bmap):
                dist = abs(amap[n] - bmap[n])
                if dist < _NEAR_CONTACT:
                    contacts.append(NearContact(
                        alpha_index=n, k_first=amap[n],
                        k_second=bmap[n], distance=dist,
                    ))
    contacts.sort(key=lambda c: c.distance)
    return contacts


def _stalled(start: str, exc: StallAtDoubleZero) -> ChartWarning:
    # pairs next to a collision, which the march passes closer than it
    # resolves at its minimum step
    return ChartWarning(code="trace_stalled", message=f"curve from {start} not traced: {exc}")


def build_chart(
    spec: PotentialSpec,
    channel: Channel,
    certify: bool = True,
) -> PoleChart:
    """Trace every pole trajectory of the well in one channel.

    Seeds come from axis scans at both real couplings; a coalesced pair is
    split into a collision event, the chart's one event at its phase (a loop
    that reaches the pair closes there), whose two labelled branches are
    each traced forward as a seed is. Each curve is traced once: a seed that
    a kept curve already delivers at an anchor of its phase, or a branch whose
    first anchor one does, is listed in that curve's merged_seeds and not
    kept. The backward half of an open curve is the mirror image of its
    forward march about the seed (across the pair, for a branch). With
    certify=True the chart carries a completeness certificate comparing a
    contour count over the working window against the poles the
    trajectories return at the attractive coupling.
    """
    warnings = _critical_proximity(spec, channel)

    seeds: list[Pole] = []
    for alpha in (0.0, math.pi):
        seeds.extend(scan_axis(spec, ComplexCoupling(alpha), channel))

    trajectories: list[Trajectory] = []
    collisions: list[CollisionEvent] = []

    def keep(start: str, march) -> None:
        try:
            traj = march()
        except StallAtDoubleZero as exc:
            warnings.append(_stalled(start, exc))
            return
        # a curve is known by its first anchor, which for a branch lies off
        # the double point
        if traj.anchors and _claimed(trajectories, traj.seed, *traj.anchors[0]):
            return
        if not traj.closure.is_closed:
            traj = _join(traj, mirror(traj), ClosureKind.OPEN)
        trajectories.append(traj)

    for seed in seeds:
        alpha = seed.coupling.alpha
        if seed.multiplicity == 2:
            event = branch_at_double_zero(alpha, spec, channel, +1)
            collisions.append(event)
            for _, kb in event.branches:
                keep(f"split branch k={kb!r}", lambda kb=kb: trace_branch(
                    seed, kb, alpha + _SPLIT_STEP, spec))
        elif not _claimed(trajectories, seed, round(alpha / HALF_PI), seed.k):
            keep(f"axis pole k={seed.k!r}", lambda: trace(seed, +1, spec))

    chart = PoleChart(
        spec=spec,
        channel=channel,
        seeds=seeds,
        trajectories=trajectories,
        collisions=collisions,
        warnings=warnings,
        completeness=None,
    )
    if certify:
        chart.completeness = _certify(chart)
    return chart


def _certify(chart: PoleChart) -> dict:
    spec = chart.spec
    window = working_window(spec)
    inventory = chart.anchor_poles(0, window)
    # an event at the attractive coupling is the coalesced pair at -i/a,
    # inside every working window (im_min < -1/a); it counts twice
    traj_count = len(inventory)
    if any(round(ev.alpha / HALF_PI) % 4 == 0 for ev in chart.collisions):
        kc = -1j / spec.a
        traj_count += 2 - sum(abs(k - kc) < _DEDUP_TOL for k in inventory)
    region = CountRegion(
        lo=complex(-window.re_max, window.im_min),
        hi=complex(window.re_max, window.im_max),
        coupling=ComplexCoupling(0.0),
        channel=chart.channel,
    )
    window_count = None
    try:
        # zero depth has no poles; the even channel's one zero there is the
        # threshold at k = 0
        n = 0 if spec.U == 0.0 else count_zeros_padded(region, spec)[0]
    except (EdgeTooClose, ValueError) as exc:
        failure = f"window contour count failed: {exc}"
    else:
        if n >= 0:
            window_count = n
        else:
            # an entire function has no negative zero count
            failure = f"window contour count {n} is negative: the sampled winding aliased"
    if window_count is None:
        chart.warnings.append(ChartWarning(code="count_failed", message=failure))
    # a stalled curve is missing from the chart even where it holds no
    # pole of the window, so the counts cannot speak for it
    stalled = any(w.code == "trace_stalled" for w in chart.warnings)
    return {
        "window": window,
        "window_count": window_count,
        "trajectory_count": traj_count,
        "inventory": inventory,
        "complete": window_count == traj_count and not stalled,
    }


# -- depth analysis ----------------------------------------------------------


@dataclass(frozen=True)
class CriticalDepth:
    """A pair collision at k = -i/a; its transition, the way the pair moves
    as U increases, is read off the coupling (see critical_depth)."""

    U: float
    k: complex
    channel: Channel
    attractive: bool
    index: int
    # contour count around k in a small box, should be 2; None when the
    # count fails
    pair_count: int | None

    @property
    def transition(self) -> str:
        return "plane_to_axis" if self.attractive else "axis_to_plane"


def _collision_depth(
    channel: Channel, attractive: bool, m: float, a: float, index: int
) -> float:
    """U* of the index-th pair collision (see critical_depth)."""
    x = collision_x(channel, attractive, index)
    return (x * x + (1.0 if attractive else -1.0)) / (2.0 * m * a * a)


def _collisions_between(
    channel: Channel, attractive: bool, m: float, a: float, u_lo: float, u_hi: float
) -> list[tuple[int, float]]:
    """(index, U*) of every pair collision with u_lo <= U* <= u_hi.

    U* rises with the index. Every collision below index floor(x0/pi),
    x0 = sqrt(2 m a^2 u_lo - 1), has x < x0 and so U* < u_lo (the repulsive
    one too, as its U* lies below 1/(2 m a^2)); the walk starts there.
    """
    x0 = math.sqrt(max(2.0 * m * a * a * u_lo - 1.0, 0.0))
    index = max(1, math.floor(x0 / math.pi))
    found = []
    while True:
        try:
            u_star = _collision_depth(channel, attractive, m, a, index)
        except NoRootInBracket:
            return found
        if u_star > u_hi:
            return found
        if u_star >= u_lo:
            found.append((index, u_star))
        index += 1


def _verified_critical(channel, attractive, index, u_star, m, a) -> CriticalDepth:
    """The collision with its contour pair count (None if uncountable)."""
    kc = -1j / a
    region = CountRegion(
        lo=kc - (1e-3 + 1e-3j), hi=kc + (1e-3 + 1e-3j),
        coupling=ComplexCoupling(0.0 if attractive else math.pi),
        channel=channel,
    )
    try:
        pair, _ = count_zeros_padded(region, PotentialSpec(m=m, a=a, U=u_star))
    except EdgeTooClose:
        pair = None
    return CriticalDepth(
        U=u_star,
        k=kc,
        channel=channel,
        attractive=attractive,
        index=index,
        pair_count=pair,
    )


def critical_depth(
    channel: Channel,
    attractive: bool,
    m: float = 1.0,
    a: float = 1.5,
    index: int = 1,
) -> CriticalDepth:
    """The index-th depth at which an axis pole pair coalesces at k = -i/a.

    With interior momentum K, a channel pole is exactly g(K)^2 = 2 m U gamma,
    where g(K) = K / cos(aK) and k = i K tan(aK) in the even channel, and
    g(K) = K / sin(aK) and k = -i K cot(aK) in the odd one. Pairs collide
    where g'(K) = 0, which is the point k = -i/a (Nussenzveig, Nucl. Phys. 11
    (1959) 499). With x = a|K_c| from ``collision_x`` and s = 2 m a^2, the
    index-th collision lies at U* = (x^2 + 1)/s for the attractive coupling
    and at U* = (x^2 - 1)/s, K_c = i x/a, for the even repulsive one.

    The index counts collisions by rising depth. The even repulsive
    collision is the only one (index 1); the odd repulsive coupling has none
    and raises NoRootInBracket. K = 0 also solves the odd equation, but K
    and -K give the same k, so its depth 1/s is a simple axis crossing and
    not a collision. The result is verified by a contour count of 2 around
    k = -i/a.

    The transition label is the sign of (g^2)'' at the collision. Let t run
    along the line of K through K_c (K = t/a attractive, K = i t/a
    repulsive), where G(t) = gamma g(K)^2 / (2m) is real, the poles solve
    G(t) = U, and G''(t_c) = (g^2)''(K_c) / (2 m a^2) in both cases. Near
    t_c, U - U* = G''(t_c) (t - t_c)^2 / 2. Real t gives an
    imaginary k, and t_c +- i delta a mirrored pair off the axis. So where
    G'' > 0 the pair leaves the plane for the axis as U rises, and where
    G'' < 0 it leaves the axis. The attractive G = x^2/(s cos^2 x) or
    x^2/(s sin^2 x) grows without bound at both ends of the period cell that
    holds x_c and has no other critical point there, so U* is a minimum:
    'plane_to_axis'. The repulsive G = y^2/(s cosh^2 y) rises from 0 at
    y = 0 and decays to 0, so its one critical point is a maximum:
    'axis_to_plane'.
    """
    if index < 1:
        raise ValueError("index counts from 1")
    u_star = _collision_depth(channel, attractive, m, a, index)
    return _verified_critical(channel, attractive, index, u_star, m, a)


def bound_threshold(channel: Channel, n: int, m: float = 1.0, a: float = 1.5) -> float:
    """Depth at which the n-th bound state of a channel appears (n >= 1).

    New bound states enter at k = 0, where the quantization closes in
    closed form: the even channel binds from zero depth, gaining its next
    state at (n*pi)^2/(2 m a^2); the odd channel needs
    ((2n-1)*pi/2)^2/(2 m a^2).
    """
    if n < 1:
        raise ValueError("threshold index counts from 1")
    if channel is Channel.MINUS:
        x = (2 * n - 1) * math.pi / 2.0
    else:
        x = n * math.pi
    return x * x / (2.0 * m * a * a)


def _next_threshold(channel: Channel, u: float, m: float, a: float) -> float:
    """The first closed-form bound state threshold strictly above depth u."""
    x = math.sqrt(2.0 * m * a * a * max(u, 0.0)) / math.pi
    # x_n = n*pi (even) or (n - 1/2)*pi (odd); start one below the estimate
    # so that rounding cannot skip a threshold
    n = max(1, math.floor(x + (0.5 if channel is Channel.MINUS else 0.0)) - 1)
    while (u_n := bound_threshold(channel, n, m, a)) <= u:
        n += 1
    return u_n


def _scan_threshold(channel: Channel, u: float, m: float, a: float) -> float:
    """The first depth above u at which the axis scan shows a new bound state.

    A new state enters at k = 0 at the closed-form depth u_n, but
    ``classify`` calls it bound only once kappa >= TOL_AXIS. Near x_n the
    pole condition reads x (x - x_n) ~ a kappa in both channels, and
    U = (x^2/a^2 + kappa^2)/(2m), so kappa = TOL_AXIS at
    u_n + TOL_AXIS/(m a) to first order; the neglected terms, of order
    kappa^2/m, lie below the float spacing of U. The scan's own count
    changes within a few float spacings of this depth, where roundoff in
    the polished kappa puts it.

    The even channel's first state enters at U = 0, where x^2 ~ a kappa -
    (a kappa)^2/3 puts it at TOL_AXIS/(2 m a) + TOL_AXIS^2/(3 m).
    """
    first = TOL_AXIS / (2.0 * m * a) + TOL_AXIS * TOL_AXIS / (3.0 * m)
    if channel is Channel.PLUS and u < first:
        return first
    shift = TOL_AXIS / (m * a)
    return _next_threshold(channel, u - shift, m, a) + shift


def bound_count(spec: PotentialSpec, channel: Channel) -> int:
    """Number of bound states (axis poles with Im k > 0) at the attractive
    coupling, from the axis roots of ``scan_axis``.

    It counts the simple roots with kappa >= TOL_AXIS, exactly those that
    ``classify`` calls bound. No residual is evaluated, no ``Pole`` built,
    and no root solved that its cell places at kappa < 0 (``bound_only``).
    A root within TOL_AXIS of k = 0 is a threshold, not a bound state, so
    at a closed-form threshold depth the count is still the one below it.
    """
    roots = _axis_roots(spec, ComplexCoupling(0.0), channel, bound_only=True)
    return sum(1 for kappa, mult in roots if mult == 1 and kappa >= TOL_AXIS)


def _bisect(below, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] to width tol, moving lo to a midpoint u where
    below(u) holds and hi to one where it does not.

    Stops early once the midpoint is not strictly inside (lo, hi), which
    happens when tol lies below the float spacing of the bracket.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def threshold_flip(
    channel: Channel,
    u_lo: float,
    u_hi: float,
    m: float = 1.0,
    a: float = 1.5,
    tol: float = 1e-6,
) -> float:
    """Bisect the depth at which the bound state count increments.

    The answer is the midpoint of a final bracket [lo, hi], hi - lo <= tol
    (or no midpoint left between them), certified by two ``bound_count``
    scans: the count at lo is the count at u_lo, and the count at hi is
    not. The closed form only steers the halving: the first depth above
    u_lo at which the scan shows a new bound state (``_scan_threshold``,
    the threshold ``bound_threshold`` plus TOL_AXIS/(m a), where the
    entering pole leaves the classifier's threshold band) decides each
    midpoint, and no scan runs until the final bracket. Bisection rests on
    nothing more than those two facts about its final bracket, so where the
    count rises with U a certified result is the one a scan at every
    midpoint gives, bit for bit. Steering by the scan-visible depth rather
    than the threshold itself keeps the certificate from failing where the
    final bracket ends between the two. When the certificate fails, the
    halving is rerun from the original bracket with a scan at every
    midpoint.

    Raises NoRootInBracket when the counts at u_lo and u_hi agree, and
    ValueError unless tol > 0 and u_lo < u_hi.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not u_lo < u_hi:
        raise ValueError(f"need u_lo < u_hi, got ({u_lo!r}, {u_hi!r})")

    def count(u: float) -> int:
        return bound_count(PotentialSpec(m=m, a=a, U=u), channel)

    n_lo = count(u_lo)
    n_hi = count(u_hi)
    if n_lo == n_hi:
        raise NoRootInBracket(
            f"bound count {n_lo} does not change on ({u_lo}, {u_hi})"
        )
    # a midpoint on the guess goes below; the certificate tells which side
    # of the scan's flip it really lies on
    guess = _scan_threshold(channel, u_lo, m, a)
    lo, hi = _bisect(lambda u: u <= guess, u_lo, u_hi, tol)
    if not (count(lo) == n_lo and count(hi) != n_lo):
        lo, hi = _bisect(lambda u: count(u) == n_lo, u_lo, u_hi, tol)
    return 0.5 * (lo + hi)


# -- depth sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    U_requested: float
    U_used: float
    nudged: bool
    topology: dict[str, int]
    attractive_poles: list[complex]
    warnings: list[ChartWarning]


@dataclass(frozen=True)
class SweepTransition:
    """A topology change between two sweep depths and the collision it
    brackets, if any; the description is read off that collision."""

    u_below: float
    u_above: float
    critical: CriticalDepth | None

    @property
    def description(self) -> str:
        crit = self.critical
        if crit is None:
            return "topology change without a bracketed pair collision"
        side = "attractive" if crit.attractive else "repulsive"
        return f"pair collision at U={crit.U:.9g} ({side}, {crit.transition})"


@dataclass
class SweepResult:
    channel: Channel
    entries: list[SweepEntry]
    transitions: list[SweepTransition]


def _first_collision(channel, m, a, u_lo, u_hi):
    """(attractive, index, U*) of the lowest attractive collision in
    [u_lo, u_hi], else of the repulsive one, else None."""
    for attractive in (True, False):
        for index, u_star in _collisions_between(channel, attractive, m, a, u_lo, u_hi):
            return attractive, index, u_star
    return None


def depth_sweep(
    channel: Channel,
    depths: list[float],
    m: float = 1.0,
    a: float = 1.5,
    certify: bool = False,
) -> SweepResult:
    """Charts over a list of depths, with topology changes attributed.

    A requested depth within 1e-6 of a pair collision is nudged just past
    it (recorded on the entry) so trajectories do not stall at the
    degenerate point. Between consecutive depths whose topology differs,
    the bracketed critical depth is solved and attached.
    """
    entries = []
    for U_req in depths:
        near = _first_collision(channel, m, a, U_req - 1e-6, U_req + 1e-6)
        if near is not None:
            u_star = near[2]
            U_used = u_star + 1e-6 if U_req >= u_star else u_star - 1e-6
            nudged = True
        else:
            U_used, nudged = U_req, False
        spec = PotentialSpec(m=m, a=a, U=U_used)
        chart = build_chart(spec, channel, certify=certify)
        entries.append(SweepEntry(
            U_requested=U_req,
            U_used=U_used,
            nudged=nudged,
            topology=chart.topology,
            attractive_poles=chart.anchor_poles(0, working_window(spec)),
            warnings=chart.warnings,
        ))

    transitions = []
    for lo_e, hi_e in zip(entries, entries[1:]):
        if lo_e.topology == hi_e.topology:
            continue
        hit = _first_collision(channel, m, a, lo_e.U_used, hi_e.U_used)
        crit = None if hit is None else _verified_critical(channel, *hit, m, a)
        transitions.append(SweepTransition(
            u_below=lo_e.U_used, u_above=hi_e.U_used, critical=crit,
        ))
    return SweepResult(channel=channel, entries=entries, transitions=transitions)

