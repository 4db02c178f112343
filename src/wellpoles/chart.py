"""Pole charts: every trajectory of a well, plus depth transitions.

A chart gathers the axis poles of both real couplings (gamma = +1 and -1),
continues each curve once through the phase rotation until it closes or
leaves a k window just past the working window's corners, and certifies
completeness by comparing a contour count over the working momentum window
against the poles the trajectories deliver back at the attractive coupling.
A curve that reaches the tracer's runaway phase guard instead fails the
certificate.

Depth analysis lives here too, on closed forms that ``rootfinder`` alone
states: the critical depths where an axis pole pair coalesces at k = -i/a
(``collision_depth``; see critical_depth), verified by the pair count that
``collision_pair_count`` takes once per collision and process; the depth
at which the bound state count steps, bisected with ``bound_count`` and
steered by ``count_step_depth``; and sweeps that attribute topology
changes between consecutive depths to the collision they bracket, found
by ``collisions_between``, with the same cached count. A sweep traces no
curve: each entry's topology is the closed-form count of
``collisions_between``, and its attractive poles are ``axis_momenta``'s
and ``off_axis_poles``' inside the working window, with no record built.
A certified sweep checks them with the chart's own window count and the
residual bound a traced seed must meet.

A chart in q = k*a depends on c = a sqrt(2 m U) alone (see _kernels), so
every tolerance here is stated in q or c, and every depth tolerance relative
to the collision depth U*; the results keep k and (m, a, U).
"""

from __future__ import annotations

import math
from collections import Counter

from ._record import Record
from .errors import EdgeTooClose, NoRootInBracket, StallAtDoubleZero
from .rootfinder import (
    Pole,
    axis_momenta,
    bound_count,
    bound_threshold,
    collision_depth,
    collision_pair_count,
    collisions_between,
    count_step_depth,
    count_zeros_padded,
    level_set_components,
    off_axis_poles,
    residual_ratio,
    scan_axis,
)
from .smatrix import Channel, ComplexCoupling, PotentialSpec, _anchor_index
from .trajectory import (
    CollisionEvent,
    ExitReason,
    Trajectory,
    branch_at_double_zero,
    trace,
    trace_branch,
    window_extents,
)

_DEDUP_TOL = 1e-6
# relative to U*: wide enough to flag a 4-significant-digit rounding of a
# collision depth, narrow enough to stay quiet at every chart depth of
# interest (>= 2e-3 away)
_CRITICAL_WARN = 1e-4
# relative to U*: a sweep depth this close to it is nudged
_NUDGE = 1e-6


def _inventory_key(q: complex) -> tuple[float, float]:
    return (0.0 if abs(q.real) < _DEDUP_TOL else q.real, q.imag)


def _dedup_cell(q: complex) -> tuple[int, int]:
    """The cell of side 2*_DEDUP_TOL holding q; the 3x3 about it hold q's ball."""
    side = 2.0 * _DEDUP_TOL
    return math.floor(q.real / side), math.floor(q.imag / side)


def _distinct(poles, a: float) -> list[complex]:
    """The poles k with those within _DEDUP_TOL of an earlier one in q
    merged into it, sorted by (Re, Im), with an axis pole (|Re q| <
    _DEDUP_TOL) taken at Re = 0 so that the sign of its roundoff real part
    does not decide its place. Each kept pole is filed by its
    ``_dedup_cell``, and a pole meets only those in the 3x3 cells about it."""
    filed: dict[tuple[int, int], list[complex]] = {}
    found: list[complex] = []
    for k in poles:
        i, j = cell = _dedup_cell(a * k)
        if all(a * abs(k - p) >= _DEDUP_TOL for di in (-1, 0, 1) for dj in (-1, 0, 1)
               for p in filed.get((i + di, j + dj), ())):
            filed.setdefault(cell, []).append(k)
            found.append(k)
    return sorted(found, key=lambda k: _inventory_key(a * k))


class WorkingWindow(Record):
    __slots__ = ("re_max", "im_min", "im_max")

    def __init__(self, re_max: float, im_min: float, im_max: float):
        self.re_max, self.im_min, self.im_max = re_max, im_min, im_max

    def contains(self, k: complex) -> bool:
        return (
            abs(k.real) <= self.re_max
            and self.im_min <= k.imag <= self.im_max
        )


def working_window(spec: PotentialSpec) -> WorkingWindow:
    """The certificate's window, trajectory.window_extents in q = k*a, given
    in k."""
    a = spec.a
    re_max, im_depth, im_max = window_extents(spec.c)
    return WorkingWindow(re_max=re_max / a, im_min=-im_depth / a, im_max=im_max / a)


class ChartWarning(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        self.code, self.message = code, message


class PoleChart(Record):
    """What tracing one well and channel found; the topology is read off
    the curves."""

    __slots__ = ("spec", "channel", "seeds", "trajectories", "collisions", "warnings",
                 "completeness")

    def __init__(self, spec: PotentialSpec, channel: Channel, seeds: list[Pole],
                 trajectories: list[Trajectory], collisions: list[CollisionEvent],
                 warnings: list[ChartWarning], completeness: dict | None):
        self.spec, self.channel, self.seeds, self.trajectories = (
            spec, channel, seeds, trajectories)
        self.collisions, self.warnings, self.completeness = collisions, warnings, completeness

    @property
    def topology(self) -> dict[str, int]:
        """The number of curves of each closure kind."""
        return dict(Counter(t.closure.kind.value for t in self.trajectories))

    def anchor_poles(self, phase_class: int = 0, window: WorkingWindow | None = None) -> list[complex]:
        """Distinct poles delivered at anchors with index = phase_class (mod 4).

        phase_class 0 is the attractive coupling, 2 the repulsive one. A
        closed curve revisits its anchors every turn, so they are merged as
        ``_distinct`` merges poles.
        """
        return _distinct((k for traj in self.trajectories for n, k in traj.anchors
                          if (n - phase_class) % 4 == 0
                          and (window is None or window.contains(k))), self.spec.a)


def _critical_proximity(spec: PotentialSpec, channel: Channel) -> list[ChartWarning]:
    """Warn when the depth lies within _CRITICAL_WARN*U* of a pair collision
    depth U*.

    The distance min |U - U*| is exact, taken over the closed-form collision
    depths of each real coupling.
    """
    warnings = []
    U = spec.U
    hits = collisions_between(
        channel, spec.m, spec.a, U / (1.0 + _CRITICAL_WARN), U / (1.0 - _CRITICAL_WARN))
    for attractive, name in ((True, "attractive"), (False, "repulsive")):
        near = [abs(U - u_star) for att, _, u_star in hits
                if att is attractive and abs(U - u_star) < _CRITICAL_WARN * u_star]
        if near:
            warnings.append(ChartWarning(
                code="critical_proximity",
                message=(
                    f"{name} coupling sits within {min(near):.3e} of a pair "
                    f"collision depth; trajectories may stall at k=-i/a"
                ),
            ))
    return warnings


def _claimed(traj: Trajectory | None, seed: Pole, n: int, k: complex) -> bool:
    """List seed with traj, its component's first kept curve, if traj delivers
    pole k at an anchor of index n (mod 4) within _DEDUP_TOL in q."""
    if traj is None or not any((m - n) % 4 == 0 and seed.a * abs(p - k) < _DEDUP_TOL
                              for m, p in traj.anchors):
        return False
    traj.merged_seeds.append(seed)
    return True


def build_chart(
    spec: PotentialSpec,
    channel: Channel,
    certify: bool = True,
) -> PoleChart:
    """Trace every pole trajectory of the well in one channel.

    Seeds come from axis scans at both real couplings; a coalesced pair is
    split into a collision event, the chart's one event at its phase (a loop
    that reaches the pair closes there), whose two labelled branches are
    each traced as a seed is; ``trace`` and ``trace_branch`` return whole
    curves. Each curve is traced once: a seed that the first kept curve of
    its level-set component (``level_set_components``) delivers at an
    anchor of its phase is listed in the curve's merged_seeds and not
    traced, and so is a branch, named by its start point, whose curve's
    first anchor past the pair that curve delivers (``_claimed``).
    With certify=True the chart carries a completeness certificate comparing
    a contour count over the working window against the poles the
    trajectories return at the attractive coupling.
    """
    warnings = _critical_proximity(spec, channel)

    seeds: list[Pole] = []
    for alpha in (0.0, math.pi):
        seeds.extend(scan_axis(spec, ComplexCoupling(alpha), channel))
    component_of = level_set_components(seeds, spec.c)

    trajectories: list[Trajectory] = []
    collisions: list[CollisionEvent] = []
    first: dict[int, Trajectory] = {}

    def keep(start: str, component: int, march, pair: int | None = None) -> None:
        try:
            traj = march()
        except StallAtDoubleZero as exc:
            # pairs next to a collision, which the march passes closer than
            # it resolves at its minimum step
            warnings.append(ChartWarning("trace_stalled", f"curve from {start} not traced: {exc}"))
            return
        # a split branch is named by its curve's first anchor past the pair
        # at index pair, off the pair; an axis seed was checked before it
        # was traced
        past = None if pair is None else next(((m, k) for m, k in traj.anchors if m > pair), None)
        if past and _claimed(first.get(component), traj.seed, *past):
            return
        first.setdefault(component, traj)
        trajectories.append(traj)

    for seed in seeds:
        alpha = seed.coupling.alpha
        n = _anchor_index(alpha)
        if seed.multiplicity == 2:
            event = branch_at_double_zero(seed, spec)
            collisions.append(event)
            for _, kb in event.branches:
                keep(f"split branch k={kb!r}", component_of(spec.a * kb, event.branch_alpha),
                     lambda kb=kb: trace_branch(seed, kb, spec), n)
            continue
        component = component_of(seed.q, alpha)
        if not _claimed(first.get(component), seed, n, seed.k):
            keep(f"axis pole k={seed.k!r}", component, lambda: trace(seed, +1, spec))

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


def _window_count(spec: PotentialSpec, channel: Channel) -> tuple[int | None, list[ChartWarning]]:
    """The contour count of the attractive coupling's poles in the working
    window, ``window_extents`` in q, or None with a ``count_failed`` warning
    that says why."""
    c = spec.c
    re_max, im_depth, im_max = window_extents(c)
    try:
        # zero depth has no poles; the even channel's one zero there is the
        # threshold at k = 0
        n = 0 if spec.U == 0.0 else count_zeros_padded(re_max, -im_depth, im_max, c * c, channel)
    except EdgeTooClose as exc:
        # the walk runs in q; the warning names the place at its k
        failure = f"window contour count failed near k={exc.where / spec.a!r}: {exc}"
    else:
        if n >= 0:
            return n, []
        # an entire function has no negative zero count
        failure = f"window contour count {n} is negative: the sampled winding aliased"
    return None, [ChartWarning(code="count_failed", message=failure)]


def _certify(chart: PoleChart) -> dict:
    spec = chart.spec
    window = working_window(spec)
    inventory = chart.anchor_poles(0, window)
    # an event at the attractive coupling is the coalesced pair at -i/a,
    # inside every working window (im_min < -1/a); it counts twice
    traj_count = len(inventory)
    if any(_anchor_index(ev.alpha) % 4 == 0 for ev in chart.collisions):
        a = spec.a
        traj_count += 2 - sum(abs(a * k + 1j) < _DEDUP_TOL for k in inventory)
    window_count, failed = _window_count(spec, chart.channel)
    chart.warnings.extend(failed)
    # a curve stopped by the runaway guard never left the window, so it may
    # hold window poles that no anchor delivered
    for traj in chart.trajectories:
        if traj.closure.reason is ExitReason.ALPHA_CAP:
            chart.warnings.append(ChartWarning(
                code="phase_guard",
                message=(f"curve from k={traj.seed.k!r} at alpha={traj.seed_alpha!r} "
                         f"reached the phase guard inside the trace window"),
            ))
    # a stalled or runaway curve is missing from the chart even where it
    # holds no pole of the window, so the counts cannot speak for it
    stalled = any(w.code in ("trace_stalled", "phase_guard") for w in chart.warnings)
    return {
        "window": window,
        "window_count": window_count,
        "trajectory_count": traj_count,
        "inventory": inventory,
        "complete": window_count == traj_count and not stalled,
    }


# -- depth analysis ----------------------------------------------------------


class CriticalDepth(Record):
    """A pair collision at k = -i/a; its transition, the way the pair moves
    as U increases, is read off the coupling (see critical_depth). Its
    pair_count is the contour count around k in a small box, which should
    be 2; None when the count fails."""

    __slots__ = ("U", "k", "channel", "attractive", "index", "pair_count")

    def __init__(self, U: float, k: complex, channel: Channel, attractive: bool, index: int,
                 pair_count: int | None):
        self.U, self.k, self.channel = U, k, channel
        self.attractive, self.index, self.pair_count = attractive, index, pair_count

    @property
    def transition(self) -> str:
        return "plane_to_axis" if self.attractive else "axis_to_plane"


def _verified_critical(channel, attractive, index, u_star, m, a) -> CriticalDepth:
    """The collision with its pair count, the one ``collision_pair_count``
    takes once per collision and process (None if uncountable)."""
    # a collision whose strength exceeds C_LIMIT raises here, as for any well
    PotentialSpec(m=m, a=a, U=u_star)
    return CriticalDepth(
        U=u_star,
        k=-1j / a,
        channel=channel,
        attractive=attractive,
        index=index,
        pair_count=collision_pair_count(channel, attractive, index),
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
    k = -i/a: ``collision_pair_count``, taken in q at c*^2 = x^2 +- 1,
    which is every well's count at its U* since the pole function in q
    depends on c alone. It is counted on the first request for each
    collision in a process and read from the cache after that.

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

    Raises ValueError for an index below 1, or an m or a that no
    ``PotentialSpec`` takes or at which U* is not finite.
    """
    if index < 1:
        raise ValueError("index counts from 1")
    u_star = collision_depth(channel, attractive, m, a, index)
    return _verified_critical(channel, attractive, index, u_star, m, a)


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
    not. The closed form only steers the halving: the depth at which the
    scan shows the state that enters next, the one the count at u_lo
    names, decides each midpoint, and no scan runs until the final
    bracket. Bisection rests on nothing more than those two facts about its
    final bracket, so where the count rises with U a certified result is
    the one a scan at every midpoint gives, bit for bit. Steering by the
    scan-visible depth rather than the threshold itself keeps the
    certificate from failing where the final bracket ends between the two.
    When the certificate fails, the halving is rerun from the original
    bracket with a scan at every midpoint.

    Each count places most cells in closed form (``bound_count``). On a
    final bracket next to the threshold the entering state's root lies
    within bound_count's reach of its cell's threshold point, so each of
    the two certifying counts solves that one root as ``scan_axis`` does
    (Newton on its cell's fixed-point form, then a polish in q), and the
    certificate rests on the scan's own polished kappa.

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
    # the depth at which the scan's count steps from n_lo; a midpoint on it
    # goes below, and the certificate tells which side of the scan's flip
    # it really lies on
    guess = count_step_depth(channel, n_lo, m, a)
    lo, hi = _bisect(lambda u: u <= guess, u_lo, u_hi, tol)
    if not (count(lo) == n_lo and count(hi) != n_lo):
        lo, hi = _bisect(lambda u: count(u) == n_lo, u_lo, u_hi, tol)
    return 0.5 * (lo + hi)


# -- depth sweeps ------------------------------------------------------------


class SweepEntry(Record):
    __slots__ = ("U_requested", "U_used", "nudged", "topology", "attractive_poles", "warnings")

    def __init__(self, U_requested: float, U_used: float, nudged: bool, topology: dict[str, int],
                 attractive_poles: list[complex], warnings: list[ChartWarning]):
        self.U_requested, self.U_used, self.nudged = U_requested, U_used, nudged
        self.topology, self.attractive_poles, self.warnings = topology, attractive_poles, warnings


class SweepTransition(Record):
    """A topology change between two consecutive sweep depths, the lower
    and the upper, and the collision they bracket, if any; the description
    is read off that collision."""

    __slots__ = ("u_below", "u_above", "critical")

    def __init__(self, u_below: float, u_above: float, critical: CriticalDepth | None):
        self.u_below, self.u_above, self.critical = u_below, u_above, critical

    @property
    def description(self) -> str:
        crit = self.critical
        if crit is None:
            return "topology change without a bracketed pair collision"
        side = "attractive" if crit.attractive else "repulsive"
        return f"pair collision at U={crit.U:.9g} ({side}, {crit.transition})"


class SweepResult(Record):
    __slots__ = ("channel", "entries", "transitions")

    def __init__(self, channel: Channel, entries: list[SweepEntry],
                 transitions: list[SweepTransition]):
        self.channel, self.entries, self.transitions = channel, entries, transitions


def _closed_form_topology(spec: PotentialSpec, channel: Channel) -> dict[str, int]:
    """A chart's topology without a curve: one open curve, a closed_4pi loop
    per attractive collision at or below U, and in the even channel a
    closed_2pi loop while U is at or below the repulsive collision (at it,
    the loop closes through the coalesced pair). Zero depth has no poles
    and no curves."""
    if spec.c == 0.0:
        return {}
    hits = collisions_between(channel, spec.m, spec.a, 0.0, spec.U)
    topology = {"open": 1}
    loops = sum(att for att, _, _ in hits)
    if loops:
        topology["closed_4pi"] = loops
    if channel is Channel.PLUS and all(att or u_star >= spec.U for att, _, u_star in hits):
        topology["closed_2pi"] = 1
    return topology


def _closed_form_inventory(spec: PotentialSpec, channel: Channel,
                           window: WorkingWindow) -> list[complex]:
    """A chart's anchor_poles(0, window) without a curve: the attractive
    coupling's axis poles, the k of ``scan_axis``'s records read without
    them (``axis_momenta``), and plane pairs (``off_axis_poles``) inside
    the window, in anchor_poles' order."""
    poles = axis_momenta(spec, ComplexCoupling(0.0), channel)
    poles += off_axis_poles(spec, channel, window_extents(spec.c)[0])
    a = spec.a
    return sorted((k for k in poles if window.contains(k)), key=lambda k: _inventory_key(a * k))


def _closed_form_certificate(spec: PotentialSpec, channel: Channel,
                              poles: list[complex]) -> list[ChartWarning]:
    """What keeps a sweep entry's closed-form poles from being certified:
    a window count that fails or differs from their number, merged as
    anchor_poles merges, or poles above the residual bound that a traced
    seed must meet (one ``pole_residual`` warning for all of them)."""
    count, warnings = _window_count(spec, channel)
    distinct = len(_distinct(poles, spec.a))
    if count is not None and count != distinct:
        warnings.append(ChartWarning(
            "incomplete", f"window contour count {count} against {distinct} closed-form poles"))
    c = spec.c
    ratios = [(residual_ratio(spec.a * k, c * c, channel), k) for k in poles]
    failing = [r for r in ratios if not r[0] < 1.0]
    if failing:
        ratio, k = max(failing, key=lambda r: r[0])
        warnings.append(ChartWarning("pole_residual", (
            f"{len(failing)} of {len(poles)} closed-form poles miss the residual bound; "
            f"the worst, k={k!r}, by a factor {ratio:.3e}")))
    return warnings


def depth_sweep(
    channel: Channel,
    depths: list[float],
    m: float = 1.0,
    a: float = 1.5,
    certify: bool = False,
) -> SweepResult:
    """Topology and attractive poles over a list of depths, with topology
    changes attributed.

    A requested depth within _NUDGE*U* of a pair collision depth U* is
    nudged just past it (recorded on the entry), off the degenerate point.
    Each entry holds a chart's topology and its anchor_poles(0) in the
    working window, in closed form: one open curve, a closed_4pi loop per
    attractive collision below the depth and, in the even channel, a
    closed_2pi loop while the depth is below the repulsive one; the axis
    poles of ``axis_momenta`` and one Newton solve per cell whose pair is off
    the axis (``off_axis_poles``). No curve is traced. Between consecutive
    depths whose topology differs, in either order, the collision depth
    they bracket is attached, with the pair count ``critical_depth`` reads
    (counted once per collision).

    An entry's one possible warning is the chart's ``critical_proximity``.
    With certify=True it is also certified, with the same values: the
    window count that certifies a chart must equal the number of distinct
    closed-form poles (``incomplete`` otherwise, ``count_failed`` where the
    count fails), and each pole must meet the residual bound that ``trace``
    demands of a seed (``pole_residual``).

    A depth no well has (negative, not finite, or so deep that c
    overflows) raises ValueError before any collision lookup.
    """
    entries = []
    for U_req in depths:
        spec = PotentialSpec(m=m, a=a, U=U_req)
        near = collisions_between(channel, m, a, U_req / (1.0 + _NUDGE), U_req / (1.0 - _NUDGE))
        U_used, nudged = U_req, bool(near)
        if near:
            u_star = near[0][2]
            U_used = u_star * (1.0 + _NUDGE if U_req >= u_star else 1.0 - _NUDGE)
            spec = PotentialSpec(m=m, a=a, U=U_used)
        window = working_window(spec)
        poles = _closed_form_inventory(spec, channel, window)
        warnings = _critical_proximity(spec, channel)
        if certify:
            warnings += _closed_form_certificate(spec, channel, poles)
        entries.append(SweepEntry(
            U_requested=U_req,
            U_used=U_used,
            nudged=nudged,
            topology=_closed_form_topology(spec, channel),
            attractive_poles=poles,
            warnings=warnings,
        ))

    transitions = []
    for prev, entry in zip(entries, entries[1:]):
        if prev.topology == entry.topology:
            continue
        u_below, u_above = sorted((prev.U_used, entry.U_used))
        hits = collisions_between(channel, m, a, u_below, u_above)
        crit = _verified_critical(channel, *hits[0], m, a) if hits else None
        transitions.append(SweepTransition(u_below=u_below, u_above=u_above, critical=crit))
    return SweepResult(channel=channel, entries=entries, transitions=transitions)
