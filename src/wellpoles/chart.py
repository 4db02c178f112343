"""Pole charts: every trajectory of a well, plus depth transitions.

A chart gathers the axis poles of both real couplings (gamma = +1 and -1),
continues each through the full phase rotation, removes duplicate curves,
and certifies completeness by comparing a contour count over the working
momentum window against the poles the trajectories deliver back at the
attractive coupling.

Depth analysis lives here too: the critical depths where an axis pole pair
coalesces at k = -i/a (solved by bisection of the pole function restricted
to that point, then verified by a contour count), the closed-form bound
state thresholds, and sweeps that attribute topology changes between
consecutive depths to the transition they bracket.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .errors import (
    EdgeTooClose,
    ModelInvalid,
    NoConvergence,
    NoRootInBracket,
    StallAtDoubleZero,
)
from .rootfinder import (
    CountRegion,
    Pole,
    PoleKind,
    count_zeros_padded,
    newton_refine,
    scan_axis,
)
from .smatrix import Channel, ComplexCoupling, PotentialSpec, _phase_to_gamma
from .trajectory import (
    Closure,
    ClosureKind,
    CollisionEvent,
    StepControl,
    TraceCaps,
    Trajectory,
    branch_at_double_zero,
    combine,
    mirror_defect,
    trace,
    trace_branch,
)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi

# chart traces run further than single-trajectory defaults so that open
# curves deliver the whole working window before the cap
CHART_ALPHA_CAP = 40.0 * math.pi

_DEDUP_TOL = 1e-6
# wide enough to flag a 4-significant-digit rounding of a collision depth,
# narrow enough to stay quiet at every chart depth of interest (>= 2e-3 away)
_CRITICAL_WARN = 1e-4
_NEAR_CONTACT = 0.05


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
    spec: PotentialSpec
    channel: Channel
    seeds: list[Pole]
    trajectories: list[Trajectory]
    topology: dict[str, int]
    collisions: list[CollisionEvent]
    warnings: list[ChartWarning]
    near_contacts: list[NearContact]
    completeness: dict | None

    def anchor_poles(self, phase_class: int = 0, window: WorkingWindow | None = None) -> list[complex]:
        """Distinct poles delivered at anchors with index = phase_class (mod 4).

        phase_class 0 is the attractive coupling, 2 the repulsive one. A
        closed curve revisits its anchors every turn, so matching momenta
        are merged; the survivors are sorted by (Re, Im).
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
        return sorted(found, key=lambda z: (z.real, z.imag))

    def pole_count(self, phase_class: int = 0, window: WorkingWindow | None = None) -> int:
        """Pole count with multiplicity at a real coupling, window-filtered.

        A pair collision sitting at this coupling contributes two. Collision
        events recorded at every turn refer to the same degenerate pole, so
        they are merged by momentum before counting; the phase comparison
        allows the stall offset of a mid-trace split.
        """
        singles = self.anchor_poles(phase_class, window)
        count = len(singles)
        target = phase_class * HALF_PI
        event_ks: list[complex] = []
        for ev in self.collisions:
            rel = (ev.alpha - target) / TWO_PI
            if abs(rel - round(rel)) * TWO_PI > 5e-3:
                continue
            if window is not None and not window.contains(ev.k):
                continue
            if all(abs(ev.k - q) >= _DEDUP_TOL for q in event_ks):
                event_ks.append(ev.k)
        for q in event_ks:
            near = [s for s in singles if abs(s - q) < _DEDUP_TOL]
            count += 2 - len(near)
        return count


def _same_event(a: CollisionEvent, b: CollisionEvent) -> bool:
    """Stall offsets blur the phase of repeated splits at one collision."""
    return (
        abs(a.alpha - b.alpha) < 5e-3
        and abs(a.k - b.k) < _DEDUP_TOL
        and a.kind == b.kind
    )


def _critical_proximity(spec: PotentialSpec, channel: Channel) -> list[ChartWarning]:
    """Estimate the distance in depth to the nearest pair collision.

    The pole function at k = -i/a vanishes exactly at a critical depth; a
    first order step gives |U - U*| ~ |D| / |dD/dU| with dD/dU = D_alpha/(iU).
    """
    warnings = []
    if spec.U == 0.0:
        return warnings
    kc = -1j / spec.a
    for alpha, name in ((0.0, "attractive"), (math.pi, "repulsive")):
        gamma = _phase_to_gamma(alpha)
        d, dk, da, E = _k.denom_scaled(
            kc, gamma, spec.m, spec.a, spec.U, channel.code
        )
        du = da / (1j * spec.U)
        if abs(du) == 0.0:
            continue
        dist = abs(d) / abs(du)
        if dist < _CRITICAL_WARN:
            warnings.append(ChartWarning(
                code="critical_proximity",
                message=(
                    f"{name} coupling sits within {dist:.3e} of a pair "
                    f"collision depth; trajectories may stall at k=-i/a"
                ),
            ))
    return warnings


def _same_curve(a: Trajectory, b: Trajectory, tol: float = _DEDUP_TOL) -> bool:
    """Two traces describe one curve when their anchors coincide up to a
    whole number of coupling turns.

    The coupling is periodic in the phase, so a curve reseeded from a pole
    it reaches after full turns reappears translated by a multiple of four
    anchor indices; every admissible translation is tried.
    """
    amap, bmap = a.anchor_index_map(), b.anchor_index_map()
    if not amap or not bmap:
        return False
    lo = min(min(bmap) - max(amap), 0)
    hi = max(max(bmap) - min(amap), 0)
    for shift in range(4 * math.ceil(lo / 4), hi + 1, 4):
        common = [n for n in amap if n + shift in bmap]
        if len(common) < 2:
            continue
        if all(abs(amap[n] - bmap[n + shift]) < tol for n in common):
            return True
    return False


def _dedup(trajectories: list[Trajectory]) -> list[Trajectory]:
    kept: list[Trajectory] = []
    for traj in trajectories:
        for other in kept:
            if _same_curve(other, traj):
                other.merged_seeds.append(traj.seed)
                break
        else:
            kept.append(traj)
    return kept


def _near_contacts(trajectories: list[Trajectory]) -> list[NearContact]:
    contacts = []
    for i, a in enumerate(trajectories):
        amap = a.anchor_index_map()
        for b in trajectories[i + 1:]:
            bmap = b.anchor_index_map()
            for n in set(amap) & set(bmap):
                dist = abs(amap[n] - bmap[n])
                if dist < _NEAR_CONTACT:
                    contacts.append(NearContact(
                        alpha_index=n, k_first=amap[n],
                        k_second=bmap[n], distance=dist,
                    ))
    contacts.sort(key=lambda c: c.distance)
    return contacts


def _trace_both_ways(seed, spec, caps, control):
    fwd = trace(seed, +1, spec, caps, control)
    if fwd.closure.is_closed:
        return fwd
    bwd = trace(seed, -1, spec, caps, control)
    return combine(bwd, fwd)


def build_chart(
    spec: PotentialSpec,
    channel: Channel,
    caps: TraceCaps | None = None,
    control: StepControl | None = None,
    certify: bool = True,
) -> PoleChart:
    """Trace every pole trajectory of the well in one channel.

    Seeds come from axis scans at both real couplings; coalesced pairs are
    split into their emerging branches before tracing. Duplicate curves
    found from different seeds are merged. With certify=True the chart
    carries a completeness certificate comparing a contour count over the
    working window against the poles the trajectories return at the
    attractive coupling.
    """
    caps = caps or TraceCaps(alpha_cap=CHART_ALPHA_CAP)
    control = control or StepControl()
    warnings = _critical_proximity(spec, channel)

    seeds: list[Pole] = []
    for alpha in (0.0, math.pi):
        seeds.extend(scan_axis(spec, ComplexCoupling(alpha), channel))

    raw: list[Trajectory] = []
    collisions: list[CollisionEvent] = []
    for seed in seeds:
        if seed.multiplicity == 2:
            alpha_c = seed.coupling.alpha
            for direction in (+1, -1):
                event, branches = branch_at_double_zero(
                    alpha_c, spec, channel, direction
                )
                if not any(_same_event(ev, event) for ev in collisions):
                    collisions.append(event)
                for lbl, kb in branches:
                    raw.append(trace_branch(
                        seed, kb, alpha_c + direction * 1e-3, direction,
                        spec, caps, control, event=event,
                    ))
            continue
        raw.append(_trace_both_ways(seed, spec, caps, control))

    trajectories = _dedup(raw)
    for traj in trajectories:
        for ev in traj.collisions:
            if not any(_same_event(ev, e) for e in collisions):
                collisions.append(ev)

    topology = dict(Counter(t.closure.kind.value for t in trajectories))

    completeness = None
    if certify:
        completeness = _certify(spec, channel, trajectories, collisions, warnings)

    return PoleChart(
        spec=spec,
        channel=channel,
        seeds=seeds,
        trajectories=trajectories,
        topology=topology,
        collisions=collisions,
        warnings=warnings,
        near_contacts=_near_contacts(trajectories),
        completeness=completeness,
    )


def _certify(spec, channel, trajectories, collisions, warnings):
    window = working_window(spec)
    if spec.U == 0.0:
        return {
            "window": window,
            "window_count": 0,
            "trajectory_count": 0,
            "complete": True,
            "note": "zero depth has no poles",
        }
    chart_like = PoleChart(
        spec=spec, channel=channel, seeds=[], trajectories=trajectories,
        topology={}, collisions=collisions, warnings=[], near_contacts=[],
        completeness=None,
    )
    inventory = chart_like.anchor_poles(0, window)
    traj_count = chart_like.pole_count(0, window)
    region = CountRegion(
        lo=complex(-window.re_max, window.im_min),
        hi=complex(window.re_max, window.im_max),
        coupling=ComplexCoupling(0.0),
        channel=channel,
    )
    try:
        window_count, _ = count_zeros_padded(region, spec)
    except (EdgeTooClose, ValueError) as exc:
        warnings.append(ChartWarning(
            code="count_failed",
            message=f"window contour count failed: {exc}",
        ))
        window_count = -1
    return {
        "window": window,
        "window_count": window_count,
        "trajectory_count": traj_count,
        "inventory": inventory,
        "complete": window_count == traj_count,
    }


# -- depth analysis ----------------------------------------------------------


@dataclass(frozen=True)
class CriticalDepth:
    U: float
    k: complex
    channel: Channel
    attractive: bool
    index: int
    transition: str  # 'axis_to_plane' or 'plane_to_axis' as U increases
    pair_count: int  # contour count around k in a small box, should be 2


def _phi_at_collision(U: float, gamma: complex, m: float, a: float, channel: Channel) -> float:
    """Pole function at k = -i/a, restricted to its nonvanishing part.

    There the even channel value is purely imaginary and the odd channel
    value purely real, so a single real equation in depth remains.
    """
    kc = -1j / a
    d, dk = _k.denom_plain(kc, gamma, m, a, U, channel.code)
    return d.imag if channel is Channel.PLUS else d.real


def _collision_brackets(gamma, m, a, channel, u_lo, u_hi, samples=2400):
    us = np.linspace(u_lo, u_hi, samples)
    phis = np.array([_phi_at_collision(u, gamma, m, a, channel) for u in us])
    brackets = []
    for i in range(len(us) - 1):
        if phis[i] == 0.0:
            brackets.append((us[max(i - 1, 0)], us[i + 1]))
        elif phis[i] * phis[i + 1] < 0.0:
            brackets.append((us[i], us[i + 1]))
    return brackets


def _bisect_collision(gamma, m, a, channel, lo, hi, tol=1e-12, max_iter=200):
    flo = _phi_at_collision(lo, gamma, m, a, channel)
    fhi = _phi_at_collision(hi, gamma, m, a, channel)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoRootInBracket(f"no sign change in ({lo}, {hi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = _phi_at_collision(mid, gamma, m, a, channel)
        if fmid == 0.0 or (hi - lo) < tol * (1.0 + abs(mid)):
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _is_double_zero_depth(U, gamma, m, a, channel) -> bool:
    """A depth root is a pair collision only if the momentum derivative
    also vanishes at k = -i/a; a simple axis crossing fails this."""
    kc = -1j / a
    d, dk = _k.denom_plain(kc, gamma, m, a, U, channel.code)
    scale = 1.0 + abs(d) + abs(kc)
    return abs(dk) < 1e-8 * scale


def _transition_direction(U, gamma, m, a, channel) -> str:
    """Which side of the critical depth keeps the pair on the axis.

    Near the collision, (k - k_c)^2 = r * (U - U*) with
    r = -2 dD/dU / d2D/dk2; a negative square means the pair sits on the
    imaginary axis, so r > 0 puts the axis pair below U*.
    """
    kc = -1j / a
    h = 1e-5
    dp = _k.denom_scaled(kc + h, gamma, m, a, U, channel.code)
    dm = _k.denom_scaled(kc - h, gamma, m, a, U, channel.code)
    dkk = (_k.unscale(dp[1], dp[3]) - _k.unscale(dm[1], dm[3])) / (2.0 * h)
    d0, dk0, da0, E0 = _k.denom_scaled(kc, gamma, m, a, U, channel.code)
    du = _k.unscale(da0, E0) / (1j * U)
    r = -2.0 * du / dkk
    if abs(r.imag) > 1e-6 * abs(r):
        raise ModelInvalid(f"transition ratio not real: {r!r}")
    return "axis_to_plane" if r.real > 0.0 else "plane_to_axis"


def critical_depth(
    channel: Channel,
    attractive: bool,
    m: float = 1.0,
    a: float = 1.5,
    index: int = 1,
    u_max: float | None = None,
) -> CriticalDepth:
    """The index-th depth at which an axis pole pair coalesces at k = -i/a.

    Bisection of the collision-point pole function over depth, filtered to
    roots where the momentum derivative vanishes too, verified by a contour
    count of 2 around the collision point.
    """
    if index < 1:
        raise ValueError("index counts from 1")
    gamma = 1.0 + 0.0j if attractive else -1.0 + 0.0j
    if u_max is None:
        u_max = (((index + 1) * math.pi) ** 2 + 1.0) / (2.0 * m * a * a)
    found = []
    for lo, hi in _collision_brackets(gamma, m, a, channel, 1e-6, u_max):
        try:
            u_root = _bisect_collision(gamma, m, a, channel, lo, hi)
        except NoRootInBracket:
            continue
        if _is_double_zero_depth(u_root, gamma, m, a, channel):
            found.append(u_root)
        if len(found) >= index:
            break
    if len(found) < index:
        raise NoRootInBracket(
            f"only {len(found)} pair collisions below depth {u_max:.6g}"
        )
    u_star = found[index - 1]
    kc = -1j / a
    spec = PotentialSpec(m=m, a=a, U=u_star)
    coupling = ComplexCoupling(0.0 if attractive else math.pi)
    region = CountRegion(
        lo=kc - (1e-3 + 1e-3j), hi=kc + (1e-3 + 1e-3j),
        coupling=coupling, channel=channel,
    )
    pair, _ = count_zeros_padded(region, spec)
    return CriticalDepth(
        U=u_star,
        k=kc,
        channel=channel,
        attractive=attractive,
        index=index,
        transition=_transition_direction(u_star, gamma, m, a, channel),
        pair_count=pair,
    )


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


def bound_count(spec: PotentialSpec, channel: Channel) -> int:
    poles = scan_axis(spec, ComplexCoupling(0.0), channel)
    return sum(1 for p in poles if p.kind is PoleKind.BOUND)


def threshold_flip(
    channel: Channel,
    u_lo: float,
    u_hi: float,
    m: float = 1.0,
    a: float = 1.5,
    tol: float = 1e-6,
) -> float:
    """Bisect the depth at which the bound state count increments."""
    n_lo = bound_count(PotentialSpec(m=m, a=a, U=u_lo), channel)
    n_hi = bound_count(PotentialSpec(m=m, a=a, U=u_hi), channel)
    if n_lo == n_hi:
        raise NoRootInBracket(
            f"bound count {n_lo} does not change on ({u_lo}, {u_hi})"
        )
    while u_hi - u_lo > tol:
        mid = 0.5 * (u_lo + u_hi)
        if bound_count(PotentialSpec(m=m, a=a, U=mid), channel) == n_lo:
            u_lo = mid
        else:
            u_hi = mid
    return 0.5 * (u_lo + u_hi)


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
    u_below: float
    u_above: float
    critical: CriticalDepth | None
    description: str


@dataclass
class SweepResult:
    channel: Channel
    entries: list[SweepEntry]
    transitions: list[SweepTransition]


def _nearby_critical(channel, U, m, a):
    for attractive in (True, False):
        gamma = 1.0 + 0.0j if attractive else -1.0 + 0.0j
        lo = max(U - 1e-4, 1e-9)
        for blo, bhi in _collision_brackets(gamma, m, a, channel, lo, U + 1e-4, samples=64):
            try:
                u_root = _bisect_collision(gamma, m, a, channel, blo, bhi)
            except NoRootInBracket:
                continue
            if abs(u_root - U) < 1e-6 and _is_double_zero_depth(u_root, gamma, m, a, channel):
                return u_root
    return None


def depth_sweep(
    channel: Channel,
    depths: list[float],
    m: float = 1.0,
    a: float = 1.5,
    caps: TraceCaps | None = None,
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
        u_star = _nearby_critical(channel, U_req, m, a)
        if u_star is not None:
            U_used = u_star + 1e-6 if U_req >= u_star else u_star - 1e-6
            nudged = True
        else:
            U_used, nudged = U_req, False
        spec = PotentialSpec(m=m, a=a, U=U_used)
        chart = build_chart(spec, channel, caps=caps, certify=certify)
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
        crit = _bracketed_critical(channel, lo_e.U_used, hi_e.U_used, m, a)
        if crit is not None:
            desc = (
                f"pair collision at U={crit.U:.9g} "
                f"({'attractive' if crit.attractive else 'repulsive'}, "
                f"{crit.transition})"
            )
        else:
            desc = "topology change without a bracketed pair collision"
        transitions.append(SweepTransition(
            u_below=lo_e.U_used, u_above=hi_e.U_used,
            critical=crit, description=desc,
        ))
    return SweepResult(channel=channel, entries=entries, transitions=transitions)


def _bracketed_critical(channel, u_lo, u_hi, m, a):
    for attractive in (True, False):
        gamma = 1.0 + 0.0j if attractive else -1.0 + 0.0j
        for blo, bhi in _collision_brackets(gamma, m, a, channel, u_lo, u_hi, samples=256):
            try:
                u_root = _bisect_collision(gamma, m, a, channel, blo, bhi)
            except NoRootInBracket:
                continue
            if not _is_double_zero_depth(u_root, gamma, m, a, channel):
                continue
            kc = -1j / a
            spec = PotentialSpec(m=m, a=a, U=u_root)
            coupling = ComplexCoupling(0.0 if attractive else math.pi)
            region = CountRegion(
                lo=kc - (1e-3 + 1e-3j), hi=kc + (1e-3 + 1e-3j),
                coupling=coupling, channel=channel,
            )
            try:
                pair, _ = count_zeros_padded(region, spec)
            except EdgeTooClose:
                pair = -1
            return CriticalDepth(
                U=u_root, k=kc, channel=channel, attractive=attractive,
                index=0,
                transition=_transition_direction(u_root, gamma, m, a, channel),
                pair_count=pair,
            )
    return None
