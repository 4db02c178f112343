"""Locating S-matrix poles: axis scans, Newton polish, winding counts.

Poles are zeros of the channel pole function (``pole_function``): the even
denominator, or the reduced odd form for the odd channel. Both are entire in
k, so the argument principle applies on any rectangle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as _k
from .errors import ConvergedElsewhere, EdgeTooClose, NoConvergence
from .smatrix import Channel, ComplexCoupling, PotentialSpec

TOL_AXIS = 1e-9
RESIDUAL_TOL = 1e-10
STEP_TOL = 1e-12
MAX_NEWTON = 50

# grid |phi| dip below this fraction of the segment scale marks a candidate
# tangency (double zero); candidates are then refined and value-tested
_DIP_FRACTION = 1e-4
_DOUBLE_RADIUS = 1e-3


class PoleKind(enum.Enum):
    BOUND = "bound"
    VIRTUAL = "virtual"
    RESONANCE = "resonance"
    ANTIRESONANCE = "antiresonance"
    THRESHOLD = "threshold"
    DOUBLE_ZERO = "double_zero"


@dataclass(frozen=True)
class Pole:
    """A refined zero of a channel pole function."""

    k: complex
    channel: Channel
    coupling: ComplexCoupling
    kind: PoleKind
    multiplicity: int
    residual: float

    def __post_init__(self):
        if self.multiplicity not in (1, 2):
            raise ValueError(f"multiplicity must be 1 or 2, got {self.multiplicity}")
        if (self.kind is PoleKind.DOUBLE_ZERO) != (self.multiplicity == 2):
            raise ValueError("kind double_zero exactly when multiplicity is 2")


def classify(k: complex, multiplicity: int = 1, tol_axis: float = TOL_AXIS) -> PoleKind:
    """Pole kind from its position in the k plane.

    On-axis kinds apply within tol_axis of the imaginary axis; a coalesced
    pair is always kind double_zero regardless of position.
    """
    if multiplicity == 2:
        return PoleKind.DOUBLE_ZERO
    if abs(k) < tol_axis:
        return PoleKind.THRESHOLD
    if abs(k.real) < tol_axis:
        return PoleKind.BOUND if k.imag > 0 else PoleKind.VIRTUAL
    return PoleKind.RESONANCE if k.real > 0 else PoleKind.ANTIRESONANCE


def _residual(k: complex, coupling: ComplexCoupling, spec: PotentialSpec, channel: Channel) -> float:
    d, dk = _k.denom_plain(k, coupling.gamma, spec.m, spec.a, spec.U, channel.code)
    return abs(d)


def newton_refine(
    k0: complex,
    coupling: ComplexCoupling,
    spec: PotentialSpec,
    channel: Channel,
    *,
    trust_radius: float | None = None,
    max_iter: int = MAX_NEWTON,
    with_multiplicity: bool = False,
) -> Pole:
    """Polish a pole estimate by complex Newton iteration.

    Raises NoConvergence when the step tolerance is not met within the
    iteration cap, and ConvergedElsewhere when a trust radius is given and
    the converged point lies outside it.
    """
    k, iters, ok = _k.newton_pole(
        complex(k0), coupling.gamma, spec.m, spec.a, spec.U, channel.code, STEP_TOL, max_iter
    )
    if not ok:
        raise NoConvergence(k, iters)
    if trust_radius is not None and abs(k - k0) > trust_radius:
        raise ConvergedElsewhere(k, complex(k0), trust_radius)
    mult = 1
    if with_multiplicity:
        mult = multiplicity_at(k, coupling, spec, channel)
    res = _residual(k, coupling, spec, channel)
    return Pole(
        k=k,
        channel=channel,
        coupling=coupling,
        kind=classify(k, mult),
        multiplicity=mult,
        residual=res,
    )


def default_kappa_range(spec: PotentialSpec) -> tuple[float, float]:
    """Axis scan range wide enough for every on-axis pole of the well."""
    r = 3.0 * math.sqrt(2.0 * spec.m * spec.U) + 5.0 / spec.a
    return (-r, r)


def _axis_phi_deriv(kappa: float, gamma: complex, spec: PotentialSpec, ch: int) -> float:
    d, dk, da, E = _k.denom_scaled(1j * kappa, gamma, spec.m, spec.a, spec.U, ch)
    if ch == _k.CH_PLUS:
        # phi = Re(-i d(i kappa)) => dphi/dkappa = Re(dk)
        return dk.real
    return -dk.imag


def _brentq(
    f, xa: float, xb: float, xtol: float = 1e-13, rtol: float = 1e-15, maxiter: int = 100
) -> float:
    """Root of f in the sign-change bracket [xa, xb] by Brent's method.

    A statement-for-statement port of ``scipy.optimize.brentq`` (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): the same
    interpolate, extrapolate and bisect rules and the same stopping test, so
    it returns the same float bit for bit. Division by an underflowed zero
    yields inf there, which always fails the short-step test and bisects.
    Raises ValueError on a NaN value or a same-sign bracket, RuntimeError
    when maxiter iterations do not converge.
    """

    def call(x: float) -> float:
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2*delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _scan_segment(
    lo: float,
    hi: float,
    coupling: ComplexCoupling,
    spec: PotentialSpec,
    channel: Channel,
    samples: int,
) -> tuple[list[float], list[float]]:
    """Bracketed sign-change roots and tangency candidates on [lo, hi].

    Returns (roots, candidates); candidates are grid local minima of |phi|
    that dip far below the segment scale without a sign change nearby.
    """
    gamma = coupling.gamma
    ch = channel.code
    kap = np.linspace(lo, hi, samples)
    phi = _k.axis_phi(kap, gamma, spec.m, spec.a, spec.U, ch)

    def phi_at(x: float) -> float:
        return float(_k.axis_phi(np.array([x]), gamma, spec.m, spec.a, spec.U, ch)[0])

    roots: list[float] = []
    sign_cells: list[int] = []
    s = np.sign(phi)
    for i in range(samples - 1):
        if s[i] == 0.0:
            roots.append(float(kap[i]))
            sign_cells.append(i)
        elif s[i] * s[i + 1] < 0.0:
            roots.append(_brentq(phi_at, kap[i], kap[i + 1]))
            sign_cells.append(i)
    if s[-1] == 0.0:
        roots.append(float(kap[-1]))
        sign_cells.append(samples - 1)

    seg_scale = float(np.abs(phi).max())
    cand: list[float] = []
    if seg_scale > 0.0:
        aphi = np.abs(phi)
        for i in range(1, samples - 1):
            if not (aphi[i] <= aphi[i - 1] and aphi[i] <= aphi[i + 1]):
                continue
            if aphi[i] > _DIP_FRACTION * seg_scale:
                continue
            if any(abs(i - j) <= 2 for j in sign_cells):
                continue
            cand.append(float(kap[i]))
    return roots, cand


def _refine_tangency(
    kappa0: float, coupling: ComplexCoupling, spec: PotentialSpec, channel: Channel
) -> float | None:
    """Newton on dphi/dkappa toward a stationary point; None if |phi| stays finite there."""
    gamma = coupling.gamma
    ch = channel.code
    kappa = kappa0
    h = 1e-6
    for _ in range(60):
        g = _axis_phi_deriv(kappa, gamma, spec, ch)
        g2 = (
            _axis_phi_deriv(kappa + h, gamma, spec, ch)
            - _axis_phi_deriv(kappa - h, gamma, spec, ch)
        ) / (2 * h)
        if g2 == 0.0:
            return None
        step = g / g2
        kappa -= step
        if abs(step) < 1e-13 * (1.0 + abs(kappa)):
            break
    else:
        return None
    d, dk = _k.denom_plain(1j * kappa, gamma, spec.m, spec.a, spec.U, ch)
    if abs(d) < RESIDUAL_TOL * (1.0 + abs(kappa)):
        return kappa
    return None


def scan_axis(
    spec: PotentialSpec,
    coupling: ComplexCoupling,
    channel: Channel,
    kappa_range: tuple[float, float] | None = None,
    samples_per_segment: int = 2000,
) -> list[Pole]:
    """All poles on the imaginary k axis (k = i*kappa) for a real coupling.

    The range splits at the interior-momentum regime boundaries
    kappa = +-sqrt(2 m gamma U) (attractive coupling only), each segment
    sampled densely, sign changes bracketed and Newton-polished. Grid
    tangencies (|phi| dipping to zero without a sign change) are refined to
    stationary points and reported as multiplicity-2 poles when the value
    vanishes there: that is a coalesced pole pair sitting on the axis.

    U = 0 is the free particle: its S-matrix is 1 and has no poles, so the
    scan returns an empty list (the even pole function degenerates to
    k*exp(-ika), whose k = 0 zero is removable in S).
    """
    if not coupling.is_real:
        raise ValueError("axis scan requires a real coupling (alpha a multiple of pi)")
    if spec.U == 0.0:
        return []
    lo, hi = kappa_range if kappa_range is not None else default_kappa_range(spec)
    if not lo < hi:
        raise ValueError(f"empty scan range ({lo}, {hi})")

    cuts = [lo, hi]
    if coupling.gamma.real > 0:
        kb = math.sqrt(2.0 * spec.m * coupling.gamma.real * spec.U)
        for c in (-kb, kb):
            if lo < c < hi:
                cuts.append(c)
    cuts = sorted(set(cuts))

    roots: list[float] = []
    cands: list[float] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        r, c = _scan_segment(a, b, coupling, spec, channel, samples_per_segment)
        roots.extend(r)
        cands.extend(c)

    poles: list[Pole] = []
    seen: list[float] = []

    def _push(kappa: float, mult: int):
        for s in seen:
            if abs(s - kappa) < 1e-7:
                return
        seen.append(kappa)
        k = 1j * kappa
        res = _residual(k, coupling, spec, channel)
        poles.append(
            Pole(
                k=k,
                channel=channel,
                coupling=coupling,
                kind=classify(k, mult),
                multiplicity=mult,
                residual=res,
            )
        )

    # merge bracketed roots that collapsed to one point: coalesced pair
    refined: list[float] = []
    for r in roots:
        p = newton_refine(1j * r, coupling, spec, channel, trust_radius=0.5)
        refined.append(p.k.imag)
    refined.sort()
    i = 0
    while i < len(refined):
        j = i
        while j + 1 < len(refined) and refined[j + 1] - refined[i] < 1e-7:
            j += 1
        kappa = refined[(i + j) // 2]
        if j > i:
            _push(kappa, multiplicity_at(1j * kappa, coupling, spec, channel))
        else:
            _push(kappa, 1)
        i = j + 1

    for c in cands:
        kappa = _refine_tangency(c, coupling, spec, channel)
        if kappa is None:
            continue
        mult = multiplicity_at(1j * kappa, coupling, spec, channel)
        if mult == 2:
            _push(kappa, 2)

    poles.sort(key=lambda p: p.k.imag)
    return poles


@dataclass(frozen=True)
class CountRegion:
    """Axis-aligned rectangle [lo, hi] in the k plane with evaluation context."""

    lo: complex
    hi: complex
    coupling: ComplexCoupling
    channel: Channel

    def __post_init__(self):
        if not (self.hi.real > self.lo.real and self.hi.imag > self.lo.imag):
            raise ValueError("region corners must satisfy hi > lo componentwise")


_EDGE_CLEARANCE = 1e-6
_EDGE_MAX_POINTS = 20000


def _edge_winding(
    z0: complex,
    z1: complex,
    coupling: ComplexCoupling,
    spec: PotentialSpec,
    channel: Channel,
) -> float:
    """Accumulated argument change of the pole function along segment z0->z1.

    Subdivides until every increment is below pi/2, so full turns cannot
    hide between samples. Raises EdgeTooClose when the Newton distance
    estimate |d/d'| drops below the clearance anywhere on the edge.
    """
    gamma = coupling.gamma
    ch = channel.code

    def evaluate(ts: np.ndarray) -> np.ndarray:
        ks = z0 + (z1 - z0) * ts
        d, dk = _k.grid_denom_dk(ks.astype(np.complex128), gamma, spec.m, spec.a, spec.U, ch)
        bad = np.abs(d) < _EDGE_CLEARANCE * np.abs(dk)
        if bad.any():
            raise EdgeTooClose(complex(ks[int(np.argmax(bad))]))
        return d

    ts = np.linspace(0.0, 1.0, 33)
    vals = evaluate(ts)
    while True:
        dargs = np.angle(vals[1:] / vals[:-1])
        coarse = np.abs(dargs) >= 0.5 * math.pi
        if not coarse.any():
            return float(np.sum(dargs))
        if ts.size > _EDGE_MAX_POINTS:
            raise EdgeTooClose(z0 + (z1 - z0) * float(ts[int(np.argmax(coarse))]))
        mids = 0.5 * (ts[:-1][coarse] + ts[1:][coarse])
        new_vals = evaluate(mids)
        order = np.argsort(np.concatenate([ts, mids]))
        ts = np.concatenate([ts, mids])[order]
        vals = np.concatenate([vals, new_vals])[order]


def count_zeros(region: CountRegion, spec: PotentialSpec) -> int:
    """Number of pole-function zeros inside the rectangle, with multiplicity.

    Argument-principle winding along the boundary; the integrand is entire,
    so the winding is exactly the zero count. Raises EdgeTooClose when a
    zero sits within ~1e-6 of the contour.
    """
    c0 = region.lo
    c2 = region.hi
    c1 = complex(c2.real, c0.imag)
    c3 = complex(c0.real, c2.imag)
    total = 0.0
    for a, b in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)):
        total += _edge_winding(a, b, region.coupling, spec, region.channel)
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) > 0.05:
        raise EdgeTooClose(c0, f"ambiguous winding {n:.6f} on {region}")
    return int(round(n))


def count_zeros_padded(
    region: CountRegion, spec: PotentialSpec, tries: int = 6, pad: float | None = None
) -> tuple[int, CountRegion]:
    """count_zeros with automatic outward nudging when an edge grazes a zero.

    Returns (count, region actually used). The nudge grows the rectangle, so
    the count can only gain zeros that sat on the original boundary.
    """
    step = pad if pad is not None else 1e-4 * max(
        region.hi.real - region.lo.real, region.hi.imag - region.lo.imag
    )
    r = region
    for attempt in range(tries):
        try:
            return count_zeros(r, spec), r
        except EdgeTooClose:
            if attempt == tries - 1:
                raise
            bump = step * (attempt + 1) * (1 + 1j)
            r = replace(r, lo=r.lo - bump, hi=r.hi + bump)
    raise AssertionError("unreachable")


def multiplicity_at(
    k: complex, coupling: ComplexCoupling, spec: PotentialSpec, channel: Channel
) -> int:
    """Zero multiplicity at a refined pole: 1 (simple) or 2 (coalesced pair).

    Counts zeros on a small box around k; multiplicity 2 requires the count
    to be 2 while every Newton start around k lands back on the same point,
    i.e. the two zeros are one coalesced pair, not near neighbours.
    """
    r = _DOUBLE_RADIUS
    region = CountRegion(
        lo=k - r * (1 + 1j), hi=k + r * (1 + 1j), coupling=coupling, channel=channel
    )
    try:
        n, _ = count_zeros_padded(region, spec, tries=4, pad=0.3 * r)
    except EdgeTooClose:
        return 1
    if n != 2:
        return 1
    # distinct-root probe: every converged restart must land within 1e-6 of
    # the candidate. A pair twice that far apart would be two resolvable
    # zeros; a coalesced pair can split by ~sqrt(eps) under parameter noise,
    # which stays inside this ball. Restarts that stall (Newton is linear at
    # an exact double zero) are inconclusive and do not veto.
    for dk in (r * 0.3, -r * 0.3, r * 0.3j, -r * 0.3j):
        kk, iters, ok = _k.newton_pole(
            k + dk, coupling.gamma, spec.m, spec.a, spec.U, channel.code, STEP_TOL, 80
        )
        if ok and abs(kk - k) > 1e-6:
            return 1
    return 2
