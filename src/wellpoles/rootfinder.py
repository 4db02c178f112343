"""Locating S-matrix poles: axis poles, Newton polish, winding counts.

Poles are zeros of the channel pole function (``pole_function``): the even
denominator, or the reduced odd form for the odd channel. Both are entire in
k, so the argument principle applies on any rectangle.

On the imaginary axis at a real coupling the poles are known in closed
form: with x = aK the interior momentum, each solves x/|cos x| = c or
x/|sin x| = c (y/cosh y or y/sinh y for imaginary K), c = a sqrt(2 m U).
``scan_axis`` enumerates them cell by cell with exact brackets; nothing
is sampled.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, replace

from . import _kernels as _k
from .errors import ConvergedElsewhere, EdgeTooClose, NoConvergence, NoRootInBracket
from .smatrix import Channel, ComplexCoupling, PotentialSpec

TOL_AXIS = 1e-9
RESIDUAL_TOL = 1e-10
STEP_TOL = 1e-12
MAX_NEWTON = 50

# an axis pair this close to its collision point k = -i/a, in units of
# max(1, x_c/a), is one coalesced pair there: at a float collision depth the
# pair offset grows as x_c/a, so this is a fixed relative tolerance on depth
_PAIR_BALL = 1e-6


class PoleKind(enum.Enum):
    BOUND = "bound"
    VIRTUAL = "virtual"
    RESONANCE = "resonance"
    ANTIRESONANCE = "antiresonance"
    THRESHOLD = "threshold"
    DOUBLE_ZERO = "double_zero"


@dataclass(frozen=True)
class Pole:
    """A refined zero of a channel pole function; its kind is ``classify``'s
    reading of its position and multiplicity."""

    k: complex
    channel: Channel
    coupling: ComplexCoupling
    multiplicity: int
    residual: float

    def __post_init__(self):
        if self.multiplicity not in (1, 2):
            raise ValueError(f"multiplicity must be 1 or 2, got {self.multiplicity}")

    @property
    def kind(self) -> PoleKind:
        return classify(self.k, self.multiplicity)


def classify(k: complex, multiplicity: int = 1) -> PoleKind:
    """Pole kind from its position in the k plane.

    On-axis kinds apply within TOL_AXIS of the imaginary axis; a coalesced
    pair is always kind double_zero regardless of position.
    """
    if multiplicity == 2:
        return PoleKind.DOUBLE_ZERO
    if abs(k) < TOL_AXIS:
        return PoleKind.THRESHOLD
    if abs(k.real) < TOL_AXIS:
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
) -> Pole:
    """Polish a pole estimate by complex Newton iteration.

    Raises NoConvergence when the step tolerance is not met within the
    iteration cap, and ConvergedElsewhere when a trust radius is given and
    the converged point lies outside it.
    """
    k, iters, ok, _ = _k.newton_pole(
        complex(k0), coupling.gamma, spec.m, spec.a, spec.U, channel.code, STEP_TOL, max_iter
    )
    if not ok:
        raise NoConvergence(k, iters)
    if trust_radius is not None and abs(k - k0) > trust_radius:
        raise ConvergedElsewhere(k, complex(k0), trust_radius)
    res = _residual(k, coupling, spec, channel)
    return Pole(
        k=k,
        channel=channel,
        coupling=coupling,
        multiplicity=1,
        residual=res,
    )


def _brentq(
    f, xa: float, xb: float, xtol: float = 1e-13, rtol: float = 1e-15, maxiter: int = 100,
    fa: float | None = None, fb: float | None = None,
) -> float:
    """Root of f in the sign-change bracket [xa, xb] by Brent's method.

    A statement-for-statement port of ``scipy.optimize.brentq`` (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): the same
    interpolate, extrapolate and bisect rules and the same stopping test, so
    it returns the same float bit for bit. Division by an underflowed zero
    yields inf there, which always fails the short-step test and bisects.
    fa and fb, when given, are f(xa) and f(xb) as the caller already has
    them; f is then not called at that end, and since f is a function of x
    alone the iterates are the same. Raises ValueError on a NaN value (a
    given end value included) or a same-sign bracket, RuntimeError when
    maxiter iterations do not converge.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # signs are compared as (f < 0) on values that are neither zero nor
    # nan, where that is scipy's copysign test
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2*delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abis = abs(sbis)
        if fcur == 0.0 or abis < delta:
            return xcur
        aspre = abs(spre)
        if aspre > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            reach = 3 * abis - delta
            if 2 * abs(stry) < (reach if reach < aspre else aspre):
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
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@functools.lru_cache(maxsize=None)
def collision_x(channel: Channel, attractive: bool, index: int) -> float:
    """x_c = a|K_c| of the index-th pair collision on the imaginary k axis.

    A pair collides at k = -i/a where the axis ratio of ``_axis_cells`` is
    stationary. The index-th stationary point solves

        even, attractive:  x tan x = -1 on ((i - 1/2) pi, i pi), as cos x + x sin x = 0
        odd, attractive:   tan x = x    on (i pi, (i + 1/2) pi), as sin x - x cos x = 0
        even, repulsive:   y tanh y = 1 on (1, 2), as cosh y - y sinh y = 0

    Each interval holds exactly one root, so the index counts collisions by
    rising depth. The even repulsive collision is the only one (index 1);
    the odd repulsive coupling has none. Both raise NoRootInBracket.

    A pure function of its arguments, so each root is solved once per
    process and cached.
    """
    if attractive:
        if channel is Channel.PLUS:
            return _brentq(lambda t: math.cos(t) + t * math.sin(t),
                           (index - 0.5) * math.pi, index * math.pi)
        return _brentq(lambda t: math.sin(t) - t * math.cos(t),
                       index * math.pi, (index + 0.5) * math.pi)
    if channel is Channel.PLUS and index == 1:
        return _brentq(lambda t: math.cosh(t) - t * math.sinh(t), 1.0, 2.0)
    raise NoRootInBracket(f"no pair collision of index {index} at gamma = -1")


# axis ratios x/|cos x|, x/|sin x| (real K) and y/cosh y, y/sinh y (imaginary
# K), the last two in exp(-y) form so that they never overflow
def _x_sec(x: float) -> float:
    return x / abs(math.cos(x))


def _x_csc(x: float) -> float:
    return x / abs(math.sin(x)) if x else 1.0


def _y_sech(y: float) -> float:
    e = math.exp(-y)
    return 2.0 * y * e / (1.0 + e * e)


def _y_csch(y: float) -> float:
    return 2.0 * y * math.exp(-y) / -math.expm1(-2.0 * y) if y else 1.0


# a*kappa at a root x of each ratio: k = i K tan(aK) (even), -i K cot(aK) (odd)
def _x_tan(x: float) -> float:
    return x * math.tan(x)


def _neg_x_cot(x: float) -> float:
    return -x / math.tan(x) if x else -1.0


def _neg_y_tanh(y: float) -> float:
    return -y * math.tanh(y)


def _neg_y_coth(y: float) -> float:
    return -y / math.tanh(y) if y else -1.0


def _axis_cells(c: float, attractive: bool, odd: bool) -> list[tuple]:
    """Every cell of x = a|K| that holds axis poles at c = a sqrt(2 m U).

    Entries are (ratio, a_kappa, lo, x_c, hi). The cell's poles solve
    ratio(x) = c on [lo, hi] and sit at k = i a_kappa(x) / a. x_c is the
    cell's one stationary point of ratio, where its pair collides; with
    x_c None, ratio is monotone on the cell and crosses c exactly once.

        even, attractive:  x/|cos x|, cell [0, pi/2], then ((n - 1/2) pi, (n + 1/2) pi)
        odd, attractive:   y/sinh y for c < 1, else x/|sin x| on [0, pi];
                           then (n pi, (n + 1) pi)
        even, repulsive:   y/cosh y, rising to y_c and falling after
        odd, repulsive:    no cells

    In a cell with a stationary point an attractive ratio stays above
    sqrt(x_c^2 + 1) > x_c > lo, so the cells stop once lo reaches c.
    """
    if not attractive:
        if odd:
            return []
        yc = collision_x(Channel.PLUS, False, 1)
        hi = 2.0 * yc
        while _y_sech(hi) >= c:
            hi *= 2.0
        return [(_y_sech, _neg_y_tanh, 0.0, yc, hi)]
    if not odd:
        cells = [(_x_sec, _x_tan, 0.0, None, 0.5 * math.pi)]
        n = 1
        while (n - 0.5) * math.pi < c:
            cells.append((_x_sec, _x_tan, (n - 0.5) * math.pi,
                          collision_x(Channel.PLUS, True, n), (n + 0.5) * math.pi))
            n += 1
        return cells
    if c < 1.0:
        hi = 1.0
        while _y_csch(hi) >= c:
            hi *= 2.0
        cells = [(_y_csch, _neg_y_coth, 0.0, None, hi)]
    else:
        cells = [(_x_csc, _neg_x_cot, 0.0, None, math.pi)]
    n = 1
    while n * math.pi < c:
        cells.append((_x_csc, _neg_x_cot, n * math.pi,
                      collision_x(Channel.MINUS, True, n), (n + 1) * math.pi))
        n += 1
    return cells


def _pair_ball(xc: float, a: float) -> float:
    """The coalescence radius about k = -i/a of a cell with collision point x_c."""
    return _PAIR_BALL * max(1.0, xc / a)


def _pair_offset(xc: float, rc: float, c: float, a: float) -> float:
    """Distance from k = -i/a of the pair of a cell with collision point x_c.

    rc is the cell's ratio at x_c. There the ratio's second derivative is rc
    and |d kappa/dx| is x_c/a, so the pair sits x_c/a * sqrt(2|rc - c|/rc)
    from k = -i/a: on the axis when c passes rc, mirrored off it otherwise.
    """
    return xc / a * math.sqrt(2.0 * abs(rc - c) / rc)


def _axis_roots(
    spec: PotentialSpec, coupling: ComplexCoupling, channel: Channel, bound_only: bool = False
) -> list[tuple[float, int]]:
    """(kappa, multiplicity) of every pole on the imaginary axis k = i*kappa
    at a real coupling, in cell order; the enumeration behind ``scan_axis``
    and ``chart.bound_count``.

    The poles are enumerated in closed form over the cells of the interior
    momentum (``_axis_cells``; Nussenzveig, Nucl. Phys. 11 (1959) 499). A
    cell with a collision point x_c holds 0, 1 or 2 roots, split at x_c, so
    every root has an exact Brent bracket, and Brent reuses the ratio values
    at lo and x_c that decide the split. Each root is mapped to kappa and
    Newton-polished in k; the polished kappa is Im k.

    When the cell's pair lies within ``_pair_ball`` of its collision point
    k = -i/a (``_pair_offset``), the cell gives one coalesced pair there
    instead, as kappa = -1/a with multiplicity 2.

    U = 0 is the free particle: its S-matrix is 1 and has no poles, so
    there are no roots (the even pole function degenerates to
    k*exp(-ika), whose k = 0 zero is removable in S).

    With bound_only, the roots that their cell alone places at kappa < 0
    are not solved, for a count of bound states: every root of an
    imaginary-K cell (a*kappa = -y coth y or -y tanh y), and the root at or
    below a collision point x_c, where a*kappa = x tan x or -x cot x rises
    to -1 at x_c. Newton's polish starts on such a root's bracketed value
    and converges to it, so it too stays at kappa < 0.
    """
    if not coupling.is_real:
        raise ValueError("axis scan requires a real coupling (alpha a multiple of pi)")
    if spec.U == 0.0:
        return []
    a = spec.a
    c = a * math.sqrt(2.0 * spec.m * spec.U)
    roots: list[tuple[float, int]] = []
    for ratio, a_kappa, lo, xc, hi in _axis_cells(
        c, coupling.gamma.real > 0, channel is Channel.MINUS
    ):
        if bound_only and a_kappa in (_neg_y_coth, _neg_y_tanh):
            continue

        def f(x: float, ratio=ratio) -> float:
            return ratio(x) - c

        if xc is None:
            xs = [_brentq(f, lo, hi)]
        else:
            rc = ratio(xc)
            if _pair_offset(xc, rc, c, a) < _pair_ball(xc, a):
                roots.append((-1.0 / a, 2))
                continue
            fc = rc - c
            if fc == 0.0:
                xs = [] if bound_only else [xc]
            else:
                flo = f(lo)
                if (fc > 0.0) == (flo > 0.0):
                    xs = []
                elif bound_only:
                    xs = [_brentq(f, xc, hi, fa=fc)]
                else:
                    xs = [_brentq(f, lo, xc, fa=flo, fb=fc), _brentq(f, xc, hi, fa=fc)]
        for x in xs:
            kappa = a_kappa(x) / a
            k, _, ok, _ = _k.newton_pole(
                1j * kappa, coupling.gamma, spec.m, spec.a, spec.U, channel.code,
                STEP_TOL, MAX_NEWTON,
            )
            # without convergence, where d's slope is tiny against its terms
            # (a pair next to its collision) and Newton stalls, the
            # bracketed root is the better value
            if ok:
                if abs(k - 1j * kappa) > 0.5:
                    raise ConvergedElsewhere(k, 1j * kappa, 0.5)
                kappa = k.imag
            roots.append((kappa, 1))
    return roots


def scan_axis(spec: PotentialSpec, coupling: ComplexCoupling, channel: Channel) -> list[Pole]:
    """All poles on the imaginary k axis (k = i*kappa) for a real coupling.

    Each root of ``_axis_roots`` becomes a ``Pole`` at k = i*kappa with the
    residual |d| there; a coalesced pair is one multiplicity-2 pole at
    k = -i/a. The poles are sorted by kappa; at U = 0 there are none.
    """
    poles = []
    for kappa, mult in _axis_roots(spec, coupling, channel):
        k = 1j * kappa
        poles.append(Pole(
            k=k,
            channel=channel,
            coupling=coupling,
            multiplicity=mult,
            residual=_residual(k, coupling, spec, channel),
        ))
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
# an edge's base samples, at t = i/32 along it
_EDGE_TS = tuple(i / 32 for i in range(33))


def _edge_winding(
    z0: complex,
    z1: complex,
    coupling: ComplexCoupling,
    spec: PotentialSpec,
    channel: Channel,
    base: tuple[float, ...] = _EDGE_TS,
) -> float:
    """Accumulated argument change of the pole function along z0 + (z1 - z0) t.

    The walk runs over t from base[0] to base[-1], starting from the base
    samples: the whole segment by default, one half of it in the half walk
    of ``count_zeros``. Subdivides until every sampled increment, the
    principal value of arg(d1/d0) between neighbouring samples, is below
    pi/2. That bounds only what the samples show: a true increment near a
    full turn reads as a small principal value, is not refined, and drops
    out of the sum, so the result can miss whole turns between samples.
    Raises EdgeTooClose when the Newton distance estimate |d/d'| drops
    below the clearance at a sample.
    """
    gamma = coupling.gamma
    ch = channel.code
    dz = z1 - z0

    def evaluate(ts: list[float]) -> list[complex]:
        ks = [z0 + dz * t for t in ts]
        ds, dks = _k.grid_denom_dk(ks, gamma, spec.m, spec.a, spec.U, ch)
        for k, d, dk in zip(ks, ds, dks):
            if abs(d) < _EDGE_CLEARANCE * abs(dk):
                raise EdgeTooClose(k)
        return ds

    ts = list(base)
    vals = evaluate(ts)
    while True:
        dargs = [cmath.phase(v1 / v0) for v0, v1 in zip(vals, vals[1:])]
        coarse = [i for i, s in enumerate(dargs) if abs(s) >= 0.5 * math.pi]
        if not coarse:
            return sum(dargs)
        if len(ts) > _EDGE_MAX_POINTS:
            raise EdgeTooClose(z0 + dz * ts[coarse[0]])
        mids = [0.5 * (ts[i] + ts[i + 1]) for i in coarse]
        merged = sorted(zip(ts + mids, vals + evaluate(mids)), key=lambda p: p[0])
        ts = [t for t, _ in merged]
        vals = [v for _, v in merged]


def count_zeros(region: CountRegion, spec: PotentialSpec) -> int:
    """Number of pole-function zeros inside the rectangle, with multiplicity.

    Argument-principle winding along the boundary (Delves & Lyness, Math.
    Comp. 21 (1967) 543). The integrand is entire, so the true winding is
    the zero count. The sampled winding equals it only under an assumption
    that ``_edge_winding`` does not check: every sampled argument step below
    pi/2 is the true step between its samples. Where that fails, whole
    turns drop out of the sum. An entire function has no negative zero
    count, so a negative result proves such aliasing. Raises EdgeTooClose
    when a zero sits within ~1e-6 of the contour.

    At a real coupling the pole function obeys d(-conj k) = -conj d(k)
    (even channel) or +conj d(k) (odd channel). On a rectangle symmetric
    about the imaginary axis (lo.real == -hi.real) the left half of the
    boundary is then the mirror image of the right half, walked backward,
    and winds by exactly as much. So only the right half is walked, from
    Re k = 0 on the bottom edge, up the right edge and back to Re k = 0 on
    the top edge, on the right-half samples of the four-edge walk, and its
    winding is doubled. Any other rectangle, or a complex coupling, is
    walked along all four edges.
    """
    c0 = region.lo
    c2 = region.hi
    c1 = complex(c2.real, c0.imag)
    c3 = complex(c0.real, c2.imag)
    if region.coupling.is_real and c0.real == -c2.real:
        edges = ((c0, c1, _EDGE_TS[16:]), (c1, c2, _EDGE_TS), (c2, c3, _EDGE_TS[:17]))
        copies = 2.0
    else:
        edges = ((c0, c1, _EDGE_TS), (c1, c2, _EDGE_TS), (c2, c3, _EDGE_TS), (c3, c0, _EDGE_TS))
        copies = 1.0
    total = 0.0
    for a, b, base in edges:
        total += _edge_winding(a, b, region.coupling, spec, region.channel, base)
    n = copies * total / (2.0 * math.pi)
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
    """Zero multiplicity at a pole: 2 (coalesced pair) or 1 (simple).

    A pair coalesces only at k = -i/a, at a real coupling, and only at the
    closed-form collision depths (see ``collision_x``). So multiplicity 2
    needs a real coupling and an axis cell whose pair lies within its
    ``_pair_ball`` of -i/a (``_pair_offset``), the test ``scan_axis``
    makes, with k inside that ball too.
    """
    a = spec.a
    if not coupling.is_real or spec.U == 0.0:
        return 1
    c = a * math.sqrt(2.0 * spec.m * spec.U)
    for ratio, _, _, xc, _ in _axis_cells(c, coupling.gamma.real > 0, channel is Channel.MINUS):
        if xc is not None:
            ball = _pair_ball(xc, a)
            if abs(k + 1j / a) < ball and _pair_offset(xc, ratio(xc), c, a) < ball:
                return 2
    return 1
