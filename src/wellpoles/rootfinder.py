"""Locating S-matrix poles: axis poles, Newton polish, winding counts.

Poles are zeros of the channel pole function: ``smatrix.denom_plus``, or
the reduced odd form ``denom_minus_reduced`` in the odd channel. Both are
entire in k, so the argument principle counts them (``count_zeros``).

Below the public functions everything runs in q = k*a at the strength
c = a sqrt(2 m U) (see ``_kernels``), with every tolerance in q: TOL_AXIS
bounds a*kappa and a*|Re k| (``on_axis``), and no other module reads it.
Each Newton polish is ``_kernels.newton_pole`` at its own step tolerance,
within MAX_NEWTON. The public functions take and return k, except the
contour count, which takes its rectangle in q and the coupling as s.

On the imaginary axis at a real coupling the poles are known in closed
form: with x = aK the interior momentum, each solves x = c|cos x| or
x = c|sin x| (y = c cosh y or y = c sinh y for imaginary K).
``_axis_roots`` enumerates them cell by cell of ``_axis_cells`` with exact
brackets, for ``scan_axis``'s records and ``axis_momenta``'s bare k;
nothing is sampled: ``_bracketed_newton`` solves each root on its cell's
fixed-point form, which has no pole at a cell end. The bound states enter
at k = 0 at closed-form threshold points of the same cells
(``bound_threshold``), and ``bound_count`` reads most cells' bound roots
off those points without a solve, drawing the one root it cannot place
from the scan's own per-cell solver, ``_cell_roots``; the scan shows a new
state a TOL_AXIS band past its threshold (``count_step_depth``). The pairs
collide at q = -i at the closed-form strengths c*^2 = x_c^2 +- 1 of
``_collision_c2`` (``collision_x``, ``collision_depth``, and in a depth
band ``collisions_between``), so each collision's pair count depends on
(channel, coupling, index) alone and is counted once per process
(``collision_pair_count``). Below its collision strength a cell's pair
lies off the axis, and ``off_axis_poles`` finds it at the attractive
coupling with one Newton solve per cell. A closed-form depth
U = c^2/(2 m a^2) that is not a finite float raises ValueError
(``_depth``).
"""

from __future__ import annotations

import bisect
import cmath
import enum
import functools
import math
from collections.abc import Callable, Iterator

from . import _kernels as _k
from ._record import Record
from .errors import ConvergedElsewhere, EdgeTooClose, NoConvergence, NoRootInBracket
from .smatrix import Channel, ComplexCoupling, PotentialSpec, _check_well, _phase_to_gamma

TOL_AXIS = 1e-9
RESIDUAL_TOL = 1e-10
MAX_NEWTON = 50
# count_zeros_padded's tries, and its outward nudge per try as a fraction
# of the rectangle's longer side
_PAD_TRIES = 6
_PAD_FRACTION = 1e-4

# an axis pair this close to its collision point q = -i, in units of x_c,
# is one coalesced pair there: at a float collision depth the pair offset
# grows as x_c, so this is a fixed relative tolerance on depth
_PAIR_BALL = 1e-6


class PoleKind(enum.Enum):
    BOUND = "bound"
    VIRTUAL = "virtual"
    RESONANCE = "resonance"
    ANTIRESONANCE = "antiresonance"
    THRESHOLD = "threshold"
    DOUBLE_ZERO = "double_zero"


class Pole(Record):
    """A refined zero q = k*a of a channel pole function in a well of
    half-width a, kept as the solver gave it (k = q/a is derived); its kind
    is ``classify``'s reading of q and its multiplicity, and its residual
    |d| that of ``_kernels``' pole function."""

    __slots__ = ("q", "channel", "coupling", "multiplicity", "residual", "a")

    def __init__(self, q: complex, channel: Channel, coupling: ComplexCoupling,
                 multiplicity: int, residual: float, a: float):
        self.q, self.channel, self.coupling = q, channel, coupling
        self.multiplicity, self.residual, self.a = multiplicity, residual, a
        if self.multiplicity not in (1, 2):
            raise ValueError(f"multiplicity must be 1 or 2, got {self.multiplicity}")

    @property
    def k(self) -> complex:
        return self.q / self.a

    @property
    def kind(self) -> PoleKind:
        return classify(self.q, self.multiplicity)


def classify(q: complex, multiplicity: int = 1) -> PoleKind:
    """Pole kind from its scaled position q = k*a.

    On-axis kinds apply within TOL_AXIS of the imaginary axis (``on_axis``);
    a coalesced pair is always kind double_zero regardless of position.
    """
    if multiplicity == 2:
        return PoleKind.DOUBLE_ZERO
    if abs(q) < TOL_AXIS:
        return PoleKind.THRESHOLD
    if on_axis(q):
        return PoleKind.BOUND if q.imag > 0 else PoleKind.VIRTUAL
    return PoleKind.RESONANCE if q.real > 0 else PoleKind.ANTIRESONANCE


def on_axis(q: complex) -> bool:
    """Whether q = k*a lies in the band |Re q| < TOL_AXIS about the
    imaginary axis, where ``classify`` reads a pole as bound or virtual."""
    return abs(q.real) < TOL_AXIS


def residual_ratio(q: complex, s: complex, channel: Channel) -> float:
    """|d(q)| of the pole function at q = k*a and coupling s = c^2*gamma over
    the pole residual bound RESIDUAL_TOL*(1 + |q|) + 2^-52*|q|*|d'(q)|, the
    last term the |d| that rounding q leaves (|d'| ~ c^2 near q = +-ic):
    below 1 on a pole. Traced seeds and certified sweep poles must meet it."""
    d, dq = _k.denom_plain(q, s, channel.code)
    return abs(d) / (RESIDUAL_TOL * (1.0 + abs(q)) + 2.0 ** -52 * abs(q) * abs(dq))


def _pole(q: complex, s: complex, coupling: ComplexCoupling, channel: Channel,
          a: float, multiplicity: int = 1) -> Pole:
    """The pole at scaled momentum q, with its residual |d(q)|."""
    d, _ = _k.denom_plain(q, s, channel.code)
    return Pole(q=q, channel=channel, coupling=coupling,
                multiplicity=multiplicity, residual=abs(d), a=a)


def newton_refine(
    k0: complex,
    coupling: ComplexCoupling,
    spec: PotentialSpec,
    channel: Channel,
    *,
    trust_radius: float | None = None,
    max_iter: int = MAX_NEWTON,
) -> Pole:
    """Polish a pole estimate by complex Newton iteration in q = k*a.

    Raises NoConvergence when the step tolerance is not met within the
    iteration cap, and ConvergedElsewhere when a trust radius is given and
    the converged point lies outside it.
    """
    a, c = spec.a, spec.c
    s = c * c * coupling.gamma
    q, iters, ok, _ = _k.newton_pole(a * complex(k0), s, channel.code, max_iter)
    if not ok:
        raise NoConvergence(q / a, iters)
    pole = _pole(q, s, coupling, channel, a)
    if trust_radius is not None and abs(pole.k - k0) > trust_radius:
        raise ConvergedElsewhere(pole.k, complex(k0), trust_radius)
    return pole


def _bracketed_newton(g, x: float, end: float) -> float:
    """Root of g in the sign-change bracket between x and end by Newton's
    method from x; g(x) returns (g, g'), or both times one positive factor.

    From the end where g and g'' share a sign, Newton on a convex or concave
    g moves monotonically to the root. A step that would leave the bracket,
    or that is not below half the step before last (creeping, as where g' ->
    0), is a bisection (rtsafe, Press et al., *Numerical Recipes* 9.4). It
    stops at Brent's tolerance, a step below (1e-13 + 1e-15|x|)/2, and
    raises RuntimeError after 100 steps.
    """
    fx, dfx = g(x)
    side = fx > 0.0
    near, far = x, end
    last = before = 2.0 * abs(far - near)  # the first two steps are free
    for _ in range(100):
        if fx == 0.0:
            return x
        t = 0.5 * (near + far)
        if abs(2.0 * fx) <= abs(before * dfx):
            newton = x - fx / dfx
            # on an end too: a step that rounds to nothing has converged,
            # and one onto end (x - c cos x from pi/2 at 1 + c == 1) is taken
            if (newton - near) * (newton - far) <= 0.0:
                t = newton
        before, last = last, abs(t - x)
        if last <= 0.5 * (1e-13 + 1e-15 * abs(t)):
            return t
        x = t
        fx, dfx = g(x)
        near, far = (x, far) if (fx > 0.0) == side else (near, x)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _threshold_x(odd: bool, j: int) -> float:
    """x_j = j*pi (even) or (j + 1/2)*pi (odd), j >= 0: the threshold point
    of the j-th real-K cell of ``_axis_cells``, where its rising root
    passes a*kappa = 0 and a bound state enters at k = 0; the other
    channel's cells end there, where |sin x| (even) or |cos x| (odd) is 0."""
    return (j + 0.5) * math.pi if odd else j * math.pi


@functools.lru_cache(maxsize=None)
def collision_x(channel: Channel, attractive: bool, index: int) -> float:
    """x_c = a|K_c| of the index-th pair collision on the imaginary k axis.

    A pair collides at k = -i/a where the axis ratio x/|cos x|, x/|sin x|
    or y/cosh y is stationary. The index-th stationary point solves

        even, attractive:  x tan x = -1 on ((i - 1/2) pi, i pi), as cos x + x sin x = 0
        odd, attractive:   tan x = x    on (i pi, (i + 1/2) pi), as sin x - x cos x = 0
        even, repulsive:   y tanh y = 1 on (1, 2), as cosh y - y sinh y = 0

    An attractive interval runs from the index-th cell's lower end to its
    threshold point (``_threshold_x``). Each holds exactly one root, so the
    index counts collisions by rising depth. The even repulsive collision is
    the only one (index 1); the odd repulsive coupling has none. Both raise
    NoRootInBracket.

    ``_bracketed_newton`` solves each with its derivative x cos x, x sin x
    or -y cosh y from the upper end, where value and curvature share a sign.
    A pure function of its arguments, so each root is solved once per
    process and cached.
    """
    if attractive:
        odd = channel is Channel.MINUS
        g = ((lambda t: (math.sin(t) - t * math.cos(t), t * math.sin(t))) if odd
             else (lambda t: (math.cos(t) + t * math.sin(t), t * math.cos(t))))
        return _bracketed_newton(g, _threshold_x(odd, index),
                                 _threshold_x(not odd, index - 1 + odd))
    if channel is Channel.PLUS and index == 1:
        return _bracketed_newton(lambda t: (math.cosh(t) - t * math.sinh(t), -t * math.cosh(t)),
                                 2.0, 1.0)
    raise NoRootInBracket(f"no pair collision of index {index} at gamma = -1")


def _collision_c2(xc: float, attractive: bool) -> float:
    """c*^2 = x_c^2 + 1 (attractive) or x_c^2 - 1 (repulsive), the squared
    axis ratio at a cell's collision point x_c: the strength at which its
    pair coalesces at q = -i."""
    return xc * xc + (1.0 if attractive else -1.0)


def _depth(c2: float, m: float, a: float) -> float:
    """U = c2/(2 m a^2), the depth at which the well (m, a) reaches the
    strength c^2 = c2. Raises ValueError, naming m and a, where U is not a
    finite float: where 2 m a^2 underflows to 0 or below c2/(float max)."""
    two_ma2 = 2.0 * m * a * a
    u = c2 / two_ma2 if two_ma2 else math.inf
    if u == math.inf:
        raise ValueError(f"depth c^2/(2 m a^2) = {c2:g}/{two_ma2:g} is not finite "
                         f"at m={m}, a={a}")
    return u


def collision_depth(channel: Channel, attractive: bool, m: float, a: float, index: int) -> float:
    """U* = c*^2/(2 m a^2) of the index-th pair collision, with c*^2 =
    x_c^2 +- 1 of ``_collision_c2`` at x_c from ``collision_x``; so c*
    depends on (channel, attractive, index) alone (see
    ``chart.critical_depth``).

    Raises ValueError for an m or a that no ``PotentialSpec`` takes, or one
    at which U* is not finite (``_depth``)."""
    _check_well(m, a)
    return _depth(_collision_c2(collision_x(channel, attractive, index), attractive), m, a)


def collisions_between(
    channel: Channel, m: float, a: float, u_lo: float, u_hi: float
) -> list[tuple[bool, int, float]]:
    """(attractive, index, U*) of every pair collision with u_lo <= U* <= u_hi:
    the attractive ones by rising index, then the even repulsive one (the
    odd repulsive coupling has none).

    U* >= u_lo needs x_c >= x0 = sqrt(2 m a^2 u_lo - 1), and the index-th
    attractive x_c lies in its bracket of ``collision_x``, below the
    threshold point ``_threshold_x(odd, index)``. The walk starts at the
    first index whose threshold point lies above x0, and stops at the first
    U* above u_hi or past the float range, which no band reaches.

    Raises ValueError for an m or a that no ``PotentialSpec`` takes, or at
    which 2 m a^2 underflows to 0, where no U* is finite.
    """
    _check_well(m, a)
    two_ma2 = 2.0 * m * a * a
    if not two_ma2:
        raise ValueError(f"2 m a^2 underflows to 0 at m={m}, a={a}: no collision depth is finite")
    odd = channel is Channel.MINUS
    x0 = math.sqrt(max(2.0 * m * a * a * u_lo - 1.0, 0.0))
    index = max(1, math.floor(x0 / math.pi - 0.5 * odd) + 1)
    found = []
    while True:
        u_star = _collision_c2(collision_x(channel, True, index), True) / two_ma2
        if u_star > u_hi or u_star == math.inf:
            break
        if u_star >= u_lo:
            found.append((True, index, u_star))
        index += 1
    if not odd:
        u_star = _collision_c2(collision_x(channel, False, 1), False) / two_ma2
        if u_lo <= u_star <= u_hi and u_star != math.inf:
            found.append((False, 1, u_star))
    return found


# half-side, in q, of the square about the collision point q = -i in which
# a collision's pair is counted
_PAIR_BOX = 1e-3


@functools.lru_cache(maxsize=None)
def collision_pair_count(channel: Channel, attractive: bool, index: int) -> int | None:
    """Zeros of the pole function in the square of half-side _PAIR_BOX about
    q = -i at the index-th pair collision: 2, the coalesced pair; None when
    the walk fails (EdgeTooClose).

    The count is taken by ``count_zeros_padded`` at the collision's own
    coupling s = +-c*^2 of ``_collision_c2``. In q the pole function
    depends on s alone, so this is every well's count at its collision
    depth in the square about its k = -i/a. A pure function of its
    arguments, cached per process like ``collision_x``.
    """
    c2 = _collision_c2(collision_x(channel, attractive, index), attractive)
    try:
        return count_zeros_padded(_PAIR_BOX, -1.0 - _PAIR_BOX, -1.0 + _PAIR_BOX,
                                  c2 if attractive else -c2, channel)
    except EdgeTooClose:
        return None


# the fixed-point forms of the cell equations, as (g, g') on a cell [lo, hi]: x - c|cos x| and
# x - c|sin x| (real K, convex; cos x or sin x takes the cell's sign, as at a cell end it rounds
# to +-6e-17 of either), y - c cosh y and y - c sinh y (imaginary K, concave, times exp(-y))
def _x_cos_form(c: float, lo: float, hi: float):
    cc = math.copysign(c, math.cos(0.5 * (lo + hi)))
    return lambda x: (x - cc * math.cos(x), 1.0 + cc * math.sin(x))


def _x_sin_form(c: float, lo: float, hi: float):
    cs = math.copysign(c, math.sin(0.5 * (lo + hi)))
    return lambda x: (x - cs * math.sin(x), 1.0 - cs * math.cos(x))


def _y_cosh_form(c: float, lo: float, hi: float):
    return lambda y: (y * math.exp(-y) - 0.5 * c * (1.0 + math.exp(-2.0 * y)),
                      math.exp(-y) + 0.5 * c * math.expm1(-2.0 * y))


def _y_sinh_form(c: float, lo: float, hi: float):
    return lambda y: (y * math.exp(-y) + 0.5 * c * math.expm1(-2.0 * y),
                      math.exp(-y) - 0.5 * c * (1.0 + math.exp(-2.0 * y)))


# a*kappa at a root x of each cell equation: k = i K tan(aK) (even), -i K cot(aK) (odd)
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

    Entries are (form, a_kappa, lo, x_c, hi). The cell's poles solve
    form(c, lo, hi) = 0 on [lo, hi] and sit at q = i a_kappa(x). x_c is the
    cell's collision point (``_collision_c2``), which splits its 0 or 2
    roots; with x_c None the cell holds exactly one root.

        even, attractive:  x = c|cos x| on [0, pi/2], then ((n - 1/2) pi, (n + 1/2) pi)
        odd, attractive:   y = c sinh y for c < 1, else x = c|sin x| on [0, pi];
                           then (n pi, (n + 1) pi)
        even, repulsive:   y = c cosh y, on [0, hi] past its roots, x_c = y_c
        odd, repulsive:    no cells

    Each real-K cell ends where the next begins. A root has x <= c, so the
    cells stop once lo reaches c; an imaginary-K cell ends at the first
    doubling of y where its form is negative.
    """
    if not attractive:
        if odd:
            return []
        yc = collision_x(Channel.PLUS, False, 1)
        g, hi = _y_cosh_form(c, 0.0, 0.0), 2.0 * yc
        while g(hi)[0] >= 0.0:
            hi *= 2.0
        return [(_y_cosh_form, _neg_y_tanh, 0.0, yc, hi)]
    channel, form, a_kappa = ((Channel.MINUS, _x_sin_form, _neg_x_cot) if odd
                              else (Channel.PLUS, _x_cos_form, _x_tan))
    h = 0.0 if odd else 0.5
    hi = (1.0 - h) * math.pi
    if odd and c < 1.0:
        g, end = _y_sinh_form(c, 0.0, 0.0), 1.0
        while g(end)[0] >= 0.0:
            end *= 2.0
        cells = [(_y_sinh_form, _neg_y_coth, 0.0, None, end)]
    else:
        cells = [(form, a_kappa, 0.0, None, hi)]
    n = 1
    while hi < c:
        lo, hi = hi, (n + 1 - h) * math.pi
        cells.append((form, a_kappa, lo, collision_x(channel, True, n), hi))
        n += 1
    return cells


def _pair_offset(xc: float, attractive: bool, c: float) -> float:
    """Distance from q = -i, in units of x_c, of the pair of a cell with
    collision point x_c, signed as c* - c, c* = sqrt(``_collision_c2``).

    At x_c the axis ratio is c*, its second derivative +-c* and
    |d(a kappa)/dx| is x_c, so the pair sits x_c * sqrt(2|c* - c|/c*) from
    q = -i: on the axis when c passes c*, mirrored off it otherwise.
    """
    rc = math.sqrt(_collision_c2(xc, attractive))
    return math.copysign(math.sqrt(2.0 * abs(rc - c) / rc), rc - c)


def _cell_roots(cell: tuple, c: float, s: float, ch: int) -> Iterator[tuple[float, int]]:
    """(a*kappa, multiplicity) of the poles of one cell of ``_axis_cells``
    at c and s = +-c^2, each solved only when it is drawn: the root above
    the collision point x_c first (the cell's one root when x_c is None),
    then the one below it. Above x_c an attractive cell's a*kappa rises
    through 0 toward hi; below x_c a*kappa < -1. So the first root is the
    only one of an attractive cell that can be bound, and ``bound_count``
    draws no other.

    A cell with x_c holds 2 roots, split at x_c, where c has passed its c*
    (``_pair_offset``): upward at the attractive coupling, downward at the
    repulsive one. ``_bracketed_newton`` solves each on the cell's form g
    from the end where g and g'' share a sign: hi for the root above x_c
    (or the one root), lo for the one below. Each is mapped to a*kappa and
    Newton-polished in q to Im q. When the cell's pair lies within
    _PAIR_BALL*x_c of its collision point q = -i, the cell gives one
    coalesced pair there instead, as a*kappa = -1 with multiplicity 2.
    """
    form, a_kappa, lo, xc, hi = cell

    def polished(x: float) -> tuple[float, int]:
        kappa = a_kappa(x)
        q, _, ok, _ = _k.newton_pole(1j * kappa, s, ch, MAX_NEWTON)
        # without convergence, where d's slope is tiny against its terms
        # (a pair next to its collision), the bracketed root is the better value
        if ok:
            if abs(q - 1j * kappa) > 0.5:
                raise ConvergedElsewhere(q, 1j * kappa, 0.5)
            kappa = q.imag
        return kappa, 1

    if xc is None:
        yield polished(_bracketed_newton(form(c, lo, hi), hi, lo))
        return
    attractive = s > 0.0
    offset = _pair_offset(xc, attractive, c)
    if abs(offset) < _PAIR_BALL:
        yield -1.0, 2
        return
    if (offset > 0.0) != attractive:
        yield polished(_bracketed_newton(form(c, lo, hi), hi, xc))
        yield polished(_bracketed_newton(form(c, lo, hi), lo, xc))


def _axis_roots(spec: PotentialSpec, coupling: ComplexCoupling,
                channel: Channel) -> tuple[float, list[tuple[float, int]]]:
    """s = c^2*gamma and the (a*kappa, multiplicity) of every pole on the
    imaginary axis at a real coupling, cell by cell of ``_axis_cells`` and
    each cell's by ``_cell_roots``: the one enumeration that ``scan_axis``
    and ``axis_momenta`` read. U = 0 has none."""
    if not coupling.is_real:
        raise ValueError("axis scan requires a real coupling (alpha a multiple of pi)")
    c = spec.c
    s = c * c * coupling.gamma.real
    cells = _axis_cells(c, s > 0.0, channel is Channel.MINUS) if c else []
    ch = channel.code
    return s, [root for cell in cells for root in _cell_roots(cell, c, s, ch)]


def scan_axis(spec: PotentialSpec, coupling: ComplexCoupling, channel: Channel) -> list[Pole]:
    """All poles on the imaginary k axis (k = i*kappa) for a real coupling.

    The poles are enumerated in closed form over the cells of the interior
    momentum (``_axis_cells``; Nussenzveig, Nucl. Phys. 11 (1959) 499),
    each cell's by ``_cell_roots`` as a*kappa, and each becomes a ``Pole``
    at k = i*a*kappa/a with the residual |d| there; a coalesced pair is one
    multiplicity-2 pole at k = -i/a. The poles are sorted by kappa.

    U = 0 is the free particle: its S-matrix is 1 and has no poles (the even
    pole function degenerates to q*exp(-iq), whose q = 0 zero is removable
    in S).
    """
    s, roots = _axis_roots(spec, coupling, channel)
    poles = [_pole(1j * kappa, s, coupling, channel, spec.a, mult) for kappa, mult in roots]
    poles.sort(key=lambda p: p.k.imag)
    return poles


def axis_momenta(spec: PotentialSpec, coupling: ComplexCoupling, channel: Channel) -> list[complex]:
    """The momenta k of ``scan_axis``'s poles, bit for bit and in its order,
    without a record or a residual: a coalesced pair is one k = -i/a."""
    a = spec.a
    momenta = [1j * kappa / a for kappa, _ in _axis_roots(spec, coupling, channel)[1]]
    momenta.sort(key=lambda k: k.imag)
    return momenta


def level_set_components(seeds: list[Pole], c: float) -> Callable[[complex, float], int]:
    """The function (q, alpha) -> its component of |g(z)| = c, z = sqrt(q^2 +
    c^2 e^{i alpha}): with m of the axis seeds' |z| (a coalesced pair's twice)
    strictly above the point's |z|, it is (m + 1) // 2; 0 is the open curve."""
    def size(q: complex, alpha: float) -> float:
        return abs(cmath.sqrt(q * q + c * c * _phase_to_gamma(alpha)))

    ends = sorted(size(p.q, p.coupling.alpha) for p in seeds for _ in range(p.multiplicity))
    return lambda q, alpha: (len(ends) - bisect.bisect_right(ends, size(q, alpha)) + 1) // 2


def off_axis_poles(spec: PotentialSpec, channel: Channel, re_max: float) -> list[complex]:
    """The poles k off the imaginary axis at the attractive coupling, up to
    the first pair past |Re q| = re_max: the mirrored pair k, -conj(k) of
    every collision cell whose pair has left the axis.

    The n-th cell's pair collides at x_c = ``collision_x`` (n), at c* =
    sqrt(x_c^2 + 1); below it, c < c*, the pair lies off the axis, unless
    it sits within _PAIR_BALL*x_c of q = -i (``_pair_offset``), where
    ``scan_axis`` gives it as one coalesced pair.
    One Newton solve in q finds one pole of each such pair, seeded at
    q0 = i x0 tan x0 (even) or -i x0 cot x0 (odd) with the interior phase
    x0 = x_c + i w, w = max(pair offset, acosh(max(1, x_c/c))): the first
    places a pair near its collision, the second one the far plane poles
    of a shallow well, whose interior phase runs off by acosh(x_c/c). The
    walk stops at the first pole with |Re q| > re_max whose cell lies
    past x_c = re_max + pi. The cells with c* <= c hold axis poles,
    which ``scan_axis`` gives, and so do the cells without a collision.

    Raises NoConvergence when a solve does not converge. U = 0 has no
    poles.
    """
    a, c = spec.a, spec.c
    if c == 0.0:
        return []
    odd = channel is Channel.MINUS
    poles = []
    n = 1
    while True:
        xc = collision_x(channel, True, n)
        n += 1
        # past c* (offset <= 0) the pair is on the axis
        offset = _pair_offset(xc, True, c)
        if offset < _PAIR_BALL:
            continue
        x0 = complex(xc, max(offset, math.acosh(max(1.0, xc / c))))
        q0 = -1j * x0 / cmath.tan(x0) if odd else 1j * x0 * cmath.tan(x0)
        q, iters, ok, _ = _k.newton_pole(q0, c * c, channel.code, MAX_NEWTON)
        if not ok:
            raise NoConvergence(q / a, iters)
        if abs(q.real) > re_max and xc > re_max + math.pi:
            return poles
        poles.extend((q / a, -q.conjugate() / a))


def bound_threshold(channel: Channel, n: int, m: float = 1.0, a: float = 1.5) -> float:
    """Depth at which the n-th bound state of a channel appears (n >= 1).

    New bound states enter at k = 0, where the quantization closes in
    closed form: the even channel binds from zero depth, gaining its next
    state at (n*pi)^2/(2 m a^2); the odd channel needs
    ((2n-1)*pi/2)^2/(2 m a^2). Both are x_j^2/(2 m a^2) at the threshold
    point x_j of ``_threshold_x``, j = n (even) or n - 1 (odd).

    Raises ValueError for an n below 1, or an m or a that no
    ``PotentialSpec`` takes or at which the depth is not finite
    (``_depth``).
    """
    if n < 1:
        raise ValueError("threshold index counts from 1")
    _check_well(m, a)
    odd = channel is Channel.MINUS
    x = _threshold_x(odd, n - odd)
    return _depth(x * x, m, a)


# bound_count's reach in x on either side of a cell's threshold point
_THRESHOLD_DX = 1e-2


def bound_count(spec: PotentialSpec, channel: Channel) -> int:
    """Number of bound states (axis poles with Im k > 0) at the attractive
    coupling: the simple axis roots with a*kappa >= TOL_AXIS, exactly those
    that ``scan_axis`` calls bound.

    Each real-K cell of ``_axis_cells`` holds at most one root that can be
    bound, on its rising branch, where a*kappa rises through 0 at the
    cell's threshold point x_n (``_threshold_x``, with the cells numbered
    from n = 0): where the states of ``bound_threshold`` enter at k = 0
    (the even channel's first at U = 0). The axis ratio x/|cos x| or
    x/|sin x| is read on each side of x_n, at x_n -/+ dx (dx =
    _THRESHOLD_DX), as (x_n -/+ dx)/cos(dx):

    - (x_n + dx)/cos(dx) < c: the root lies above x_n + dx, where a*kappa
      is at least 1e-4, far above TOL_AXIS, so it counts unsolved;
    - (x_n - dx)/cos(dx) > c, with x_n - dx above the cell's collision
      point: any rising-branch root lies below x_n - dx, at kappa < 0, and
      does not count.

    Only a cell between the two, in practice the top cell next to a
    threshold, has its rising-branch root solved and polished in q by the
    scan's own ``_cell_roots``. A root with a*kappa within TOL_AXIS of 0
    is a threshold, not a bound state, so at a closed-form threshold depth
    the count is still the one below it.
    Imaginary-K cells (a*kappa = -y coth y) and coalesced pairs
    (a*kappa = -1) hold no bound state.
    """
    c = spec.c
    if c == 0.0:
        return 0
    odd = channel is Channel.MINUS
    dx = _THRESHOLD_DX
    cos_dx = math.cos(dx)
    count = 0
    for n, cell in enumerate(_axis_cells(c, True, odd)):
        _, a_kappa, lo, xc, _ = cell
        if a_kappa is _neg_y_coth:
            continue
        x_n = _threshold_x(odd, n)
        if (x_n + dx) / cos_dx < c:
            count += 1
            continue
        below = x_n - dx
        if below > (lo if xc is None else xc) and below / cos_dx > c:
            continue
        kappa, mult = next(_cell_roots(cell, c, c * c, channel.code), (0.0, 0))
        if mult == 1 and kappa >= TOL_AXIS:
            count += 1
    return count


def count_step_depth(channel: Channel, n: int, m: float = 1.0, a: float = 1.5) -> float:
    """The depth at which ``bound_count`` steps from n to n + 1 (n >= 0).

    The next state enters at k = 0 at bound_threshold(n + odd), but
    ``classify`` calls it bound only once a*kappa >= TOL_AXIS. Near the
    threshold point x_n the pole condition reads x (x - x_n) ~ a kappa in
    both channels, and U = (x^2 + (a kappa)^2)/(2 m a^2), so the scan shows
    it at bound_threshold + TOL_AXIS/(m a^2) to first order; the neglected
    terms, of order TOL_AXIS^2/(m a^2), lie below the float spacing of U.
    The even channel's first state enters at U = 0, where x^2 ~ a kappa -
    (a kappa)^2/3 puts it at (TOL_AXIS/2 + TOL_AXIS^2/3)/(m a^2).
    Roundoff in the polished kappa moves the count's own step: over 800
    random wells (m in [0.2, 10], a in [0.1, 6], n = 0...8, either channel)
    it lay from 3 float spacings below this depth to 4 above it.

    Raises ValueError for an m or a that no ``PotentialSpec`` takes, or at
    which the depth is not finite (``_depth``).
    """
    odd = channel is Channel.MINUS
    if odd or n:
        return bound_threshold(channel, n + odd, m, a) + TOL_AXIS / (m * a * a)
    _check_well(m, a)
    return _depth(TOL_AXIS + 2.0 * TOL_AXIS * TOL_AXIS / 3.0, m, a)


_EDGE_CLEARANCE = 1e-6
_EDGE_MAX_POINTS = 20000
# an edge's base samples, at t = i/32 along it; an odd count, so the half
# walk of count_zeros starts on the middle one
_EDGE_TS = tuple(i / 32 for i in range(33))


def _edge_winding(
    z0: complex, z1: complex, s: complex, ch: int, base: tuple[float, ...] = _EDGE_TS
) -> float:
    """Accumulated argument change of the pole function along z0 + (z1 - z0) t
    in the q plane.

    The walk runs over t from base[0] to base[-1], starting from the base
    samples: the whole segment by default, one half of it on the horizontal
    edges of ``count_zeros``. Subdivides a cell until its sampled increment,
    the principal value of arg(d1/d0) between its two samples, is below
    pi/2, and so is max(|d'/d|) over its two samples times its length |dq|:
    the argument of d turns at most |d'/d| per unit length, so a cell that
    passes both tests turns by its sampled increment, not by that plus
    whole turns. The second test assumes that |d'/d| between the two
    samples stays below its larger sampled value. That is not a bound: a
    zero close to the middle of a cell, and far from both its ends, can
    still turn the argument by a whole turn unseen. The test itself makes
    no kernel call, since ``grid_denom_dk`` returns d' with d. Raises
    EdgeTooClose at a sample q whose Newton step |d/d'| is below the clearance.
    """
    dz = z1 - z0
    length = abs(dz)

    def evaluate(ts: list[float]) -> tuple[list[complex], list[float]]:
        qs = [z0 + dz * t for t in ts]
        ds, dqs = _k.grid_denom_dk(qs, s, ch)
        # |d'/d| per unit t
        rates = []
        for q, d, dq in zip(qs, ds, dqs):
            ad, adq = abs(d), abs(dq)
            if ad < _EDGE_CLEARANCE * adq:
                raise EdgeTooClose(q)
            rates.append(adq / ad * length if ad else math.inf)
        return ds, rates

    ts = list(base)
    vals, rates = evaluate(ts)
    quarter = 0.5 * math.pi
    while True:
        dargs = [cmath.phase(v1 / v0) for v0, v1 in zip(vals, vals[1:])]
        coarse = [
            i for i, (step, r0, r1, t0, t1) in enumerate(zip(dargs, rates, rates[1:], ts, ts[1:]))
            if abs(step) >= quarter or (r0 if r0 > r1 else r1) * (t1 - t0) >= quarter
        ]
        if not coarse:
            return sum(dargs)
        if len(ts) > _EDGE_MAX_POINTS:
            raise EdgeTooClose(z0 + dz * ts[coarse[0]])
        mids = [0.5 * (ts[i] + ts[i + 1]) for i in coarse]
        mid_vals, mid_rates = evaluate(mids)
        merged = sorted(zip(ts + mids, vals + mid_vals, rates + mid_rates), key=lambda p: p[0])
        ts = [t for t, _, _ in merged]
        vals = [v for _, v, _ in merged]
        rates = [r for _, _, r in merged]


def count_zeros(re_max: float, im_lo: float, im_hi: float, s: float, channel: Channel) -> int:
    """Number of pole-function zeros q = k*a, with multiplicity, in the
    rectangle |Re q| <= re_max, im_lo <= Im q <= im_hi at the real coupling
    s = +-c^2.

    Argument-principle winding along the boundary (Delves & Lyness, Math.
    Comp. 21 (1967) 543). The integrand is entire, so the true winding is
    the zero count. ``_edge_winding`` refines each edge until every cell's
    sampled argument step and its sampled |d'/d| times its length are both
    below pi/2. The sampled winding then equals the true one under an
    assumption it does not check: |d'/d| inside a cell stays below the
    larger of its two sampled values. Where that fails, whole turns drop
    out of the sum. An entire function has no negative zero count, so a
    negative result proves such aliasing. Raises EdgeTooClose, at q, when
    a zero sits within ~1e-6 of the boundary.

    At a real coupling the pole function obeys d(-conj q) = -conj d(q)
    (even channel) or +conj d(q) (odd channel), so the left half of the
    boundary is the mirror image of the right half, walked backward, and
    winds by exactly as much. Only the right half is walked, from Re q = 0
    on the bottom edge, up the right edge and back to Re q = 0 on the top
    edge, and its winding is doubled.

    Raises ValueError for re_max <= 0, im_lo >= im_hi or a non-real s.
    """
    if not (re_max > 0.0 and im_lo < im_hi):
        raise ValueError(f"no rectangle |Re q| <= {re_max!r}, {im_lo!r} <= Im q <= {im_hi!r}")
    if complex(s).imag != 0.0:
        raise ValueError(f"the count takes a real coupling s = +-c^2, got s = {s!r}")
    c0, c1 = complex(-re_max, im_lo), complex(re_max, im_lo)
    c2, c3 = complex(re_max, im_hi), complex(-re_max, im_hi)
    mid = len(_EDGE_TS) // 2
    edges = ((c0, c1, _EDGE_TS[mid:]), (c1, c2, _EDGE_TS), (c2, c3, _EDGE_TS[:mid + 1]))
    n = sum(_edge_winding(z0, z1, s, channel.code, base) for z0, z1, base in edges) / math.pi
    if abs(n - round(n)) > 0.05:
        raise EdgeTooClose(c0, f"ambiguous winding {n:.6f} on |Re q| <= {re_max!r}, "
                               f"{im_lo!r} <= Im q <= {im_hi!r}")
    return int(round(n))


def count_zeros_padded(re_max: float, im_lo: float, im_hi: float, s: float,
                       channel: Channel) -> int:
    """count_zeros with automatic outward nudging when an edge grazes a zero.

    The t-th retry grows the rectangle by t*_PAD_FRACTION of its longer
    side on every edge, so the count can only gain zeros that sat on the
    original boundary; the last of _PAD_TRIES tries raises EdgeTooClose.
    """
    step = _PAD_FRACTION * max(2.0 * re_max, im_hi - im_lo)
    for attempt in range(_PAD_TRIES):
        try:
            return count_zeros(re_max, im_lo, im_hi, s, channel)
        except EdgeTooClose:
            if attempt == _PAD_TRIES - 1:
                raise
            bump = step * (attempt + 1)
            re_max, im_lo, im_hi = re_max + bump, im_lo - bump, im_hi + bump
    raise AssertionError("unreachable")


def multiplicity_at(
    k: complex, coupling: ComplexCoupling, spec: PotentialSpec, channel: Channel
) -> int:
    """Zero multiplicity at a pole: 2 (coalesced pair) or 1 (simple).

    A pair coalesces only at k = -i/a, at a real coupling, and only at the
    closed-form collision depths (see ``collision_x``). So multiplicity 2
    needs a real coupling and an axis cell whose pair lies within
    _PAIR_BALL*x_c of q = -i (``_pair_offset``), the test ``scan_axis``
    makes, with q = k*a inside that ball too.
    """
    c = spec.c
    if not coupling.is_real or c == 0.0:
        return 1
    q = spec.a * k
    attractive = coupling.gamma.real > 0
    for _, _, _, xc, _ in _axis_cells(c, attractive, channel is Channel.MINUS):
        if xc is not None:
            if abs(q + 1j) < _PAIR_BALL * xc and abs(_pair_offset(xc, attractive, c)) < _PAIR_BALL:
                return 2
    return 1
