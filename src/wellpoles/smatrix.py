"""Closed-form S-matrix of the 1D symmetric rectangular potential.

The potential is -gamma*U on the interval [-a, a] (zero outside), with
complex coupling gamma = e^{i alpha} rotating the well from attractive
(alpha = 0) to repulsive (alpha = pi). Units: hbar = 1, energy = k^2/(2m).

Parity decouples the 2x2 S-matrix into even ('plus') and odd ('minus')
channels; ``verify_relations`` checks the similarity transform between the
plane-wave basis and the parity basis. Channel poles are zeros of the channel
denominators, tracked everywhere through the kernels in ``_kernels``.
``s_full`` rests on D_full = 2*D_plus*D_minus, which ``verify_relations``
checks against the double-angle ``denom_full``.

The S functions keep the kernels' non-finite contract: past the float range
an element or a residual reads inf or nan (magnitudes from ``_abs``, nan
where a denominator is 0 in floats); ``PoleHit``, where the pole test holds,
is the only exception they raise.
"""

from __future__ import annotations

import cmath
import enum
import math

from . import _kernels as _k
from ._record import Record
from .errors import PoleHit

POLE_HIT_SCALE = 1e-13
# the deepest well, in c = a*sqrt(2 m U): the axis scan walks about c/pi
# cells, and a certified sweep at c = 1e4 counts them in about 1.5 s
C_LIMIT = 1e4


class Channel(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    # members are singletons that compare by identity, so the identity hash
    # keeps equality and lets the cache keys hash in C, not in Enum.__hash__
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "Channel":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown channel {name!r}; expected 'plus' or 'minus'") from None

    @property
    def code(self) -> int:
        return _k.CH_PLUS if self is Channel.PLUS else _k.CH_MINUS


def _check_well(m: float, a: float, U: float = 0.0) -> None:
    """Raise ValueError unless the mass m and half-width a are positive and
    the depth U nonnegative, all finite: the rule of ``PotentialSpec``, for
    a caller that takes (m, a) or (m, a, U) and builds no record."""
    if not (m > 0.0 and math.isfinite(m)):
        raise ValueError(f"mass must be positive and finite, got {m}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"half-width must be positive and finite, got {a}")
    if not (U >= 0.0 and math.isfinite(U)):
        raise ValueError(f"depth must be nonnegative and finite, got {U}")


class PotentialSpec(Record):
    """Rectangular well parameters: mass m, half-width a, depth scale U >= 0."""

    __slots__ = ("m", "a", "U")

    def __init__(self, m: float = 1.0, a: float = 1.5, U: float = 1.0):
        self.m, self.a, self.U = m, a, U
        _check_well(m, a, U)
        if not self.c <= C_LIMIT:
            raise ValueError(f"strength c = a*sqrt(2 m U) = {self.c:g} exceeds its limit "
                             f"{C_LIMIT:g} at m={self.m}, a={self.a}, U={self.U}")

    @property
    def c(self) -> float:
        """c = a*sqrt(2 m U), the one strength the poles in q = k*a depend on."""
        return self.a * math.sqrt(2.0 * self.m * self.U)


HALF_PI = math.pi / 2.0
# the coupling e^{i n pi/2} at the anchor n, by n % 4
_ANCHOR_GAMMA = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def _anchor_index(alpha: float) -> int | None:
    """n where alpha is exactly the anchor phase n*(pi/2), built as the
    product n*HALF_PI; None at any other phase."""
    n = round(alpha / HALF_PI)
    return n if alpha == n * HALF_PI else None


def _phase_to_gamma(alpha: float) -> complex:
    """e^{i alpha}, exact at the anchor phases of ``_anchor_index``.

    Exactness at the axes matters: anchor couplings at alpha = n*pi/2 must
    reduce to gamma in {1, i, -1, -i} so on-axis pole conditions coincide
    bit-for-bit with the real-coupling scan.
    """
    n = _anchor_index(alpha)
    if n is None:
        return complex(math.cos(alpha), math.sin(alpha))
    return _ANCHOR_GAMMA[n % 4]


class ComplexCoupling(Record):
    """Coupling phase alpha; the multiplicative coupling is gamma = e^{i alpha}."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float = 0.0):
        self.alpha = alpha
        if not math.isfinite(self.alpha):
            raise ValueError(f"coupling phase must be finite, got {self.alpha}")

    @property
    def gamma(self) -> complex:
        return _phase_to_gamma(self.alpha)

    @property
    def is_real(self) -> bool:
        return self.gamma.imag == 0.0

    def conjugate(self) -> "ComplexCoupling":
        return ComplexCoupling(-self.alpha)

    @classmethod
    def attractive(cls) -> "ComplexCoupling":
        return cls(0.0)

    @classmethod
    def repulsive(cls) -> "ComplexCoupling":
        return cls(math.pi)


def interior_momentum(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Principal-branch interior momentum K = sqrt(k^2 + 2 m gamma U)."""
    return cmath.sqrt(complex(k) * complex(k) + 2.0 * spec.m * coupling.gamma * spec.U)


def denom_plus(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Even-channel denominator k*cos(aK) - i*K*sin(aK).

    Even under K -> -K, entire in k. Its zeros are the even-channel S poles.
    """
    c = spec.c
    return _k.denom_plain(spec.a * k, c * c * coupling.gamma, _k.CH_PLUS)[0] / spec.a


def denom_minus_reduced(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Regularized odd-channel pole function cos(aK) - i*a*k*sinc(aK).

    Equals the literal odd denominator divided by K; even under K -> -K and
    free of the spurious K = 0 zero. All odd-channel root finding uses this.
    """
    c = spec.c
    return _k.denom_plain(spec.a * k, c * c * coupling.gamma, _k.CH_MINUS)[0]


def denom_minus(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Odd-channel denominator K*cos(aK) - i*k*sin(aK) (literal form).

    Odd under K -> -K; vanishes at K = 0 where the odd S stays finite
    (the numerator shares that zero). Use denom_minus_reduced for roots.
    """
    return interior_momentum(k, coupling, spec) * denom_minus_reduced(k, coupling, spec)


def denom_full(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Two-channel denominator 2*k*K*cos(2aK) - i*(k^2+K^2)*sin(2aK).

    Computed from double-angle blocks directly, not from the channel
    denominators, so the factorization identity stays an honest check.
    """
    kc = complex(k)
    K = interior_momentum(kc, coupling, spec)
    C, S, Z, G, E = _k.trig_scaled(2.0 * spec.a * K)
    return _k.unscale(2.0 * kc * K * C - 1j * (kc * kc + K * K) * S, E)


def _abs(z: complex) -> float:
    """abs(z) where |Re z| + |Im z| is finite, bit-equal; else math.hypot's inf
    or nan, where abs() raises: past the float range, or at a nan part."""
    return abs(z) if abs(z.real) + abs(z.imag) < math.inf else math.hypot(z.real, z.imag)


def _exp(z: complex) -> complex:
    """e^z; past the float range its nonzero parts are +-inf, as IEEE
    arithmetic gives (see ``_kernels.unscale``), where cmath.exp raises."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return _k.unscale(complex(math.cos(z.imag), math.sin(z.imag)), 0.0)


def _pole_functions(k: complex, coupling: ComplexCoupling, spec: PotentialSpec,
                    channels: tuple[Channel, ...], label: str):
    """The scaled pole functions d(q) of channels, q = ka, s = c^2*gamma,
    w = q^2 + s, z = aK = sqrt(w) and the trig blocks (C, Z, G) at z, scaled
    by E = exp(-|Im z|) like each d; PoleHit, labeled label, where one d is
    at a zero. The test compares the scaled |d| with (1 + |q| + |z|)*E: the
    true |d| overflows past |Im z| ~ 709 where d is no zero.
    """
    q = spec.a * complex(k)
    c = spec.c
    s = c * c * coupling.gamma
    w = q * q + s
    z = cmath.sqrt(w)
    C, _, Z, G, E = _k.trig_scaled(z)
    ds = [_k._channel_terms(q, w, C, Z, G, channel.code)[0] for channel in channels]
    if any(_abs(d) < POLE_HIT_SCALE * (1.0 + _abs(q) + _abs(z)) * E for d in ds):
        raise PoleHit(complex(k), label)
    return ds, q, s, w, z, (C, Z, G)


def _channel_s(
    k: complex, coupling: ComplexCoupling, spec: PotentialSpec, channel: Channel, label: str
) -> complex:
    """-+e^{-2ika} d(-k)/d(k) of the channel pole function d, minus in the
    even channel; PoleHit, labeled label, where d(k) is at a zero.

    d is even in K, so d(k) and d(-k), taken in q = +-ka, share the trig
    blocks at z = aK. A d of 0 where E underflowed gives nan.
    """
    (d,), q, _, w, _, (C, Z, G) = _pole_functions(k, coupling, spec, (channel,), label)
    d_neg, _, _ = _k._channel_terms(-q, w, C, Z, G, channel.code)
    s = _exp(-2j * q) * d_neg / d if d else _k._NAN
    return -s if channel is Channel.PLUS else s


def s_plus(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Even-channel S-matrix eigenvalue, -e^{-2ika} d(-k)/d(k) (see _channel_s)."""
    return _channel_s(k, coupling, spec, Channel.PLUS, "plus")


def s_minus(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> complex:
    """Odd-channel S-matrix eigenvalue, e^{-2ika} d(-k)/d(k) (see _channel_s).

    Its d is the reduced (K-free) odd form, so the K = 0 branch point is a
    regular point as it must be.
    """
    return _channel_s(k, coupling, spec, Channel.MINUS, "minus")


class SMatrixValue(Record):
    """Full 2x2 S-matrix value in the plane-wave basis.

    Built from (s11, s12) with the symmetric structure S11 = S22 and
    S12 = S21, which the rectangular well obeys identically.
    """

    __slots__ = ("k", "s11", "s12")

    def __init__(self, k: complex, s11: complex, s12: complex):
        self.k, self.s11, self.s12 = k, s11, s12

    @property
    def matrix(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """The matrix as rows ((S11, S12), (S21, S22))."""
        return ((self.s11, self.s12), (self.s12, self.s11))


def s_full(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> SMatrixValue:
    """Full 2x2 S-matrix (transmission/reflection) of the well.

    From D_full = 2*D_plus*D_minus and the scaled d+, d- of
    ``_pole_functions``: s11 = (s_plus + s_minus)/2 = q*e^{-2iq}*E^2/(d+*d-)
    and s12 = (s_plus - s_minus)/2 = i*s*cos(z)*sinc(z)*e^{-2iq}/(d+*d-),
    cos and sinc scaled by E. E^2 goes into the exponent, so s11 is finite
    wherever its true value is. Regular at K = 0 (d- is the reduced odd
    form); PoleHit at a pole of either channel; nan where d+*d- is 0.
    """
    (d_plus, d_minus), q, s, _, z, (C, Z, _) = _pole_functions(
        k, coupling, spec, tuple(Channel), "full")
    dd = d_plus * d_minus or _k._NAN  # 0 in floats only where E underflowed
    s11 = q * _exp(-2j * q - 2.0 * abs(z.imag)) / dd
    s12 = 1j * s * C * Z * _exp(-2j * q) / dd
    return SMatrixValue(k=complex(k), s11=s11, s12=s12)


def _matmul(A, B):
    """Product of two 2x2 matrices held as rows ((a, b), (c, d))."""
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


_EYE = ((1.0, 0.0), (0.0, 1.0))
_R = 1.0 / math.sqrt(2.0)
_PARITY_BASIS = ((_R, _R), (-_R, _R))


def parity_channels(value: SMatrixValue) -> tuple[complex, complex]:
    """Diagonalize a full S value into (s_plus, s_minus) via the parity basis."""
    hat = _matmul(_matmul(_PARITY_BASIS, value.matrix), tuple(zip(*_PARITY_BASIS)))
    return hat[0][0], hat[1][1]


def _nanmax(values) -> float:
    """The largest of values; nan when any is nan, which max() may skip."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _deviation(A, B) -> float:
    """Largest |A_ij - B_ij| of two 2x2 matrices, nan when any is nan."""
    return _nanmax(_abs(x - y) for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def verify_relations(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> dict[str, float]:
    """Residuals of the five identities that ``wellpoles verify`` checks at a
    complex sample: the max-norm residuals of transpose-inverse
    S^T(k) S(-k) = 1, hermitian-adjoint S^dag(k, gamma) S(k*, gamma*) = 1 and
    conjugation S*(-k*, gamma*) = S(k, gamma); the parity diagonalization of
    S(k) against s_plus and s_minus, relative to 1 + |s|; and the
    factorization D_full = 2*D_plus*D_minus, relative to the size of its
    terms, e^{2|Im aK|}*(1 + 2|k||K| + |k|^2 + |K|^2). Each reads inf or nan
    where its own arithmetic leaves the float range. Raises PoleHit where S
    has a pole at k, -k, k* or -k*.
    """
    kc = complex(k)
    value = s_full(kc, coupling, spec)
    S = value.matrix
    S_mk = s_full(-kc, coupling, spec).matrix
    S_cc = s_full(kc.conjugate(), coupling.conjugate(), spec).matrix
    S_rc = s_full(-kc.conjugate(), coupling.conjugate(), spec).matrix
    S_T = tuple(zip(*S))
    S_dag = tuple(zip(*((z.conjugate() for z in row) for row in S)))
    S_rc_conj = tuple(tuple(z.conjugate() for z in row) for row in S_rc)
    sp, sm = s_plus(kc, coupling, spec), s_minus(kc, coupling, spec)
    hat_p, hat_m = parity_channels(value)
    K = interior_momentum(kc, coupling, spec)
    defect = (denom_full(kc, coupling, spec)
              - 2 * denom_plus(kc, coupling, spec) * denom_minus(kc, coupling, spec))
    ak, aK = _abs(kc), _abs(K)  # squared by *, since float ** raises on overflow
    term_scale = 1.0 + 2 * ak * aK + ak * ak + aK * aK
    return {
        "transpose_inverse": _deviation(_matmul(S_T, S_mk), _EYE),
        "hermitian_adjoint": _deviation(_matmul(S_dag, S_cc), _EYE),
        "conjugation": _deviation(S_rc_conj, S),
        "diagonalization": _nanmax((_abs(hat_p - sp) / (1.0 + _abs(sp)),
                                    _abs(hat_m - sm) / (1.0 + _abs(sm)))),
        "factorization": _abs(defect) * math.exp(-2.0 * abs((spec.a * K).imag)) / term_scale,
    }


def unitarity_residual(k: complex, coupling: ComplexCoupling, spec: PotentialSpec) -> float:
    """Largest ||s| - 1| of s_plus and s_minus, 0 where S is unitary (real k
    and coupling), inf or nan past the float range; PoleHit at a pole."""
    return _nanmax(abs(_abs(s(k, coupling, spec)) - 1.0) for s in (s_plus, s_minus))
