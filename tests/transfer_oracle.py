"""The transfer-matrix S-matrix, the tests' oracle for the closed forms.

``transfer_matrix_s`` propagates (psi, psi') through piecewise-constant
layers and shares no formula with ``smatrix``'s closed forms;
``well_layers`` states the rectangular well as its one layer.
"""

from __future__ import annotations

import cmath

from wellpoles.smatrix import (
    ComplexCoupling, PotentialSpec, SMatrixValue, _EYE, _abs, _exp, _matmul)


def _msinc(z: complex) -> complex:
    if _abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sin(z) / z


def well_layers(spec: PotentialSpec) -> list[tuple[float, complex]]:
    """The rectangular well as a single transfer-matrix layer."""
    return [(2.0 * spec.a, complex(-spec.U))]


def transfer_matrix_s(
    k: complex,
    coupling: ComplexCoupling,
    layers: list[tuple[float, complex]],
    m: float = 1.0,
) -> SMatrixValue:
    """Numerical S-matrix of a piecewise-constant potential, via transfer matrices.

    ``layers`` is a list of (width, bare potential value); the coupling
    multiplies every layer value. Layers are laid symmetrically about the
    origin. Propagation runs in (psi, psi') variables, whose layer matrix is
    entire in the squared local momentum: a layer at zero interior momentum
    automatically takes its linear-solution limit, no special casing.

    Independent of the closed forms; used as their oracle.
    """
    kc = complex(k)
    if kc == 0.0:
        raise ValueError("transfer matrix S undefined at k = 0 (exterior threshold)")
    total = sum(w for w, _ in layers)
    x0 = -0.5 * total
    P = _EYE
    for width, value in layers:
        if width <= 0.0:
            raise ValueError(f"layer width must be positive, got {width}")
        q2 = kc * kc - 2.0 * m * coupling.gamma * complex(value)
        q = cmath.sqrt(q2)
        c = cmath.cos(q * width)
        so = width * _msinc(q * width)  # sin(q w)/q, regular at q = 0
        P = _matmul(((c, so), (-q2 * so, c)), P)
    xN = x0 + total
    B = ((1.0, 1.0), (1j * kc, -1j * kc))
    B_inv = ((0.5, -0.5j / kc), (0.5, 0.5j / kc))
    (m00, m01), (m10, m11) = _matmul(_matmul(B_inv, P), B)
    detM = m00 * m11 - m01 * m10
    s11 = _exp(1j * kc * (x0 - xN)) * detM / m11
    s12 = m01 / m11 * _exp(-2j * kc * xN)
    return SMatrixValue(k=kc, s11=s11, s12=s12)
