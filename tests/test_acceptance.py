"""Acceptance gate: the nine product-level checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check is self-contained: scalar oracles are recomputed in place and
chart coordinates are locked to the values of the first verified run.
"""

from __future__ import annotations

import functools
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from wellpoles import cli
from wellpoles.chart import (
    _inventory_key,
    bound_threshold,
    build_chart,
    critical_depth,
    threshold_flip,
    working_window,
)
from wellpoles.errors import WellpolesError
from wellpoles.rootfinder import count_zeros_padded, scan_axis
from wellpoles.smatrix import (
    Channel,
    ComplexCoupling,
    PotentialSpec,
    denom_full,
    denom_minus,
    denom_plus,
    parity_channels,
    s_full,
    s_minus,
    s_plus,
    verify_relations,
)
from wellpoles import trajectory
from wellpoles.trajectory import trace

from trajectory_checks import mirror_defect, point_at
from transfer_oracle import transfer_matrix_s, well_layers

M, A = 1.0, 1.5
ATT = ComplexCoupling.attractive()
REP = ComplexCoupling.repulsive()
KC = -1j / A

PLUS_DEPTHS = (0.09, 0.1, 1.0, 1.95, 2.0, 3.0)
MINUS_DEPTHS = (0.02, 0.2, 2.0, 4.7, 4.8, 5.0)

# regression lock: topology, on-axis poles at both real couplings, and the
# full pole inventory at coupling +1 (window-restricted), frozen from the
# first verified run at full precision
PLUS_LOCK = {
    0.09: {
        "topology": {"closed_2pi": 1, "open": 1},
        "axis_att": [(0.2197277744451186j, "bound")],
        "axis_rep": [
            (-0.9115191862697131j, "virtual"),
            (-0.45793740602342864j, "virtual"),
        ],
        "inventory": [
            (-6.029446501101069 - 2.2815426367449025j),
            (-3.8490244410807306 - 2.024115116588867j),
            (-1.5365917131216065 - 1.5920269802651534j),
            0.2197277744451186j,
            (1.5365917131216105 - 1.5920269802651486j),
            (3.8490244410807226 - 2.0241151165888582j),
            (6.02944650110107 - 2.2815426367449363j),
        ],
    },
    0.1: {
        "topology": {"open": 1},
        "axis_att": [(0.2398805076683154j, "bound")],
        "axis_rep": [],
        "inventory": [
            (-6.031524957664199 - 2.245871955087211j),
            (-3.852131835990366 - 1.9879139253078086j),
            (-1.5430620806339967 - 1.553099502875203j),
            0.2398805076683154j,
            (1.5430620806339967 - 1.553099502875203j),
            (3.852131835990366 - 1.9879139253078086j),
            (6.031524957664199 - 2.245871955087211j),
        ],
    },
    1.0: {
        "topology": {"open": 1},
        "axis_att": [(1.2280834778463066j, "bound")],
        "axis_rep": [],
        "inventory": [
            (-8.127005616319192 - 1.6698092102399686j),
            (-5.968139186235882 - 1.4877221380355103j),
            (-3.752593386424532 - 1.237014781223893j),
            (-1.2711778773114273 - 0.8281194907489828j),
            1.2280834778463066j,
            (1.2711778773114273 - 0.8281194907489828j),
            (3.752593386424532 - 1.237014781223893j),
            (5.968139186235882 - 1.4877221380355103j),
            (8.127005616319192 - 1.6698092102399686j),
        ],
    },
    1.95: {
        "topology": {"open": 1},
        "axis_att": [(1.8153723559398296j, "bound")],
        "axis_rep": [],
        "inventory": [
            (-8.028948847371202 - 1.457909477391113j),
            (-5.834214510544298 - 1.2810575664374642j),
            (-3.536087221788144 - 1.0415403542888806j),
            (-0.14848083196081657 - 0.6680804623230564j),
            1.8153723559398296j,
            (0.14848083196081657 - 0.6680804623230564j),
            (3.536087221788144 - 1.0415403542888806j),
            (5.834214510544298 - 1.2810575664374642j),
            (8.028948847371202 - 1.457909477391113j),
        ],
    },
    2.0: {
        "topology": {"closed_4pi": 1, "open": 1},
        "axis_att": [
            (-0.9207432348573997j, "virtual"),
            (-0.4041815185991784j, "virtual"),
            (1.841595559696953j, "bound"),
        ],
        "axis_rep": [],
        "inventory": [
            (-8.023472918773642 - 1.450007328283246j),
            (-5.826686359927149 - 1.273406618591075j),
            (-3.5236538358092355 - 1.0344088756443246j),
            1.841595559696953j,
            -0.9207432348573997j,
            -0.4041815185991784j,
            (3.5236538358092355 - 1.0344088756443246j),
            (5.826686359927149 - 1.273406618591075j),
            (8.023472918773642 - 1.450007328283246j),
        ],
    },
    3.0: {
        "topology": {"closed_4pi": 1, "open": 1},
        "axis_att": [
            (-1.952151842020751j, "virtual"),
            (0.7983738643070221j, "bound"),
            (2.3082619633347976j, "bound"),
        ],
        "axis_rep": [],
        "inventory": [
            (-10.091244369134282 - 1.4624351533592679j),
            (-7.910178729235437 - 1.3250294926835036j),
            (-5.669791323023427 - 1.1530233311342508j),
            (-3.2574867279182778 - 0.9232953098363342j),
            -1.952151842020751j,
            0.7983738643070221j,
            2.3082619633347976j,
            (3.2574867279182778 - 0.9232953098363342j),
            (5.669791323023427 - 1.1530233311342508j),
            (7.910178729235437 - 1.3250294926835036j),
            (10.091244369134282 - 1.4624351533592679j),
        ],
    },
}

MINUS_LOCK = {
    0.02: {
        "topology": {"open": 1},
        "axis_att": [(-2.008210893781268j, "virtual")],
        "axis_rep": [],
        "inventory": [
            (-4.898916639334864 - 2.6837152029582474j),
            (-2.649093417358215 - 2.386393082016935j),
            -2.008210893781268j,
            (2.649093417358215 - 2.386393082016935j),
            (4.898916639334864 - 2.6837152029582474j),
        ],
    },
    0.2: {
        "topology": {"open": 1},
        "axis_att": [(-0.7361808512500915j, "virtual")],
        "axis_rep": [],
        "inventory": [
            (-4.959021624221599 - 1.895552158748632j),
            (-2.7462495019214996 - 1.569395856160831j),
            -0.7361808512500915j,
            (2.7462495019214996 - 1.569395856160831j),
            (4.959021624221599 - 1.895552158748632j),
        ],
    },
    2.0: {
        "topology": {"open": 1},
        "axis_att": [(1.300732268380156j, "bound")],
        "axis_rep": [],
        "inventory": [
            (-9.10523212106998 - 1.5236460116553108j),
            (-6.932253601223143 - 1.3674159935315624j),
            (-4.697458548405922 - 1.1643259597408626j),
            (-2.241169654448872 - 0.873705628735901j),
            1.300732268380156j,
            (2.241169654448872 - 0.873705628735901j),
            (4.697458548405922 - 1.1643259597408626j),
            (6.932253601223143 - 1.3674159935315624j),
            (9.10523212106998 - 1.5236460116553108j),
        ],
    },
    4.7: {
        "topology": {"open": 1},
        "axis_att": [(2.550111080387467j, "bound")],
        "axis_rep": [],
        "inventory": [
            (-11.026599388478193 - 1.382425298641044j),
            (-8.827004704322077 - 1.2606595229329447j),
            (-6.562744985136683 - 1.1127567053170715j),
            (-4.132659787717441 - 0.9247047021843938j),
            (-0.1313257233062688 - 0.6670942752786212j),
            2.550111080387467j,
            (0.1313257233062688 - 0.6670942752786212j),
            (4.132659787717441 - 0.9247047021843938j),
            (6.562744985136683 - 1.1127567053170715j),
            (8.827004704322077 - 1.2606595229329447j),
            (11.026599388478193 - 1.382425298641044j),
        ],
    },
    4.8: {
        "topology": {"closed_4pi": 1, "open": 1},
        "axis_att": [
            (-1.078844053743219j, "virtual"),
            (-0.24600441907368323j, "virtual"),
            (2.586594326302349j, "bound"),
        ],
        "axis_rep": [],
        "inventory": [
            (-11.017987315258878 - 1.3759642062639268j),
            (-8.816247527921668 - 1.2543621843157196j),
            (-6.548270434082172 - 1.1067171692298234j),
            (-4.109618282384776 - 0.9191138831736799j),
            2.586594326302349j,
            -1.078844053743219j,
            -0.24600441907368323j,
            (4.109618282384776 - 0.9191138831736799j),
            (6.548270434082172 - 1.1067171692298234j),
            (8.816247527921668 - 1.2543621843157196j),
            (11.017987315258878 - 1.3759642062639268j),
        ],
    },
    5.0: {
        "topology": {"closed_4pi": 1, "open": 1},
        "axis_att": [
            (-1.3986419695071621j, "virtual"),
            (0.09178501151509738j, "bound"),
            (2.65825027459033j, "bound"),
        ],
        "axis_rep": [],
        "inventory": [
            (-11.00071535311523 - 1.3634597645621318j),
            (-8.794658721602005 - 1.2421806785670975j),
            (-6.5191769075635815 - 1.0950430747610682j),
            (-4.063064816140934 - 0.908320360509963j),
            -1.3986419695071621j,
            0.09178501151509738j,
            2.6582502745903294j,
            (4.063064816140934 - 0.908320360509963j),
            (6.5191769075635815 - 1.0950430747610682j),
            (8.794658721602005 - 1.2421806785670975j),
            (11.00071535311523 - 1.3634597645621318j),
        ],
    },
}

LOCK_TOL = 1e-9


def criterion(num: int, label: str):
    """Print one verdict line per check, after the asserts have spoken."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL", flush=True)
                raise
            print(f"criterion {num} ({label}): PASS", flush=True)

        return wrapper

    return deco


@lru_cache(maxsize=None)
def _chart(channel_name: str, U: float):
    return build_chart(PotentialSpec(M, A, U), Channel.parse(channel_name))


@lru_cache(maxsize=None)
def _oracle_depths() -> tuple[float, float, float]:
    """Collision depths from the three scalar equations, solved directly."""
    y = brentq(lambda t: t * math.tanh(t) - 1.0, 1e-6, 3.0, xtol=1e-14)
    u_plus_rep = (y * y - 1.0) / (2 * M * A * A)
    x = brentq(lambda t: t * math.tan(t) + 1.0,
               math.pi / 2 + 1e-9, math.pi - 1e-9, xtol=1e-14)
    u_plus_att = (x * x + 1.0) / (2 * M * A * A)
    x2 = brentq(lambda t: math.tan(t) - t,
                math.pi + 1e-6, 1.5 * math.pi - 1e-9, xtol=1e-14)
    u_minus_att = (x2 * x2 + 1.0) / (2 * M * A * A)
    return u_plus_rep, u_plus_att, u_minus_att


def _assert_pole_lists_match(frozen, computed):
    assert len(computed) == len(frozen)
    for (k_ref, kind_ref), pole in zip(frozen, computed):
        assert abs(pole.k - k_ref) < LOCK_TOL
        assert pole.kind.value == kind_ref


def _assert_inventory_matches(frozen, computed):
    # both lists in the chart's canonical order: an axis pole's place must
    # not hang on the sign of its roundoff real part
    assert len(computed) == len(frozen)
    for k_ref, k in zip(sorted(frozen, key=_inventory_key),
                        sorted(computed, key=_inventory_key)):
        assert abs(k - k_ref) < LOCK_TOL


def _check_sweep(lock, channel):
    for U, entry in lock.items():
        chart = _chart(channel, U)
        assert dict(chart.topology) == entry["topology"], (channel, U)
        spec = PotentialSpec(M, A, U)
        _assert_pole_lists_match(entry["axis_att"],
                                 scan_axis(spec, ATT, chart.channel))
        _assert_pole_lists_match(entry["axis_rep"],
                                 scan_axis(spec, REP, chart.channel))
        _assert_inventory_matches(
            entry["inventory"],
            chart.anchor_poles(0, working_window(spec)),
        )


@criterion(1, "analytic identities")
def test_identity_suite():
    rng = np.random.default_rng(20260816)
    evaluated = 0
    for _ in range(200):
        k = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        c = ComplexCoupling(rng.uniform(-np.pi, np.pi))
        s = PotentialSpec(M, A, rng.uniform(0.05, 5.0))
        try:
            rel = verify_relations(k, c, s)
            v = s_full(k, c, s)
            sp = s_plus(k, c, s)
            sm = s_minus(k, c, s)
        except WellpolesError:
            continue
        evaluated += 1
        assert rel["transpose_inverse"] < 1e-10
        assert rel["hermitian_adjoint"] < 1e-10
        assert rel["conjugation"] < 1e-10
        # transmission symmetry, exact as computed
        mat = np.asarray(v.matrix)
        assert mat[0, 0] == mat[1, 1] and mat[0, 1] == mat[1, 0]
        # parity diagonalization reproduces the channel eigenvalues
        hp, hm = parity_channels(v)
        assert abs(hp - sp) <= 1e-12 * (1.0 + abs(sp))
        assert abs(hm - sm) <= 1e-12 * (1.0 + abs(sm))
        # factorization into channel denominators, scaled domain
        Kv = np.sqrt(k * k + 2 * s.m * c.gamma * s.U + 0j)
        E2 = np.exp(-2.0 * abs((s.a * Kv).imag))
        term_scale = 1.0 + 2 * abs(k) * abs(Kv) + abs(k) ** 2 + abs(Kv) ** 2
        lhs = denom_full(k, c, s)
        rhs = 2.0 * denom_plus(k, c, s) * denom_minus(k, c, s)
        assert abs(lhs - rhs) * E2 <= 1e-12 * term_scale
    assert evaluated >= 190
    # unitarity where it must hold: real momentum, real coupling
    rng = np.random.default_rng(31415)
    checked = 0
    for _ in range(200):
        k = complex(rng.uniform(0.01, 8.0), 0.0)
        c = ATT if rng.uniform() < 0.5 else REP
        s = PotentialSpec(M, A, rng.uniform(0.05, 5.0))
        try:
            sp, sm = s_plus(k, c, s), s_minus(k, c, s)
        except WellpolesError:
            continue
        checked += 1
        assert abs(abs(sp) - 1.0) < 1e-12
        assert abs(abs(sm) - 1.0) < 1e-12
    assert checked >= 190


@criterion(2, "transfer-matrix oracle")
def test_oracle_equivalence():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(100):
        k = complex(rng.uniform(0.05, 6.0), 0.0)
        c = ComplexCoupling(rng.uniform(-np.pi, np.pi))
        s = PotentialSpec(M, A, rng.uniform(0.05, 5.0))
        try:
            va = s_full(k, c, s)
        except WellpolesError:
            continue
        checked += 1
        vt = transfer_matrix_s(k, c, well_layers(s), m=s.m)
        assert abs(va.s11 - vt.s11) <= 1e-8 * (1.0 + abs(vt.s11))
        assert abs(va.s12 - vt.s12) <= 1e-8 * (1.0 + abs(vt.s12))
    assert checked >= 95
    # cutting the single layer in two must not move the oracle
    for _ in range(40):
        k = complex(rng.uniform(0.05, 6.0), 0.0)
        c = ComplexCoupling(rng.uniform(-np.pi, np.pi))
        U = rng.uniform(0.05, 5.0)
        one = transfer_matrix_s(k, c, [(2 * A, -U)], m=M)
        two = transfer_matrix_s(k, c, [(A, -U), (A, -U)], m=M)
        assert abs(one.s11 - two.s11) <= 1e-10 * (1.0 + abs(one.s11))
        assert abs(one.s12 - two.s12) <= 1e-10 * (1.0 + abs(one.s12))


@criterion(3, "even-channel sweep")
def test_plus_sweep_topologies():
    _check_sweep(PLUS_LOCK, "plus")
    # shallow well: one attractive bound state, two repulsive virtuals
    spec = PotentialSpec(M, A, 0.09)
    att = scan_axis(spec, ATT, Channel.PLUS)
    rep = scan_axis(spec, REP, Channel.PLUS)
    assert [p.kind.value for p in att] == ["bound"]
    assert [p.kind.value for p in rep] == ["virtual", "virtual"]


@criterion(4, "odd-channel sweep")
def test_minus_sweep_topologies():
    _check_sweep(MINUS_LOCK, "minus")
    # the first odd bound state appears between U=0.2 and U=2
    kinds_shallow = [
        p.kind.value for p in scan_axis(PotentialSpec(M, A, 0.2), ATT, Channel.MINUS)
    ]
    kinds_deep = [
        p.kind.value for p in scan_axis(PotentialSpec(M, A, 2.0), ATT, Channel.MINUS)
    ]
    assert "bound" not in kinds_shallow
    assert "bound" in kinds_deep


@criterion(5, "critical depths")
def test_critical_depths():
    u_plus_rep, u_plus_att, u_minus_att = _oracle_depths()
    cases = [
        (Channel.PLUS, False, u_plus_rep, (0.09, 0.1)),
        (Channel.PLUS, True, u_plus_att, (1.95, 2.0)),
        (Channel.MINUS, True, u_minus_att, (4.7, 4.8)),
    ]
    for ch, att, u_ref, (lo, hi) in cases:
        cd = critical_depth(ch, att, m=M, a=A)
        assert lo < cd.U < hi
        assert abs(cd.U - u_ref) < 1e-8
        assert cd.pair_count == 2
        # the collision the tracer actually records sits at k = -i/a
        chart = build_chart(PotentialSpec(M, A, u_ref), ch, certify=False)
        assert chart.collisions
        for ev in chart.collisions:
            assert abs(ev.k - KC) < 1e-6


@criterion(6, "bound-state threshold")
def test_minus_threshold():
    closed = bound_threshold(Channel.MINUS, 1, m=M, a=A)
    assert abs(closed - math.pi ** 2 / (8 * M * A * A)) < 1e-6
    assert abs(closed - 0.5483) < 5e-5
    flip = threshold_flip(Channel.MINUS, 0.4, 0.7, m=M, a=A, tol=1e-6)
    assert abs(flip - closed) < 1e-4


@criterion(7, "completeness certificates")
def test_completeness_certificates():
    for channel, depths in (("plus", PLUS_DEPTHS), ("minus", MINUS_DEPTHS)):
        for U in depths:
            cert = _chart(channel, U).completeness
            assert cert is not None
            assert cert["complete"], (channel, U, cert)
            assert cert["window_count"] == cert["trajectory_count"]
    # a coalesced pair is still counted as two zeros by the contour count
    u_plus_rep, u_plus_att, u_minus_att = _oracle_depths()
    boxes = [
        (u_plus_rep, REP, Channel.PLUS),
        (u_plus_att, ATT, Channel.PLUS),
        (u_minus_att, ATT, Channel.MINUS),
    ]
    # the square of half-side 1e-3 about k = KC, in q = k*A
    h, y = 1e-3 * A, KC.imag * A
    for u_star, coup, ch in boxes:
        s = PotentialSpec(M, A, u_star).c ** 2 * coup.gamma.real
        assert count_zeros_padded(h, y - h, y + h, s, ch) == 2


@criterion(8, "continuation robustness")
def test_continuation_robustness():
    # mirror symmetry k -> -conj(k) of every chart, as a sup of projection
    # distances of mirrored samples onto the pole set
    for channel, depths in (("plus", PLUS_DEPTHS), ("minus", MINUS_DEPTHS)):
        for U in depths:
            chart = _chart(channel, U)
            for traj in chart.trajectories:
                assert mirror_defect(traj, chart.spec) < 1e-8
    # a finer march (half the initial step, 1/4096 of the local error
    # tolerance, so steps about a sixteenth as long) retraces the same curves
    for channel, U in (("plus", 2.0), ("minus", 5.0)):
        chart = _chart(channel, U)
        spec = chart.spec
        for traj in chart.trajectories:
            # scoped, so that no later chart marches on the finer schedule
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(trajectory, "_STEP_INITIAL", 0.005)
                mp.setattr(trajectory, "_LOCAL_ERROR_TOL", trajectory._LOCAL_ERROR_TOL / 4096)
                fine = trace(traj.seed, +1, spec)
            coarse_anchors = dict(traj.anchors)
            fine_anchors = dict(fine.anchors)
            common = set(coarse_anchors) & set(fine_anchors)
            assert common
            for n in common:
                assert abs(coarse_anchors[n] - fine_anchors[n]) < 1e-8
            lo = min(fine.alphas[0], fine.alphas[-1])
            hi = max(fine.alphas[0], fine.alphas[-1])
            step = max(1, len(traj.alphas) // 40)
            for i in range(5, len(traj.alphas) - 5, step):
                al = traj.alphas[i]
                if lo <= al <= hi:
                    assert abs(point_at(fine, al, spec) - traj.ks[i]) < 1e-8


@criterion(9, "byte determinism")
def test_byte_identical_runs(tmp_path, capsys):
    pairs = []
    for name, argv in (
        ("chart", ["chart", "--U", "2", "--channel", "plus"]),
        ("axis", ["axis", "--U", "3", "--channel", "minus"]),
        ("sweep", ["sweep", "--channel", "plus", "--depths", "1.95,2.0"]),
        ("verify", ["verify", "--samples", "50", "--seed", "11"]),
    ):
        first = tmp_path / f"{name}_1.json"
        second = tmp_path / f"{name}_2.json"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        pairs.append((name, first.read_bytes(), second.read_bytes()))
    capsys.readouterr()
    for name, b1, b2 in pairs:
        assert b1 == b2, name
        json.loads(b1)
