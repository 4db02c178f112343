"""Closed-form S-matrix: identities, oracles, and special points."""

from __future__ import annotations

import cmath
import enum
import math
import pickle

import numpy as np
import pytest

import wellpoles as wp
from wellpoles import Channel, ComplexCoupling, PotentialSpec

from transfer_oracle import transfer_matrix_s, well_layers

SPEC = PotentialSpec(m=1.0, a=1.5, U=2.0)
ATT = ComplexCoupling.attractive()
REP = ComplexCoupling.repulsive()

RTOL_IDENT = 1e-11
RTOL_ORACLE = 1e-9

# refined axis poles (k = i*kappa), frozen from converged Newton runs and
# cross-checked against the transfer-matrix oracle below
GROUND_U3 = 2.3082619633347976j
EXCITED_U3 = 0.7983738643070221j
VIRTUAL_U3 = -1.9521518420207506j
BOUND_U2 = 1.841595559696953j


def random_samples(n, seed, box=4.0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        c = ComplexCoupling(rng.uniform(-np.pi, np.pi))
        s = PotentialSpec(1.0, 1.5, rng.uniform(0.05, 5.0))
        yield k, c, s


class TestTypes:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec(m=0.0)
        with pytest.raises(ValueError):
            PotentialSpec(a=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec(U=-0.5)
        with pytest.raises(ValueError):
            ComplexCoupling(float("nan"))

    def test_depth_limit(self):
        # c = a*sqrt(2 m U) is exactly the limit here, and past it 1e-12 deeper
        assert PotentialSpec(m=0.5, a=1.0, U=1e8).c == wp.smatrix.C_LIMIT
        with pytest.raises(ValueError, match="exceeds its limit 10000 at m=0.5, a=1.0, U="):
            PotentialSpec(m=0.5, a=1.0, U=1e8 * (1.0 + 1e-12))

    def test_coupling_snaps_at_axes(self):
        assert ComplexCoupling(0.0).gamma == 1.0 + 0.0j
        assert ComplexCoupling(np.pi).gamma == -1.0 + 0.0j
        assert ComplexCoupling(-np.pi).gamma == -1.0 + 0.0j
        assert ComplexCoupling(np.pi / 2).gamma == 1.0j
        assert ComplexCoupling(3 * (np.pi / 2)).gamma == -1.0j
        g = ComplexCoupling(0.3).gamma
        assert abs(g - np.exp(0.3j)) < 1e-15
        assert ComplexCoupling(np.pi).is_real and not ComplexCoupling(0.3).is_real

    def test_channel_parse(self):
        assert Channel.parse(" Plus ") is Channel.PLUS
        assert Channel.parse("minus") is Channel.MINUS
        with pytest.raises(ValueError):
            Channel.parse("even")

    def test_full_value_is_symmetric(self):
        v = wp.s_full(1.3 + 0.2j, ATT, SPEC)
        mat = np.asarray(v.matrix)
        assert mat[0, 0] == mat[1, 1]
        assert mat[0, 1] == mat[1, 0]


class TestChannelHash:
    """A channel hashes by identity, in C: its members are singletons that
    compare by identity, so equal channels still hash equal."""

    def test_hash_is_identity_consistent(self):
        assert Channel.__hash__ is object.__hash__
        table = {Channel.PLUS: "even", Channel.MINUS: "odd"}
        for name, label in (("plus", "even"), (" MINUS", "odd")):
            channel = Channel.parse(name)
            assert hash(channel) == hash(Channel(name.strip().lower()))
            assert table[channel] == label
            copy = pickle.loads(pickle.dumps(channel))
            assert copy is channel and hash(copy) == hash(channel)
        assert Channel.PLUS != Channel.MINUS and Channel.PLUS != "plus"

    def test_collision_caches_find_a_parsed_channel(self):
        wp.rootfinder.collision_x(Channel.MINUS, True, 2)
        hits = wp.rootfinder.collision_x.cache_info().hits
        wp.rootfinder.collision_x(Channel.parse("minus"), True, 2)
        assert wp.rootfinder.collision_x.cache_info().hits == hits + 1
        wp.rootfinder.collision_pair_count(Channel.PLUS, True, 1)
        hits = wp.rootfinder.collision_pair_count.cache_info().hits
        wp.rootfinder.collision_pair_count(Channel.parse("plus"), True, 1)
        assert wp.rootfinder.collision_pair_count.cache_info().hits == hits + 1

    def test_depth_analysis_calls_no_enum_hash(self, monkeypatch):
        # the collision caches and walks key on a channel; none of them
        # reaches the Python-level Enum.__hash__
        reference = [wp.critical_depth(Channel.PLUS, True),
                     wp.critical_depth(Channel.PLUS, False),
                     wp.critical_depth(Channel.MINUS, True, index=2),
                     wp.depth_sweep(Channel.MINUS, [2.0, 4.0, 9.0])]

        def refuse(self):
            raise AssertionError(f"Enum.__hash__ called on {self!r}")

        monkeypatch.setattr(enum.Enum, "__hash__", refuse)
        assert [wp.critical_depth(Channel.PLUS, True),
                wp.critical_depth(Channel.PLUS, False),
                wp.critical_depth(Channel.MINUS, True, index=2),
                wp.depth_sweep(Channel.MINUS, [2.0, 4.0, 9.0])] == reference


class TestInteriorMomentum:
    def test_exact_at_origin(self):
        assert wp.interior_momentum(0.0, ATT, SPEC) == 2.0 + 0.0j  # sqrt(2*m*U) with U=2

    def test_branch_point(self):
        k = 1j * np.sqrt(2 * SPEC.m * SPEC.U)
        assert abs(wp.interior_momentum(k, ATT, SPEC)) ** 2 < 1e-15

    def test_principal_branch(self):
        for k, c, s in random_samples(50, 3):
            K = wp.interior_momentum(k, c, s)
            w = k * k + 2.0 * s.m * c.gamma * s.U
            assert K.real >= 0.0 or (K.real == 0.0 and K.imag >= 0.0)
            assert abs(K * K - w) < 1e-12 * (1 + abs(w))


class TestDenominatorIdentities:
    def test_full_factorizes_into_channels(self):
        # D_full = 2 * D_plus * D_minus at generic complex (k, gamma, U).
        # Both sides are differences of terms ~ e^{2|Im aK|} * poly(k, K);
        # floating point can certify the identity only relative to that term
        # scale, so the residual is measured in the scaled domain where the
        # exponential factor drops out.
        for k, c, s in random_samples(200, 5):
            Df = wp.denom_full(k, c, s)
            Dp = wp.denom_plus(k, c, s)
            Dm = wp.denom_minus(k, c, s)
            Kv = wp.interior_momentum(k, c, s)
            E2 = np.exp(-2.0 * abs((s.a * Kv).imag))
            term_scale = 1.0 + 2 * abs(k) * abs(Kv) + abs(k) ** 2 + abs(Kv) ** 2
            assert abs(Df - 2.0 * Dp * Dm) * E2 <= 1e-12 * term_scale

    def test_plus_even_under_interior_sign_flip(self):
        # direct evaluation with +K and -K agrees with the library value
        for k, c, s in random_samples(80, 6):
            Kv = wp.interior_momentum(k, c, s)
            lib = wp.denom_plus(k, c, s)
            for Ks in (Kv, -Kv):
                direct = k * np.cos(Ks * s.a) - 1j * Ks * np.sin(Ks * s.a)
                assert abs(direct - lib) <= 1e-11 * (1.0 + abs(lib))

    def test_minus_literal_is_odd_under_interior_sign_flip(self):
        for k, c, s in random_samples(80, 7):
            Kv = wp.interior_momentum(k, c, s)
            lib = wp.denom_minus(k, c, s)
            d_pos = Kv * np.cos(Kv * s.a) - 1j * k * np.sin(Kv * s.a)
            d_neg = (-Kv) * np.cos(Kv * s.a) - 1j * k * np.sin(-Kv * s.a)
            assert abs(d_pos - lib) <= 1e-11 * (1.0 + abs(lib))
            assert abs(d_neg + lib) <= 1e-11 * (1.0 + abs(lib))

    def test_minus_reduced_strips_spurious_branch_zero(self):
        # literal odd denominator vanishes at K=0; the reduced one does not
        k = 1j * np.sqrt(2 * SPEC.m * SPEC.U)
        assert abs(wp.denom_minus(k, ATT, SPEC)) < 1e-7
        assert abs(wp.denom_minus_reduced(k, ATT, SPEC)) > 0.1
        # so the odd channel's poles are the reduced form's zeros
        for channel, denom in ((Channel.PLUS, wp.denom_plus),
                               (Channel.MINUS, wp.denom_minus_reduced)):
            poles = wp.scan_axis(SPEC, ATT, channel)
            assert poles
            for pole in poles:
                assert abs(denom(pole.k, ATT, SPEC)) < 1e-13

    def test_free_particle_plus_denominator(self):
        # at U=0 the even denominator is k*exp(-ika): zeros only at k=0
        s0 = PotentialSpec(1.0, 1.5, 0.0)
        for k in np.linspace(0.05, 6.0, 25):
            assert abs(abs(wp.denom_plus(k, ATT, s0)) - k) < 1e-12 * (1 + k)


class TestChannelValues:
    def test_parity_transform_recovers_channels(self):
        for k, c, s in random_samples(100, 8):
            try:
                v = wp.s_full(k, c, s)
                sp = wp.s_plus(k, c, s)
                sm = wp.s_minus(k, c, s)
            except wp.PoleHit:
                continue
            hp, hm = wp.parity_channels(v)
            assert abs(hp - sp) <= RTOL_IDENT * (1.0 + abs(sp))
            assert abs(hm - sm) <= RTOL_IDENT * (1.0 + abs(sm))

    def test_free_particle_is_transparent(self):
        s0 = PotentialSpec(1.0, 1.5, 0.0)
        for k in (0.7, 2.3, 1.1 - 0.4j):
            assert abs(wp.s_plus(k, ATT, s0) - 1.0) < 1e-12
            assert abs(wp.s_minus(k, ATT, s0) - 1.0) < 1e-12
            v = wp.s_full(k, ATT, s0)
            assert abs(v.s11 - 1.0) < 1e-12 and abs(v.s12) < 1e-12

    def test_plus_value_at_origin(self):
        assert wp.s_plus(0.0, ATT, SPEC) == -1.0 + 0.0j

    def test_minus_regular_at_branch_point(self):
        k = 1j * np.sqrt(2 * SPEC.m * SPEC.U)
        v = wp.s_minus(k, ATT, SPEC)
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        vt = transfer_matrix_s(k, ATT, well_layers(SPEC), m=SPEC.m)
        hp, hm = wp.parity_channels(vt)
        assert abs(v - hm) < 1e-7 * (1.0 + abs(v))

    def test_unitary_on_real_axis_real_coupling(self):
        for U, c in ((2.0, ATT), (0.7, REP)):
            s = PotentialSpec(1.0, 1.5, U)
            for k in np.linspace(0.1, 5.0, 40):
                assert abs(abs(wp.s_plus(k, c, s)) - 1.0) < 1e-12
                assert abs(abs(wp.s_minus(k, c, s)) - 1.0) < 1e-12
                v = np.asarray(wp.s_full(k, c, s).matrix)
                assert np.abs(v @ v.conj().T - np.eye(2)).max() < 1e-11

    def test_unitary_past_the_unscaled_float_range(self):
        # |Im aK| = 710.46: the unscaled odd denominator is finite but its
        # modulus overflows, so the pole test compares scaled values
        c = ComplexCoupling(np.pi)
        s = PotentialSpec(1.0, 105.25285033893887, 27.54481086393272)
        k = 3.086597848979629
        for value in (wp.s_plus(k, c, s), wp.s_minus(k, c, s)):
            assert abs(abs(value) - 1.0) < 1e-12

    def test_full_matrix_past_the_double_angle_range(self):
        # |Im 2aK| = 1420.9, where a double-angle e^{-|Im 2aK|} underflows
        # to 0; s_full's E^2 = e^{-2|Im aK|} sits inside the exponent of s11
        c = ComplexCoupling(np.pi)
        s = PotentialSpec(1.0, 105.25285033893887, 27.54481086393272)
        k = 3.086597848979629
        value = wp.s_full(k, c, s)
        assert cmath.isfinite(value.s11) and cmath.isfinite(value.s12)
        assert abs(abs(value.s11) ** 2 + abs(value.s12) ** 2 - 1.0) < 1e-12
        plus, minus = wp.parity_channels(value)
        assert abs(plus - wp.s_plus(k, c, s)) < 1e-12
        assert abs(minus - wp.s_minus(k, c, s)) < 1e-12


class TestPoles:
    def test_pole_hit_raised_at_refined_pole(self):
        with pytest.raises(wp.PoleHit):
            wp.s_plus(GROUND_U3, ATT, PotentialSpec(1.0, 1.5, 3.0))
        with pytest.raises(wp.PoleHit):
            wp.s_full(GROUND_U3, ATT, PotentialSpec(1.0, 1.5, 3.0))

    def test_magnitude_blows_up_near_pole(self):
        s3 = PotentialSpec(1.0, 1.5, 3.0)
        for kp in (GROUND_U3, EXCITED_U3, VIRTUAL_U3):
            assert abs(wp.s_plus(kp + 1e-10, ATT, s3)) > 1e6

    def test_transfer_oracle_confirms_pole(self):
        # 1/S must vanish at the closed-form pole for the independent oracle
        s3 = PotentialSpec(1.0, 1.5, 3.0)
        vt = transfer_matrix_s(GROUND_U3 + 1e-9, ATT, well_layers(s3), m=s3.m)
        hp, hm = wp.parity_channels(vt)
        assert abs(1.0 / hp) < 1e-6

    def test_residual_scale_at_bound_pole(self):
        d = wp.denom_plus(BOUND_U2, ATT, SPEC)
        assert abs(d) < 1e-13 * (1.0 + abs(BOUND_U2))


class TestTransferOracle:
    def test_single_layer_matches_closed_form(self):
        worst = 0.0
        for k, c, s in random_samples(60, 9):
            if abs(k) < 0.05:
                continue
            try:
                va = wp.s_full(k, c, s)
            except wp.PoleHit:
                continue
            vt = transfer_matrix_s(k, c, well_layers(s), m=s.m)
            scale = 1.0 + np.abs(va.matrix).max()
            worst = max(worst, np.abs(np.asarray(va.matrix) - vt.matrix).max() / scale)
        assert worst < RTOL_ORACLE

    def test_layer_splitting_invariance(self):
        k, c, s = 1.7 - 0.8j, ComplexCoupling(2.1), SPEC
        one = transfer_matrix_s(k, c, [(2 * s.a, -s.U)], m=s.m)
        three = transfer_matrix_s(
            k, c, [(s.a / 2, -s.U), (s.a, -s.U), (s.a / 2, -s.U)], m=s.m
        )
        assert np.abs(np.asarray(one.matrix) - three.matrix).max() < 1e-10

    def test_zero_potential_layer_transparent(self):
        v = transfer_matrix_s(1.3, ATT, [(2.0, 0.0)], m=1.0)
        assert abs(v.s11 - 1.0) < 1e-12 and abs(v.s12) < 1e-12

    def test_degenerate_layer_linear_limit(self):
        # layer tuned to zero interior momentum: k^2 = 2*m*gamma*V
        k = 1.0
        layers = [(1.0, 0.5)]
        v0 = transfer_matrix_s(k, ATT, layers, m=1.0)
        v1 = transfer_matrix_s(k * (1 + 1e-7), ATT, layers, m=1.0)
        assert np.isfinite(v0.matrix).all()
        assert np.abs(np.asarray(v0.matrix) - v1.matrix).max() < 1e-5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            transfer_matrix_s(0.0, ATT, [(1.0, 0.5)])
        with pytest.raises(ValueError):
            transfer_matrix_s(1.0, ATT, [(-1.0, 0.5)])


class TestAnalyticRelations:
    def test_relations_hold_at_random_points(self):
        worst = 0.0
        for k, c, s in random_samples(120, 10):
            try:
                r = wp.verify_relations(k, c, s)
            except wp.PoleHit:
                continue
            worst = max(worst, max(r.values()))
        assert worst < 1e-10

    def test_each_identity_reads_its_own_arithmetic(self):
        # at a = 300 the factorization leaves the float range at this
        # sample; the diagonalization and the conjugation stay finite
        k = 4.287116956668552 - 1.278890758326907j
        r = wp.verify_relations(k, ComplexCoupling(4.667746449385366), PotentialSpec(1.0, 300.0, 1.0))
        assert r["diagonalization"] == 0.0 and r["conjugation"] == 0.0
        assert math.isnan(r["factorization"])

    def test_shallow_sample_is_finite_and_accurate(self):
        # a double-angle F = D_full/(2K) is 0 in floats at this sample; from
        # the channel factorization s11 agrees with mpmath
        # (1.52271428307e-22 - 4.73628332179e-22j, 80 digits) to about 5e-7,
        # the error of the channel pole functions themselves
        v = wp.s_full(-5.598771747806346 - 2.362450065458871j, ComplexCoupling(1.877346012943804),
                      PotentialSpec(1.0, 10.0, 1e-8))
        ref = 1.52271428307e-22 - 4.73628332179e-22j
        assert abs(v.s11 - ref) < 1e-6 * abs(ref)

    def test_zero_denominator_gives_nan(self):
        # d of s_plus, and d_plus*d_minus of s_full, are 0 in floats at this
        # sample, where E underflowed: the elements read nan, as the
        # kernels' values do past the float range
        k, c, spec = (3.7418764873046353 - 2.589484122426766j, ComplexCoupling(1.4452536251456958),
                      PotentialSpec(1.0, 300.0, 1e-300))
        assert cmath.isnan(wp.s_plus(k, c, spec))
        v = wp.s_full(k, c, spec)
        assert cmath.isnan(v.s11) and cmath.isnan(v.s12)

    @pytest.mark.parametrize("alpha, s11", [(0.0, 1.0086082860860314),
                                            (math.pi, 0.99146521872991666)])
    def test_s11_finite_where_its_scale_underflows(self, alpha, s11):
        # at k = 700i, E = exp(-|Im aK|) underflows; s11 (mpmath, 80 digits)
        # is near 1 and s_full keeps it, while s12 (~2e906) overflows
        v = wp.s_full(700j, ComplexCoupling(alpha), SPEC)
        assert abs(v.s11 - s11) < 1e-12 * abs(s11)
        assert not cmath.isfinite(v.s12)

    def test_real_coupling_specializations(self):
        # for real gamma and real k the S matrix is unitary and symmetric
        for k in (0.9, 3.3):
            r = wp.verify_relations(k, REP, SPEC)
            assert max(r.values()) < 1e-12
