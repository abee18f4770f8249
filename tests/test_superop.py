import numpy as np
import pytest

import helpers
from helpers import choi_is_cp, compose, dual, identity_channel, power, stinespring_channel
from oqspectra import bounds, linalg, superop
from oqspectra.constructions import phase_damping_channel
from oqspectra.superop import (
    ValidationError,
    choi_to_kraus,
    choi_to_superop,
    from_kraus,
    from_superop,
    superop_to_choi,
)


def pinching_kraus(d=2):
    p1 = helpers.matrix_unit(d, 0, 0)
    p2 = np.eye(d) - p1
    return [p1, p2]


class TestConstruction:
    def test_identity_from_kraus(self):
        ch = from_kraus([np.eye(3)])
        assert np.allclose(ch.superop, np.eye(9))

    def test_pinching_superop(self):
        ch = from_kraus(pinching_kraus())
        assert np.allclose(ch.superop, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_pinching_matches_matrix_unit_oracle(self):
        kraus = pinching_kraus()
        oracle = helpers.superop_from_action(
            lambda x: helpers.kraus_apply(kraus, x), 2)
        assert np.allclose(from_kraus(kraus).superop, oracle, atol=1e-14)

    def test_non_tp_rejected(self):
        b = np.diag([1.0, 0.5])
        with pytest.raises(ValidationError) as exc:
            from_kraus([b])
        assert exc.value.residual > 1e-8

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            from_kraus([np.eye(2), np.eye(3)])

    def test_from_superop_validates_tp(self):
        with pytest.raises(ValidationError):
            from_superop(0.5 * np.eye(4))

    def test_from_superop_validates_cp(self):
        # transpose map: TP but not CP
        transpose = helpers.superop_from_action(lambda x: x.T, 2)
        with pytest.raises(ValidationError):
            from_superop(transpose)

    def test_from_superop_keeps_hermiticity_preserving_part(self, rng):
        # a non-Hermiticity-preserving deviation inside cp_tol is accepted
        # and removed, so the decomposition sees a real matrix
        ch = stinespring_channel(3, rng)
        noise = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        fed = from_superop(ch.superop + 1e-10 * noise / np.linalg.norm(noise))
        choi = fed.choi
        assert np.array_equal(choi, helpers.dag(choi))
        assert np.linalg.norm(fed.superop - ch.superop) <= 1e-9
        helpers.assert_multisets_close(fed.spectrum.values, ch.spectrum.values, atol=1e-7)

    def test_superop_side_must_be_square_number(self):
        with pytest.raises(ValueError, match="square"):
            from_superop(np.eye(5))


class TestAssembly:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_kron_loop_reference(self, d, rng):
        for k in (1, d * d):
            kraus = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(k)]
            ref = helpers.reference_kraus_to_superop(kraus, d)
            got = superop.kraus_to_superop(kraus)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        empty = superop.kraus_to_superop(np.zeros((0, d, d)))
        assert empty.shape == (d * d, d * d) and not empty.any()


class TestConversions:
    def test_phase_flip_superop(self):
        p = 0.5
        z = np.diag([1.0, -1.0])
        ch = from_kraus([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * z])
        assert np.allclose(ch.superop, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_action_matches_kraus_on_random_states(self, rng):
        ch = stinespring_channel(3, rng)
        for _ in range(100):
            rho = helpers.random_density(3, rng)
            direct = helpers.kraus_apply(ch.kraus, rho)
            assert np.linalg.norm(helpers.apply_superop(ch.superop, rho) - direct) <= 1e-10

    def test_identity_choi(self):
        choi = identity_channel(2).choi
        # |Omega><Omega|: rank 1, trace d
        w = np.linalg.eigvalsh(choi)
        assert np.trace(choi) == pytest.approx(2.0)
        assert np.sum(w > 1e-12) == 1

    def test_pinching_choi_diagonal_psd(self):
        choi = from_kraus(pinching_kraus()).choi
        assert np.allclose(choi, np.diag(np.diagonal(choi)))
        assert choi_is_cp(choi)

    def test_choi_matches_elementwise_oracle(self, rng):
        ch = stinespring_channel(2, rng)
        oracle = helpers.choi_from_action(
            lambda x: helpers.kraus_apply(ch.kraus, x), 2)
        assert np.allclose(ch.choi, oracle, atol=1e-12)

    def test_transpose_choi_not_cp(self):
        transpose = helpers.superop_from_action(lambda x: x.T, 2)
        assert not choi_is_cp(superop_to_choi(transpose))

    def test_reshuffle_roundtrip(self, rng):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert np.array_equal(choi_to_superop(superop_to_choi(m)), m)

    def test_reshuffle_against_action_oracle(self, rng):
        ch = stinespring_channel(3, rng)
        oracle = helpers.choi_from_action(
            lambda x: helpers.kraus_apply(ch.kraus, x), 3)
        assert np.allclose(superop_to_choi(ch.superop), oracle, atol=1e-12)

    def test_kraus_roundtrip(self, rng):
        # kraus -> superop -> choi -> kraus' -> superop agrees to 1e-8
        ch = stinespring_channel(3, rng)
        kraus2 = choi_to_kraus(superop_to_choi(ch.superop))
        ch2 = from_kraus(kraus2)
        assert np.linalg.norm(ch2.superop - ch.superop) <= 1e-8

    def test_kraus_operators_extracted_lazily(self):
        ch = phase_damping_channel(2)
        assert ch.kraus is None
        kraus = ch.kraus_operators()
        assert np.linalg.norm(superop.kraus_to_superop(kraus) - ch.superop) <= 1e-10


class TestDualComposePower:
    def test_dual_of_unitary(self):
        u = np.diag([1.0, 1j])
        d = dual(from_kraus([u]))
        expected = from_kraus([helpers.dag(u)])
        assert np.allclose(d.superop, expected.superop)

    def test_pinching_self_dual(self):
        ch = from_kraus(pinching_kraus())
        assert np.allclose(dual(ch).superop, ch.superop)

    def test_dual_is_unital(self, rng):
        ch = stinespring_channel(3, rng)
        ident = np.eye(3)
        assert np.linalg.norm(helpers.apply_superop(dual(ch).superop, ident) - ident) <= 1e-10

    def test_dual_spectrum_conjugated(self, rng):
        for _ in range(5):
            ch = stinespring_channel(2, rng)
            w = np.linalg.eigvals(ch.superop)
            wd = np.linalg.eigvals(dual(ch).superop)
            helpers.assert_multisets_close(np.conj(wd), w, atol=1e-9)

    def test_power_one_and_zero(self, rng):
        ch = stinespring_channel(2, rng)
        assert np.allclose(power(ch, 1).superop, ch.superop)
        assert np.allclose(power(ch, 0).superop, np.eye(4))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_high_power_stays_decomposable(self, d, rng):
        # M^n by repeated complex squaring drifts off Hermiticity preservation
        # in proportion to n; the power must still decompose with the
        # spectrum mu^n
        ch = from_kraus([helpers.haar(d, rng)])
        n = 10 ** 6
        chn = power(ch, n)
        expected = ch.spectrum.values ** n
        helpers.assert_multisets_close(chn.spectrum.values, expected, atol=1e-6)
        assert np.allclose(chn.superop, np.linalg.matrix_power(ch.superop, n), atol=1e-6)

    def test_pinching_idempotent(self):
        ch = from_kraus(pinching_kraus())
        assert np.allclose(power(ch, 2).superop, ch.superop, atol=1e-14)

    def test_phase_damping_power_decay(self):
        ch = phase_damping_channel(3)
        n = 5
        chn = power(ch, n)
        x = np.arange(9, dtype=complex).reshape(3, 3) + 1.0
        out = helpers.apply_superop(chn.superop, x)
        assert np.allclose(out[0, 1:], x[0, 1:] * np.exp(-n), atol=1e-12)
        assert np.allclose(out[1:, 0], x[1:, 0] * np.exp(-n), atol=1e-12)
        assert np.allclose(out[1:, 1:], x[1:, 1:], atol=1e-12)

    def test_compose_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            compose(identity_channel(2), identity_channel(3))

    def test_power_negative_rejected(self):
        with pytest.raises(ValueError):
            power(identity_channel(2), -1)

    def test_compose_is_matrix_product(self, rng):
        a = stinespring_channel(2, rng)
        b = stinespring_channel(2, rng)
        assert np.allclose(compose(a, b).superop, a.superop @ b.superop)


class TestUnitarity:
    def test_unitary_channel_detected(self):
        assert bounds.classify(from_kraus([np.diag([1.0, 1j])])) == "unitary"

    def test_phase_damping_not_unitary(self):
        assert bounds.classify(phase_damping_channel(3)) == "non-unitary"

    def test_depolarizing_not_unitary(self):
        p, d = 0.5, 2
        dep = helpers.superop_from_action(
            lambda x: (1 - p) * x + p * np.trace(x) * np.eye(d) / d, d)
        ch = from_superop(dep)
        w = np.linalg.eigvals(ch.superop)
        helpers.assert_multisets_close(w, [1.0, 1 - p, 1 - p, 1 - p], atol=1e-12)
        assert bounds.classify(ch) == "non-unitary"


class TestSpectralProperties:
    """Channel spectrum facts: unit disk, 1 present, conjugation symmetry,
    peripheral semisimplicity."""

    def test_on_sampled_channels(self, rng):
        for d in (2, 3):
            for _ in range(10):
                ch = stinespring_channel(d, rng)
                w = np.linalg.eigvals(ch.superop)
                assert np.max(np.abs(w)) <= 1 + 1e-8
                assert np.min(np.abs(w - 1.0)) <= 1e-8
                helpers.assert_multisets_close(np.conj(w), w, atol=1e-8)

    def test_peripheral_semisimplicity_unitary(self, rng):
        # degenerate peripheral spectrum: U with a repeated phase
        u = helpers.haar(3, rng)
        w, v = np.linalg.eig(u)
        u = v @ np.diag([w[0], w[0], w[2]]) @ np.linalg.inv(v)
        u, _ = np.linalg.qr(u)  # re-unitarize
        ch = from_kraus([u])
        m = ch.superop
        for mu in np.linalg.eigvals(m):
            alg = np.sum(np.abs(np.linalg.eigvals(m) - mu) <= 1e-7)
            geo = linalg.nullspace(m - mu * np.eye(9), tol=1e-8).shape[1]
            assert geo == alg


class TestJson:
    def test_kraus_roundtrip(self, rng):
        ch = stinespring_channel(2, rng)
        obj = superop.channel_to_json(ch)
        assert obj["dim"] == 2 and "kraus" in obj
        ch2 = superop.channel_from_json(obj)
        assert np.linalg.norm(ch2.superop - ch.superop) <= 1e-12

    def test_superop_roundtrip(self):
        ch = phase_damping_channel(3)
        obj = superop.channel_to_json(ch)
        assert "superop" in obj
        ch2 = superop.channel_from_json(obj)
        assert np.allclose(ch2.superop, ch.superop)

    def test_dim_mismatch_rejected(self):
        obj = superop.channel_to_json(identity_channel(2))
        obj["dim"] = 3
        with pytest.raises(ValueError, match="dim"):
            superop.channel_from_json(obj)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="kraus"):
            superop.channel_from_json({"dim": 2})
