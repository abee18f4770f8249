import numpy as np
import pytest
import scipy.linalg

import helpers
from oqspectra import bounds, spectra
from oqspectra.constructions import (
    SamplerConfig,
    dephasing_generator,
    generic_gkls,
    ginibre,
    haar_unitary,
    hamiltonian_gkls,
    phase_damping_channel,
    sample,
    saturating_dissipative_generator,
    saturating_hamiltonian_generator,
    saturating_unitary_channel,
    stinespring_channel,
    subspace_supported_channel,
    unital_gkls,
    unitary_channel,
)
from oqspectra.gkls import GklsGenerator, gkls_superop
from oqspectra.superop import QuantumChannel


CEILING = {d: d * d - 2 * d + 2 for d in range(2, 9)}


class TestSaturators:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_hamiltonian_counts(self, d):
        s = spectra.summarize(saturating_hamiltonian_generator(d))
        assert (s.l0_or_m0, s.lP_or_mP) == (CEILING[d], d * d)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_unitary_counts(self, d):
        s = spectra.summarize(saturating_unitary_channel(d))
        assert (s.l0_or_m0, s.lP_or_mP) == (CEILING[d], d * d)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_dissipative_counts(self, d):
        s = spectra.summarize(saturating_dissipative_generator(d))
        assert (s.l0_or_m0, s.lP_or_mP) == (CEILING[d], CEILING[d])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_phase_damping_counts(self, d):
        s = spectra.summarize(phase_damping_channel(d))
        assert (s.l0_or_m0, s.lP_or_mP) == (CEILING[d], CEILING[d])

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            saturating_hamiltonian_generator(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            saturating_dissipative_generator(3, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            saturating_unitary_channel(3, 0.0, 2 * np.pi)

    def test_excluded_phase_gives_trivial_channel(self):
        # h1 - h2 = 2 pi exponentiates to the identity channel
        from oqspectra.gkls import exponentiate
        gen = saturating_hamiltonian_generator(3, 0.0, 2 * np.pi)
        ch = exponentiate(gen, 1.0)
        assert bounds.classify(ch) == "trivial"

    def test_unitary_eigenvalues_are_phase_products(self):
        # mu_{kl} = lambda_k conj(lambda_l) for U = e^{-iH}
        h1, h2, d = 0.0, 1.0, 3
        ch = saturating_unitary_channel(d, h1, h2)
        phases = [np.exp(-1j * h) for h in (h1, h2, h2)]
        expected = [a * np.conj(b) for a in phases for b in phases]
        helpers.assert_multisets_close(np.linalg.eigvals(ch.superop), expected,
                                       atol=1e-12)

    def test_d2_unitary_half_turn(self):
        # h = (0, pi): eigenvalues {1, 1, -1, -1}, l0 = 2
        ch = saturating_unitary_channel(2, 0.0, np.pi)
        helpers.assert_multisets_close(np.linalg.eigvals(ch.superop),
                                       [1, 1, -1, -1], atol=1e-12)
        assert spectra.summarize(ch).l0_or_m0 == 2

    def test_dissipative_two_ops(self):
        gen = saturating_dissipative_generator(5, [(1.0, 0.0), (1j, -1j)])
        assert spectra.summarize(gen).l0_or_m0 == 17

    def test_dissipative_unital(self):
        for d in (2, 3, 5):
            gen = saturating_dissipative_generator(d, [(1.0, 0.0), (0.3 + 1j, -2.0)])
            direct = helpers.gkls_apply(gen.hamiltonian, gen.noise_ops, np.eye(d))
            assert np.linalg.norm(direct) <= 1e-12

    def test_phase_damping_matches_expm(self):
        for d in (2, 3, 4):
            direct = phase_damping_channel(d).superop
            via_expm = scipy.linalg.expm(dephasing_generator(d).superop)
            assert np.linalg.norm(direct - via_expm) <= 1e-12

    def test_phase_damping_d2_spectrum(self):
        helpers.assert_multisets_close(
            np.linalg.eigvals(phase_damping_channel(2).superop),
            [1.0, 1.0, np.exp(-1), np.exp(-1)], atol=1e-14)


class TestSamplers:
    def test_haar_unitary_is_unitary(self, rng):
        u = haar_unitary(4, rng)
        assert np.linalg.norm(helpers.dag(u) @ u - np.eye(4)) <= 1e-12

    def test_stinespring_validates(self, rng):
        from oqspectra.superop import choi_is_cp
        for _ in range(50):
            ch = stinespring_channel(3, rng)  # from_kraus validates TP
            assert choi_is_cp(ch.choi, tol=1e-10)

    def test_unital_generator_kills_identity(self, rng):
        for d in (2, 3):
            for _ in range(10):
                gen = unital_gkls(d, rng)
                assert np.linalg.norm(
                    gen.superop @ np.eye(d).flatten(order="F")) <= 1e-10

    def test_normalization(self, rng):
        for maker in (generic_gkls, unital_gkls, hamiltonian_gkls):
            gen = maker(3, rng)
            radius = np.max(np.abs(np.linalg.eigvals(gen.superop)))
            assert radius == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_normalized_generator_cache_is_consistent(self, d, rng):
        # the rescaled generator carries L / r and (w / r, vl, vr) from the
        # first decomposition; both must agree with a fresh assembly, whose
        # R' = U^dag L U has L's residuals (U is unitary)
        for maker in (generic_gkls, unital_gkls, hamiltonian_gkls):
            gen = maker(d, rng)
            fresh = gkls_superop(gen.hamiltonian, gen.noise_ops)
            assert np.linalg.norm(gen.superop - fresh) <= 1e-13 * np.linalg.norm(fresh)
            w = gen.spectrum.values
            vl, vr = helpers.real_eigenvectors(gen.spectrum)
            u = gen.spectrum.to_matrix(np.eye(d * d))
            fresh = helpers.dag(u) @ fresh @ u
            assert np.max(np.abs(w)) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(fresh @ vr - vr * w) <= 1e-12 * d * d
            assert np.linalg.norm(helpers.dag(vl) @ fresh - w[:, None] * helpers.dag(vl)) \
                <= 1e-12 * d * d

    def test_haar_samples_classify_unitary(self, rng):
        for _ in range(10):
            ch = unitary_channel(haar_unitary(3, rng))
            assert bounds.classify(ch) == "unitary"

    def test_generic_samples_classify_non_unitary(self, rng):
        for _ in range(20):
            ch = stinespring_channel(2, rng)
            assert bounds.classify(ch) == "non-unitary"

    def test_generic_peripheral_is_simple(self, rng):
        # distributional sanity: generic spectra have lP = 1
        hits = sum(
            spectra.summarize(stinespring_channel(3, rng)).lP_or_mP == 1
            for _ in range(100))
        assert hits >= 95

    def test_subspace_supported_channel_valid(self, rng):
        ch = subspace_supported_channel(4, 2, rng)
        rho = helpers.random_density(4, rng)
        out = helpers.kraus_apply(ch.kraus, rho)
        assert np.linalg.norm(out[2:, :]) <= 1e-12
        assert np.linalg.norm(out[:, 2:]) <= 1e-12

    def test_subspace_supported_bad_dims(self, rng):
        with pytest.raises(ValueError):
            subspace_supported_channel(3, 3, rng)


class TestSampleStream:
    def test_determinism(self):
        cfg = SamplerConfig(seed=42, dim=3, ensemble="cptp-stinespring", count=3)
        first = [s.superop for s in sample(cfg)]
        second = [s.superop for s in sample(cfg)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_every_ensemble_yields_right_type(self):
        for ensemble in ("haar-unitary", "cptp-stinespring"):
            cfg = SamplerConfig(seed=1, dim=2, ensemble=ensemble, count=2)
            assert all(isinstance(s, QuantumChannel) for s in sample(cfg))
        for ensemble in ("gkls-generic", "gkls-unital", "gkls-hamiltonian"):
            cfg = SamplerConfig(seed=1, dim=2, ensemble=ensemble, count=2)
            assert all(isinstance(s, GklsGenerator) for s in sample(cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, dim=1, ensemble="haar-unitary")
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, dim=2, ensemble="nope")
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, dim=2, ensemble="haar-unitary", count=0)
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, dim=2, ensemble="haar-unitary")

    def test_env_dim_controls_kraus_count(self, rng):
        cfg = SamplerConfig(seed=5, dim=3, ensemble="cptp-stinespring",
                            count=1, env_dim=4)
        ch = next(iter(sample(cfg)))
        assert len(ch.kraus) == 4

    def test_ginibre_shape(self, rng):
        assert ginibre(3, 5, rng).shape == (3, 5)
