import numpy as np
import pytest

import helpers
from oqspectra import bounds, gkls, linalg, spectra
from oqspectra.constructions import (
    SamplerConfig,
    dephasing_generator,
    generic_gkls,
    phase_damping_channel,
    sample,
    saturating_hamiltonian_generator,
    unital_gkls,
)
from oqspectra.gkls import build_generator, exponentiate
from oqspectra.superop import ValidationError


class TestBuild:
    def test_zero_generator(self):
        gen = build_generator(np.zeros((3, 3)), ())
        assert np.allclose(gen.superop, 0.0)

    def test_two_level_hamiltonian_spectrum(self):
        # eigenvalues are -i(h_k - h_l) for the repeated Hamiltonian levels
        h = np.diag([0.3, 0.9, 0.9])
        gen = build_generator(h, ())
        expected = [-1j * (a - b) for a in (0.3, 0.9, 0.9) for b in (0.3, 0.9, 0.9)]
        helpers.assert_multisets_close(np.linalg.eigvals(gen.superop), expected,
                                       atol=1e-12)

    def test_dephasing_spectrum(self):
        # {0 x5, -1 x4} at d = 3
        gen = dephasing_generator(3)
        expected = [0.0] * 5 + [-1.0] * 4
        helpers.assert_multisets_close(np.linalg.eigvals(gen.superop), expected,
                                       atol=1e-12)

    def test_superop_matches_direct_action_on_matrix_units(self, rng):
        d = 3
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + helpers.dag(g)
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for _ in range(2)]
        gen = build_generator(h, ops)
        oracle = helpers.superop_from_action(
            lambda x: helpers.gkls_apply(gen.hamiltonian, gen.noise_ops, x), d)
        assert np.linalg.norm(gen.superop - oracle) <= 1e-10 * max(
            1.0, np.linalg.norm(oracle))

    def test_direct_action_is_independent_route(self, rng):
        gen = generic_gkls(3, rng)
        x = helpers.random_density(3, rng)
        via_matrix = linalg.unvec(gen.superop @ linalg.vec(x))
        direct = helpers.gkls_apply(gen.hamiltonian, gen.noise_ops, x)
        assert np.linalg.norm(direct - via_matrix) <= 1e-10

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            build_generator(h, ())

    def test_small_residual_symmetrized_with_warning(self):
        h = np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]], dtype=complex)
        with pytest.warns(UserWarning, match="symmetrizing"):
            gen = build_generator(h, ())
        assert np.allclose(gen.hamiltonian, helpers.dag(gen.hamiltonian))

    def test_noise_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            build_generator(np.zeros((2, 2)), [np.eye(3)])

    def test_trace_preservation_dual_kills_identity(self, rng):
        # L*(I) = 0 for every GKLS realization
        for d in (2, 3):
            gen = generic_gkls(d, rng)
            res = helpers.dag(gen.superop) @ linalg.vec(np.eye(d))
            assert np.linalg.norm(res) <= 1e-8


class TestAssembly:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_kron_loop_reference(self, d, rng):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + helpers.dag(g)
        for k in (0, 1, d * d):
            ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for _ in range(k)]
            ref = helpers.reference_gkls_superop(h, ops)
            got = gkls.gkls_superop(h, ops)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class TestClassification:
    def test_pure_hamiltonian(self):
        assert bounds.classify(saturating_hamiltonian_generator(3)) == "hamiltonian"

    def test_dephasing_is_not(self):
        assert bounds.classify(dephasing_generator(3)) == "non-hamiltonian"

    def test_tiny_dissipator_detected(self):
        # H != 0 plus eps * dephasing: rates at the eps scale
        eps = 1e-3
        deph = dephasing_generator(3)
        gen = build_generator(np.diag([0.0, 1.0, 2.0]),
                              [np.sqrt(eps) * a for a in deph.noise_ops])
        assert bounds.classify(gen) == "non-hamiltonian"
        w = np.linalg.eigvals(gen.superop)
        rates = -w.real[np.abs(w.real) > 1e-9]
        assert np.all(rates > eps / 10)


class TestExponentiate:
    def test_t_zero_is_identity(self, rng):
        gen = generic_gkls(2, rng)
        ch = exponentiate(gen, 0.0)
        assert np.allclose(ch.superop, np.eye(4), atol=1e-12)

    def test_dephasing_gives_phase_damping(self):
        ch = exponentiate(dephasing_generator(3), 1.0)
        assert np.linalg.norm(ch.superop - phase_damping_channel(3).superop) <= 1e-12

    def test_semigroup_property(self, rng):
        import scipy.linalg
        for _ in range(3):
            gen = generic_gkls(2, rng)
            s, t = 0.7, 1.6
            lhs = scipy.linalg.expm((s + t) * gen.superop)
            rhs = scipy.linalg.expm(s * gen.superop) @ scipy.linalg.expm(t * gen.superop)
            assert np.linalg.norm(lhs - rhs) <= 1e-8
            assert np.linalg.norm(exponentiate(gen, s + t).superop - lhs) <= 1e-12

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            exponentiate(generic_gkls(2, rng), -1.0)

    def test_invalid_realization_fails_validation(self):
        # a hand-forged object whose matrix is not a GKLS superoperator
        bogus = gkls.GklsGenerator(dim=2, hamiltonian=np.zeros((2, 2)),
                                   noise_ops=(), _superop=np.diag([1.0, 0, 0, 0.0]))
        with pytest.raises(ValidationError):
            exponentiate(bogus, 1.0)

    def test_exponential_spectrum_mapping(self, rng):
        for t in (0.5, 1.0, 2.0):
            gen = generic_gkls(3, rng)
            w = np.linalg.eigvals(gen.superop)
            we = np.linalg.eigvals(exponentiate(gen, t).superop)
            helpers.assert_multisets_close(we, np.exp(t * w), atol=1e-7)

    def test_cptp_output(self, rng):
        ch = exponentiate(unital_gkls(3, rng), 1.0)
        rho = helpers.random_density(3, rng)
        out = helpers.apply_superop(ch.superop, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)
        assert np.min(np.linalg.eigvalsh((out + helpers.dag(out)) / 2)) >= -1e-9


def relaxation_rates(gen):
    """(rate, multiplicity) of each distinct eigenvalue of the summary, by rate."""
    return sorted((item.rate, item.multiplicity) for item in spectra.summarize(gen).distinct)


class TestRates:
    def test_hamiltonian_rates_vanish(self):
        rates = relaxation_rates(saturating_hamiltonian_generator(3))
        assert all(r == 0.0 for r, _ in rates)
        assert sum(m for _, m in rates) == 9

    def test_dephasing_rates(self):
        rates = relaxation_rates(dephasing_generator(3))
        assert rates == [(0.0, 5), (1.0, 4)]

    def test_multiplicities_sum_to_d_squared(self, rng):
        for d in (2, 3):
            gen = generic_gkls(d, rng)
            rates = relaxation_rates(gen)
            assert sum(m for _, m in rates) == d * d
            assert all(r >= 0 for r, _ in rates)


class TestSpectralProperties:
    def test_generator_spectrum_facts(self, rng):
        for d in (2, 3):
            for _ in range(10):
                gen = generic_gkls(d, rng)
                w = np.linalg.eigvals(gen.superop)
                assert np.max(w.real) <= 1e-8
                assert np.min(np.abs(w)) <= 1e-8
                helpers.assert_multisets_close(np.conj(w), w, atol=1e-8)

    def test_peripheral_semisimple(self, rng):
        # purely imaginary eigenvalues have full eigenvector count
        gen = saturating_hamiltonian_generator(3, 0.0, 1.0)
        m = gen.superop
        w = np.linalg.eigvals(m)
        for lam in w[np.abs(w.real) <= 1e-9]:
            alg = np.sum(np.abs(w - lam) <= 1e-7)
            geo = linalg.nullspace(m - lam * np.eye(9), tol=1e-8).shape[1]
            assert geo == alg


class TestJson:
    def test_roundtrip(self, rng):
        gen = generic_gkls(2, rng)
        obj = gkls.generator_to_json(gen)
        gen2 = gkls.generator_from_json(obj)
        assert np.linalg.norm(gen2.superop - gen.superop) <= 1e-12

    @pytest.mark.parametrize("ensemble", ["gkls-generic", "gkls-unital", "gkls-hamiltonian"])
    def test_roundtrip_keeps_counts(self, ensemble):
        # the sampled generator carries the rescaled L / r and its rescaled
        # eigendecomposition; the rebuilt one assembles and decomposes afresh
        for d in (2, 3, 4):
            gen = next(sample(SamplerConfig(seed=d, dim=d, ensemble=ensemble)))
            gen2 = gkls.generator_from_json(gkls.generator_to_json(gen))
            a, b = spectra.summarize(gen), spectra.summarize(gen2)
            assert (a.l0_or_m0, a.lP_or_mP) == (b.l0_or_m0, b.lP_or_mP)
            assert bounds.classify(gen) == bounds.classify(gen2)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="hamiltonian"):
            gkls.generator_from_json({"dim": 2})

    def test_dim_mismatch(self):
        obj = gkls.generator_to_json(dephasing_generator(2))
        obj["dim"] = 3
        with pytest.raises(ValueError, match="dim"):
            gkls.generator_from_json(obj)
