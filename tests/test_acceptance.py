"""Acceptance suite: one test per release criterion, at pinned tolerances.

The shared sampling fixture draws every random subject from a fixed seed,
so each run exercises the identical ensemble.  A terminal-summary hook in
conftest.py prints one PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

import helpers
from oqspectra import analysis, asymptotics, campaign, commutants, linalg, spectra
from oqspectra.asymptotics import faithful_reduce, fixed_space, is_faithful
from oqspectra.commutants import commutant, commutant_dim_from_jordan, weyr_profile
from oqspectra.constructions import (
    generic_gkls,
    phase_damping_channel,
    saturating_dissipative_generator,
    saturating_hamiltonian_generator,
    saturating_unitary_channel,
    stinespring_channel,
    subspace_supported_channel,
    unital_gkls,
    unitary_channel,
)
from oqspectra.gkls import exponentiate
from oqspectra.superop import dual

ACCEPTANCE_SEED = 20240817
CEILING = {d: d * d - 2 * d + 2 for d in range(2, 9)}


@pytest.fixture(scope="module")
def ensembles():
    """500 generic channels, generic generators and unital generators per
    d in {2, 3, 4}, drawn once from the pinned seed."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    data = {"channel": {}, "generator": {}, "unital": {}}
    for d in (2, 3, 4):
        data["channel"][d] = [stinespring_channel(d, rng) for _ in range(500)]
        data["generator"][d] = [generic_gkls(d, rng) for _ in range(500)]
        data["unital"][d] = [unital_gkls(d, rng) for _ in range(500)]
    return data


def test_criterion_01_unitary_sharpness():
    t0 = time.perf_counter()
    expected_l0 = {2: 2, 3: 5, 4: 10, 5: 17, 6: 26}
    for d in (2, 3, 4, 5, 6):
        s = spectra.summarize(saturating_unitary_channel(d))
        assert s.l0_or_m0 == expected_l0[d] == CEILING[d]
        assert s.lP_or_mP == d * d
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_phase_damping_sharpness():
    for d in (2, 3, 4, 5, 6):
        s = spectra.summarize(phase_damping_channel(d))
        assert s.l0_or_m0 == s.lP_or_mP == CEILING[d]
        got = sorted(((item.value, item.multiplicity) for item in s.distinct),
                     key=lambda vm: vm[0].real)
        expected = [(np.exp(-1.0), 2 * (d - 1)), (1.0, (d - 1) ** 2 + 1)]
        assert len(got) == 2
        for (gv, gm), (ev, em) in zip(got, expected):
            assert gm == em and abs(gv - ev) <= 1e-8


def test_criterion_03_generator_sharpness():
    for d in (2, 3, 4, 5, 6):
        sh = spectra.summarize(saturating_hamiltonian_generator(d))
        assert (sh.l0_or_m0, sh.lP_or_mP) == (CEILING[d], d * d)
        sd = spectra.summarize(saturating_dissipative_generator(d))
        assert (sd.l0_or_m0, sd.lP_or_mP) == (CEILING[d], CEILING[d])


def test_criterion_04_universal_bound_campaign(ensembles):
    t0 = time.perf_counter()
    violations = 0
    for d in (2, 3, 4):
        for ch in ensembles["channel"][d]:
            rep = analysis.analyze(ch, with_commutant=False)
            s = rep.summary
            if not (s.l0_or_m0 <= s.lP_or_mP <= CEILING[d]):
                violations += 1
            if not rep.bounds_satisfied:
                violations += 1
        for gen in ensembles["generator"][d]:
            rep = analysis.analyze(gen, with_commutant=False)
            s = rep.summary
            if not (s.l0_or_m0 <= s.lP_or_mP <= CEILING[d]):
                violations += 1
            if not rep.bounds_satisfied:
                violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 600.0


def test_criterion_05_commutant_oracle_equivalence():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 5)
    for d in range(3, 9):
        for _ in range(200):
            profile = helpers.random_jordan_profile(d, rng)
            a = helpers.plant_jordan(profile, rng, cond_max=1e3)
            got = weyr_profile(a, cluster_tol=helpers.JORDAN_CLUSTER_TOL)
            brute = commutant([a], tol=helpers.JORDAN_COMMUTANT_TOL).dimension
            assert commutant_dim_from_jordan(got) == brute
            if not helpers.is_scalar_profile(profile):
                assert brute <= CEILING[d]


def test_criterion_06_fixed_point_commutant_duality():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 6)
    for d in (2, 3, 4):
        done = 0
        while done < 100:
            ch = stinespring_channel(d, rng)
            if not is_faithful(ch):
                continue
            done += 1
            ops = list(ch.kraus) + [helpers.dag(b) for b in ch.kraus]
            res = commutant(ops)
            dual_fix = fixed_space(dual(ch), summary=spectra.summarize(ch))
            assert dual_fix.dimension == res.dimension
            # commutant sits inside Fix(Phi*): containment residual
            proj = dual_fix.basis @ helpers.dag(dual_fix.basis)
            resid = np.linalg.norm(res.basis - proj @ res.basis, 2)
            assert resid <= 1e-8
        # non-faithful: the support reduction preserves the fixed-point count
        for _ in range(10):
            ch = subspace_supported_channel(d + 1, d, rng)
            red = faithful_reduce(ch)
            assert fixed_space(ch).dimension == \
                fixed_space(red.reduced_channel).dimension


def test_criterion_07_ckks_proved_regime(ensembles):
    from oqspectra.bounds import ckks_generator
    for d in (2, 3, 4):
        for gen in ensembles["unital"][d]:
            s = spectra.summarize(gen)
            for margin in ckks_generator(s):
                assert margin.margin >= -1e-8 * max(1.0, margin.rhs)
            assert s.lP_or_mP <= d * d - d


def test_criterion_08_spectral_property_suite(ensembles):
    rng = np.random.default_rng(ACCEPTANCE_SEED + 8)
    for d in (2, 3, 4):
        channels = ensembles["channel"][d] + [
            unitary_channel(helpers.haar(d, rng)) for _ in range(50)]
        for ch in channels:
            w = np.linalg.eigvals(ch.superop)
            assert np.max(np.abs(w)) <= 1 + 1e-8
            assert np.min(np.abs(w - 1.0)) <= 1e-8
            helpers.assert_multisets_close(np.conj(w), w, atol=1e-8)
            _assert_peripheral_semisimple(ch.superop, w)
        for gen in ensembles["generator"][d] + ensembles["unital"][d]:
            w = np.linalg.eigvals(gen.superop)
            assert np.max(w.real) <= 1e-8
            assert np.min(np.abs(w)) <= 1e-8
            helpers.assert_multisets_close(np.conj(w), w, atol=1e-8)


def _assert_peripheral_semisimple(m, w):
    peripheral = w[np.abs(w) >= 1 - 1e-8]
    for center, mult in spectra.cluster(peripheral, 1e-7):
        geo = linalg.nullspace(m - center * np.eye(m.shape[0]), tol=1e-8).shape[1]
        assert geo == mult


def test_criterion_09_exponential_consistency():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 9)
    for d in (2, 3):
        for _ in range(100):
            gen = generic_gkls(d, rng)
            w = np.linalg.eigvals(gen.superop)
            ch = exponentiate(gen, 1.0)
            we = np.linalg.eigvals(ch.superop)
            helpers.assert_multisets_close(we, np.exp(w), atol=1e-7)
            sg = spectra.summarize(gen)
            sc = spectra.summarize(ch)
            assert sc.lP_or_mP == sg.lP_or_mP


def test_criterion_10_campaign_determinism(tmp_path):
    cfg = campaign.CampaignConfig(dims=(2, 3), per_dim=10, seed=99)
    paths = []
    for name in ("first.csv", "second.csv"):
        result = campaign.run_campaign(cfg)
        path = tmp_path / name
        path.write_text(campaign.rows_to_csv(result.rows))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
