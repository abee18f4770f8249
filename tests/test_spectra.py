import math
import random

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import dephasing_generator, generic_gkls, identity_channel
from oqspectra import analysis, bounds, spectra
from oqspectra.constructions import (
    draw,
    phase_damping_channel,
    saturating_hamiltonian_generator,
)
from oqspectra.gkls import build_generator, exponentiate
from oqspectra.superop import QuantumChannel, from_kraus


def cluster_pairs(values, tol):
    """spectra.cluster as a list of (center, multiplicity) pairs."""
    centers, mults = spectra.cluster(values, tol)
    return list(zip(centers.tolist(), mults.tolist()))


class TestCluster:
    def test_returns_arrays(self):
        centers, mults = spectra.cluster([1, 1, 1, 1], 1e-7)
        assert centers.dtype == np.complex128 and mults.dtype.kind == "i"
        empty = spectra.cluster([], 1e-7)
        assert empty[0].shape == empty[1].shape == (0,)

    def test_repeated_value(self):
        assert cluster_pairs([1, 1, 1, 1], 1e-7) == [(1 + 0j, 4)]

    def test_perturbed_pair_merges(self):
        tol = 1e-7
        got = cluster_pairs([1.0, 1.0 + 0.5 * tol], tol)
        assert len(got) == 1 and got[0][1] == 2

    def test_chain_linkage(self):
        # single linkage: 0 ~ 0.8t ~ 1.6t even though the ends are 1.6t apart
        t = 1e-6
        got = cluster_pairs([0.0, 0.8 * t, 1.6 * t], t)
        assert len(got) == 1 and got[0][1] == 3

    def test_separated_values_stay_apart(self):
        got = cluster_pairs([0.0, 1.0, 1j], 1e-7)
        assert sorted(m for _, m in got) == [1, 1, 1]

    def test_center_is_mean(self):
        got = cluster_pairs([1.0, 1.0 + 4e-8], 1e-7)
        assert got[0][0] == pytest.approx(1.0 + 2e-8, abs=1e-15)

    def test_sorted_by_modulus_then_angle(self):
        got = cluster_pairs([0.5, -1.0, 1.0, 1j], 1e-7)
        assert [c for c, _ in got] == [1 + 0j, 1j, -1 + 0j, 0.5 + 0j]

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            spectra.cluster([1.0], 0.0)

    @given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=24),
           st.randoms())
    def test_permutation_invariant_and_mass_preserving(self, values, pyrandom):
        tol = 1e-6
        base = cluster_pairs(values, tol)
        assert sum(m for _, m in base) == len(values)
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        assert cluster_pairs(shuffled, tol) == base


    @given(st.lists(st.tuples(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                                 allow_infinity=False),
                              st.integers(min_value=1, max_value=10),
                              st.floats(min_value=0.0, max_value=0.45)),
                    min_size=1, max_size=12),
           st.sampled_from([1e-7, 1e-4, 1e-2, 0.5]),
           st.randoms())
    # values that never chain: singletons 1.5 tol apart on a lattice
    @example([(0.3 + 0.2j + 1.5e-4 * complex(a, b), 1, 0.0) for a in range(-3, 4)
              for b in range(-2, 3)], 1e-4, random.Random(0))
    def test_matches_union_find_reference(self, planted, tol, pyrandom):
        # clusters of up to 10 values on a circle of radius <= 0.45 tol
        # around each planted center; nearby centers chain together
        values = [c + r * tol * np.exp(2j * np.pi * pyrandom.random())
                  for c, count, r in planted for _ in range(count)]
        pyrandom.shuffle(values)
        got = cluster_pairs(values, tol)
        ref = helpers.reference_cluster(values, tol)
        assert len(got) == len(ref)
        for i, (c, m) in enumerate(got):
            # distinct centers are over tol apart: the nearest is the match
            c_ref, m_ref = min(ref, key=lambda cm: abs(c - cm[0]))
            slack = 1e-15 * max(1.0, abs(c_ref))
            assert m == m_ref and abs(c - c_ref) <= slack
            # same order, except that clusters whose moduli tie within the
            # rounding of the reference's np.mean may swap places
            assert abs(abs(c) - abs(ref[i][0])) <= slack
            if m == 1:
                (v,) = [v for v in values if v == c]
                assert np.complex128(c).tobytes() == np.complex128(v).tobytes()
        if all(m == 1 for _, m in got):  # nothing chains: the reference's order exactly
            assert got == ref

    @given(st.lists(st.tuples(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                                 allow_infinity=False),
                              st.integers(min_value=1, max_value=6)),
                    min_size=1, max_size=10),
           st.sampled_from([1e-7, 1e-2, 0.5]),
           st.randoms())
    def test_members_index_their_clusters(self, planted, tol, pyrandom):
        # each value's index names its cluster: values within tol share one,
        # and each cluster's members are as many as its multiplicity, with its
        # center as their mean
        values = [c + 0.45 * tol * np.exp(2j * np.pi * pyrandom.random())
                  for c, count in planted for _ in range(count)]
        pyrandom.shuffle(values)
        centers, mults, members = spectra._cluster(values, tol)
        assert members.shape == (len(values),)
        v = np.array(values)
        close = np.abs(v[:, None] - v[None, :]) <= tol
        assert (members[:, None] == members[None, :])[close].all()
        assert np.bincount(members, minlength=centers.size).tolist() == mults.tolist()
        for k, center in enumerate(centers):
            assert abs(v[members == k].mean() - center) <= 1e-14 * max(1.0, abs(center))

    def test_shuffled_long_chain_is_one_cluster(self, rng):
        # neighbours 0.9 tol apart, ends 9.9 tol apart: one propagation
        # round only links neighbours, so the chain needs several
        tol = 1e-6
        values = 0.3 + 0.9 * tol * np.arange(12) * np.exp(0.7j)
        got = cluster_pairs(rng.permutation(values), tol)
        assert len(got) == 1 and got[0][1] == 12
        assert abs(got[0][0] - values.mean()) <= 1e-15


# Parts of eigenvalues with exact and signed zeros, exact repeats and
# anchors, and generic values.
EIGENVALUE_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
                             st.floats(min_value=-1.5, max_value=1.5))


@st.composite
def eigenvalue_lists(draw):
    """(kind, d, d^2 eigenvalues): the anchor, then values drawn with
    repetition from a small pool, some followed by their conjugates."""
    kind = draw(st.sampled_from([spectra.CHANNEL, spectra.GENERATOR]))
    d = draw(st.integers(min_value=2, max_value=4))
    pool = draw(st.lists(st.builds(complex, EIGENVALUE_PARTS, EIGENVALUE_PARTS),
                         min_size=1, max_size=d * d))
    values = [complex(kind.anchor)]
    while len(values) < d * d:
        c = draw(st.sampled_from(pool))
        values.append(c)
        if len(values) < d * d and draw(st.booleans()):
            values.append(c.conjugate())
    return kind, d, values


class TestArraysMatchScalarReference:
    @given(eigenvalue_lists(), st.sampled_from([None, 1e-7, 0.3]),
           st.sampled_from([None, 0.0, 1e-7, 0.5]))
    # sums whose pairwise order (np.sum) rounds differently from the running one
    @example((spectra.GENERATOR, 3, [0.0, -1.3, -0.84, -0.48, -0.66, -0.09, -0.23, -1.02,
                                     -0.99]), None, 1e-7)
    @example((spectra.CHANNEL, 3, [1.0, -0.66, 0.4, 0.05, -0.34, -0.03, 0.7, 0.78, -0.26]),
             None, 1e-7)
    def test_summary_and_ckks_bit_for_bit(self, drawn, cluster_tol, peripheral_tol):
        kind, d, values = drawn
        s = spectra._summarize(kind, d, np.array(values), 1.0, cluster_tol, peripheral_tol)
        centers, mults = spectra.cluster(values, s.cluster_tol)
        items, anchor, lp = helpers.reference_scalar_summary(kind, centers, mults,
                                                             s.peripheral_tol)
        helpers.assert_bits_equal(s.values, np.array([c for c, _, _, _ in items]))
        assert s.multiplicities.tolist() == [m for _, m, _, _ in items]
        assert s.peripheral.tolist() == [p for _, _, p, _ in items]
        assert (s.anchor_index, s.l0_or_m0, s.lP_or_mP) == (anchor, items[anchor][1], lp)
        if kind == spectra.GENERATOR:
            helpers.assert_bits_equal(s.rates, np.array([r for _, _, _, r in items]))
        ckks = bounds.ckks(s)
        ref = helpers.reference_scalar_ckks(kind, d, items, anchor)
        for k, field in enumerate(("alpha", "lhs", "rhs", "margin")):
            got = getattr(ckks, field)
            helpers.assert_bits_equal(got, np.array([r[k] for r in ref], dtype=got.dtype))
        assert ckks.satisfied.tolist() == [r[4] for r in ref]


    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)), max_size=20))
    def test_running_sum_bit_for_bit(self, terms):
        helpers.assert_bits_equal(bounds._running_sum(np.array(terms, dtype=float)),
                                  np.float64(helpers.running_sum(terms)))


class TestChannelSummary:
    def test_identity(self):
        s = spectra.summarize(identity_channel(3))
        assert s.l0_or_m0 == 9 and s.lP_or_mP == 9 and s.bulk_multiplicity == 0

    def test_nontrivial_unitary(self):
        # U = diag(e^{i theta}, 1, 1): l0 = (d-1)^2 + 1 = 5, lP = d^2 = 9
        u = np.diag([np.exp(1j), 1.0, 1.0])
        s = spectra.summarize(from_kraus([u]))
        assert s.l0_or_m0 == 5 and s.lP_or_mP == 9

    def test_phase_damping_d3(self):
        s = spectra.summarize(phase_damping_channel(3))
        values = list(zip(s.values.tolist(), s.multiplicities.tolist()))
        assert values[0][0] == pytest.approx(1.0) and values[0][1] == 5
        assert values[1][0] == pytest.approx(np.exp(-1.0)) and values[1][1] == 4
        assert s.l0_or_m0 == 5 and s.lP_or_mP == 5 and s.bulk_multiplicity == 4

    def test_phase_damping_d4(self):
        s = spectra.summarize(phase_damping_channel(4))
        assert s.l0_or_m0 == 10 and s.lP_or_mP == 10

    def test_invalid_subject_without_unit_eigenvalue(self):
        fake = QuantumChannel(dim=2, _superop=0.5 * np.eye(4))
        with pytest.raises(ValueError, match="no eigenvalue cluster"):
            spectra.summarize(fake)

    def test_multiplicities_always_sum(self, rng):
        for d in (2, 3, 4):
            s = spectra.summarize(helpers.stinespring_channel(d, rng))
            assert s.multiplicities.sum() == d * d
            assert s.l0_or_m0 <= s.lP_or_mP <= d * d
            assert s.bulk_multiplicity + s.lP_or_mP == d * d


class TestCachedSpectrum:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_same_counts_as_fresh_eigvals(self, d):
        # summaries read the cached eig(M); a fresh eigvals(M) must give
        # the same integers and the same classification
        for name, subject in helpers.oracle_subjects(d):
            cached = spectra.summarize(subject)
            fresh = spectra._summarize(subject.kind, d, scipy.linalg.eigvals(subject.superop),
                                       spectra.scale(subject), None, None)
            assert (cached.l0_or_m0, cached.lP_or_mP) == (fresh.l0_or_m0, fresh.lP_or_mP), name
            assert bounds.classify(subject) == bounds.classify(subject, summary=fresh), name


class TestGeneratorSummary:
    def test_zero_generator(self):
        gen = build_generator(np.zeros((3, 3)), ())
        s = spectra.summarize(gen)
        assert s.l0_or_m0 == 9 and s.lP_or_mP == 9

    def test_two_level_hamiltonian(self):
        s = spectra.summarize(saturating_hamiltonian_generator(3))
        assert s.l0_or_m0 == 5 and s.lP_or_mP == 9

    def test_dephasing_d5(self):
        s = spectra.summarize(dephasing_generator(5))
        assert s.l0_or_m0 == 17 and s.lP_or_mP == 17

    def test_rates_attached(self):
        s = spectra.summarize(dephasing_generator(3))
        rates = sorted(zip(s.rates.tolist(), s.multiplicities.tolist()))
        assert rates == [(0.0, 5), (1.0, 4)]

    def test_unitary_channels_have_full_peripheral_spectrum(self, rng):
        for _ in range(5):
            u = helpers.haar(3, rng)
            s = spectra.summarize(from_kraus([u]))
            assert s.lP_or_mP == 9

    def test_exponential_peripheral_match(self, rng):
        # lP(e^L) equals mP(L)
        for _ in range(5):
            gen = generic_gkls(2, rng)
            sg = spectra.summarize(gen)
            sc = spectra.summarize(exponentiate(gen, 1.0))
            assert sc.lP_or_mP == sg.lP_or_mP


GKLS_ENSEMBLES = ("gkls-generic", "gkls-unital", "gkls-hamiltonian")
# A short, seeded profile: every run draws the same subjects.
SHORT_SEEDED = settings(max_examples=30, derandomize=True)


def integer_results(rep):
    """Everything of a report that must not move when the subject is rescaled."""
    s = rep.summary
    return (rep.classification, s.l0_or_m0, s.lP_or_mP, s.multiplicities.tolist(),
            s.peripheral.tolist(), rep.fixed_dim, rep.attractor_dim, rep.commutant_dim,
            rep.discrepancy, rep.bounds_satisfied)


class TestScale:
    """Tolerances in units of spectra.scale: L and cL get the same counts."""

    def test_scale_is_a_power_of_four_of_the_inputs(self):
        gen = build_generator(np.diag([0.0, 3.0]), [np.diag([0.0, 1.0])])  # 3 + 1 = 4^1
        assert spectra.scale(gen) == 4.0
        assert spectra.scale(build_generator(np.zeros((2, 2)))) == 1.0
        assert spectra.scale(phase_damping_channel(2)) == 1.0
        # entries that overflow a plain Frobenius norm
        assert spectra.scale(build_generator(np.diag([0.0, 4.0 ** 300]))) == 4.0 ** 300
        # an empty noise stack does not pick the exponent: a Hamiltonian whose
        # squares underflow keeps its own scale, and the counts of H unscaled
        unscaled = integer_results(analysis.analyze(build_generator(np.diag([1.0, -1.0]))))
        for k, x in ((332, 1e-200), (498, 1e-300)):
            assert spectra.scale(build_generator(np.diag([0.0, 4.0 ** -k]))) == 4.0 ** -k
            tiny = build_generator(np.diag([x, -x]))
            assert spectra.scale(tiny) == 4.0 ** round(math.log(math.sqrt(2.0) * x, 4))
            assert integer_results(analysis.analyze(tiny)) == unscaled
        # ||A||^2 = 1e-400 is no float, nor is L: the unit falls back to 1
        assert spectra.scale(build_generator(np.zeros((2, 2)), [np.diag([0.0, 1e-200])])) == 1.0

    @SHORT_SEEDED
    @given(st.sampled_from(GKLS_ENSEMBLES), st.integers(2, 5), st.integers(0, 2 ** 16),
           st.integers(-40, 40))
    def test_power_of_four_rescale(self, ensemble, d, seed, j):
        # (4^j H, 2^j A_k) moves the scale by exactly 4^j, and its superoperator
        # is exactly 4^j L; dgeev may still round the last bits differently
        g = draw(ensemble, d, np.random.default_rng(seed))
        base = build_generator(g.hamiltonian, g.noise_ops)
        scaled = build_generator(4.0 ** j * g.hamiltonian, 2.0 ** j * g.noise_ops)
        assert spectra.scale(scaled) == 4.0 ** j * spectra.scale(base)
        want, got = analysis.analyze(base), analysis.analyze(scaled)
        assert integer_results(got) == integer_results(want)
        radius = np.abs(want.summary.values).max()
        np.testing.assert_allclose(got.summary.values / 4.0 ** j, want.summary.values,
                                   rtol=0, atol=1e-12 * radius)

    @SHORT_SEEDED
    @given(st.sampled_from(GKLS_ENSEMBLES), st.integers(2, 5), st.integers(0, 2 ** 16),
           st.floats(1e-8, 1e8))
    def test_integers_invariant_under_any_rescale(self, ensemble, d, seed, c):
        g = draw(ensemble, d, np.random.default_rng(seed))
        base = build_generator(g.hamiltonian, g.noise_ops)
        scaled = build_generator(c * g.hamiltonian, np.sqrt(c) * g.noise_ops)
        assert integer_results(analysis.analyze(scaled)) == \
            integer_results(analysis.analyze(base))


class TestJson:
    def test_fields_and_order(self):
        rep = analysis.analyze(phase_damping_channel(3))
        s, obj = rep.summary, analysis.report_to_json(rep)["summary"]
        assert obj["kind"] == "channel" and obj["dim"] == 3
        mods = [abs(complex(*e["value"])) for e in obj["distinct"]]
        assert mods == sorted(mods, reverse=True)
        assert obj["tolerances"]["cluster"] == s.cluster_tol

    def test_generator_rates_serialized(self):
        obj = analysis.report_to_json(analysis.analyze(dephasing_generator(2)))["summary"]
        assert any("rate" in e for e in obj["distinct"])
