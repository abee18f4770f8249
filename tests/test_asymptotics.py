import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

import helpers
from helpers import (
    dephasing_generator,
    generic_gkls,
    hamiltonian_gkls,
    identity_channel,
    is_faithful,
    stinespring_channel,
    unital_gkls,
)
from oqspectra import (
    analysis,
    asymptotics,
    bounds,
    campaign,
    commutants,
    constructions,
    linalg,
    spectra,
    superop,
)
from oqspectra.asymptotics import (
    attractor,
    faithful_reduce,
    fixed_projection,
    fixed_space,
    maximal_steady_state,
    peripheral_projection,
)
from oqspectra.constructions import (
    phase_damping_channel,
    saturating_dissipative_generator,
    saturating_hamiltonian_generator,
)
from oqspectra.gkls import build_generator, exponentiate
from oqspectra.superop import from_kraus, from_superop


def amplitude_damping(gamma=0.5):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return from_kraus([k0, k1])


class TestFixedSpace:
    def test_identity_channel_full(self):
        assert fixed_space(identity_channel(3)).dimension == 9

    @pytest.mark.xfail(strict=True, raises=asymptotics.ConsistencyError,
                       reason="ROADMAP item 1: Spectrum.null_space cuts the singular "
                              "values of M - I relative to their maximum, so the 1e6 "
                              "entry of an unrelated block buries the simple eigenvalue 1")
    def test_cut_ignores_unrelated_large_block(self):
        # sigma 5.7e-6 of the 2x2 block falls under the cut 1e-8 * 7.1e5
        r = scipy.linalg.block_diag(1.0, [[-1.0, 1e6], [-1e-18, -1.0]], 0.5)
        fake = helpers.forged_channel(r)  # r in Hermitian coordinates
        summary = spectra.summarize(fake)
        assert summary.l0_or_m0 == 1
        assert fixed_space(fake, summary=summary).dimension == 1

    def test_phase_damping_span(self):
        basis = fixed_space(phase_damping_channel(3))
        assert basis.dimension == 5
        # spanned by E11 and {Ejk : j,k >= 2}: check membership of each
        proj = basis.basis @ helpers.dag(basis.basis)
        for (i, j) in [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
            v = linalg.vec(helpers.matrix_unit(3, i, j))
            assert np.linalg.norm(proj @ v - v) <= 1e-10

    def test_faithful_channel_matches_dual_commutant(self, rng):
        ch = stinespring_channel(3, rng)
        assert is_faithful(ch)
        ops = list(ch.kraus) + [helpers.dag(b) for b in ch.kraus]
        cdim = commutants.commutant(ops).dimension
        dual_fix = fixed_space(helpers.dual(ch),
                               summary=spectra.summarize(ch))
        assert dual_fix.dimension == cdim

    def test_kernel_dimensions(self):
        assert fixed_space(build_generator(np.zeros((3, 3)), ())).dimension == 9
        assert fixed_space(saturating_hamiltonian_generator(3)).dimension == 5
        assert fixed_space(dephasing_generator(4)).dimension == 10

    def test_generator_commutant_inside_dual_kernel(self, rng):
        # {H, A_k, A_k^dag}' sits inside Ker(L*); equality when an
        # invertible kernel state exists (unital ensemble: I/d works)
        for maker, expect_equality in ((unital_gkls, True), (generic_gkls, False)):
            gen = maker(3, rng)
            ops = [gen.hamiltonian]
            for a in gen.noise_ops:
                ops += [a, helpers.dag(a)]
            cdim = commutants.commutant(ops).dimension
            dual_kernel = linalg.nullspace(helpers.dag(gen.superop), tol=1e-8)
            proj = dual_kernel @ helpers.dag(dual_kernel)
            cbasis = commutants.commutant(ops).basis
            resid = np.linalg.norm(cbasis - proj @ cbasis, 2)
            assert resid <= 1e-8
            if expect_equality:
                assert dual_kernel.shape[1] == cdim

    def test_dimension_mismatch_flags_clustering_failure(self):
        # near-degenerate unitary whose clustered l0 = 4 cannot be matched
        # by the true 2-dimensional fixed space
        ch = from_kraus([np.diag([1.0, np.exp(9.9e-9j)])])
        summary = spectra.summarize(ch)
        assert summary.l0_or_m0 == 4
        with pytest.raises(asymptotics.ConsistencyError, match="tighten"):
            fixed_space(ch, summary=summary)


class TestAttractor:
    def test_unitary_full_space(self, rng):
        ch = from_kraus([helpers.haar(3, rng)])
        assert attractor(ch).dimension == 9

    def test_phase_damping_equals_fixed_space(self):
        ch = phase_damping_channel(3)
        att = attractor(ch)
        fix = fixed_space(ch)
        assert att.dimension == 5
        # same subspace: projections agree
        pa = att.basis @ helpers.dag(att.basis)
        pf = fix.basis @ helpers.dag(fix.basis)
        assert np.linalg.norm(pa - pf) <= 1e-9

    def test_oscillating_coherences(self):
        # L = -i[H, .] + dephasing, H = diag(0,1,2): the attractor keeps the
        # lower-right coherences rotating at e^{-i(h_k - h_l)}
        deph = dephasing_generator(3)
        gen = build_generator(np.diag([0.0, 1.0, 2.0]), deph.noise_ops)
        ch = exponentiate(gen, 1.0)
        att = attractor(ch)
        assert att.dimension == 5
        proj = att.basis @ helpers.dag(att.basis)
        v = linalg.vec(helpers.matrix_unit(3, 1, 2))
        assert np.linalg.norm(proj @ v - v) <= 1e-9  # E_23 stays asymptotic
        w = np.linalg.eigvals(ch.superop)
        peripheral = w[np.abs(np.abs(w) - 1) <= 1e-9]
        helpers.assert_multisets_close(
            peripheral, [1, 1, 1, np.exp(-1j), np.exp(1j)], atol=1e-9)

    def test_generator_subject(self):
        gen = dephasing_generator(3)
        assert attractor(gen).dimension == 5

    def test_defective_peripheral_reported(self):
        # a forged non-CPTP map with a Jordan block at the peripheral
        # eigenvalue 1: the geometric deficit must be reported, never
        # glossed over (a valid channel cannot reach this state)
        r = np.eye(4)
        r[0, 1] = 1.0
        r[2, 2] = r[3, 3] = 0.5
        fake = helpers.forged_channel(r)  # r in Hermitian coordinates
        with pytest.raises(asymptotics.ConsistencyError, match="multiplicity"):
            attractor(fake)

    def test_singleton_without_overlap_reported(self):
        # a forged map whose peripheral pair -1 +- 1e-6i splits into two
        # singleton clusters with left/right eigenvector overlap ~2e-12:
        # numerically a Jordan block, so it cannot count as semisimple
        r = scipy.linalg.block_diag(1.0, [[-1.0, 1e6], [-1e-18, -1.0]], 0.5)
        fake = helpers.forged_channel(r)  # r in Hermitian coordinates
        summary = spectra.summarize(fake)
        assert summary.multiplicities[summary.peripheral].tolist() == [1, 1, 1]
        with pytest.raises(asymptotics.ConsistencyError, match="overlap"):
            attractor(fake)

    def test_overlap_is_the_one_of_matrix_coordinates(self, monkeypatch):
        # A forged map coupling a diagonal coordinate (h = 1) to an
        # off-diagonal one (h = 1/2): the simple peripheral eigenvalues 1 and
        # -1 have overlap 2/sqrt(8.5) in matrix coordinates (2/sqrt(13) in
        # the raw coordinates of R), and the semisimplicity test switches
        # exactly there
        r = np.diag([1.0, 0.5, -1.0, 0.5])
        r[0, 2] = 3.0
        fake = helpers.forged_channel(r)
        w, vl, vr = helpers.reference_eig(fake.superop)
        peripheral = np.flatnonzero(np.abs(w) > 0.9)
        overlap = min(abs(np.vdot(vl[:, k], vr[:, k])) for k in peripheral)
        assert overlap == pytest.approx(2 / np.sqrt(8.5), rel=1e-12)
        monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", overlap * (1 - 1e-9))
        assert attractor(fake).dimension == 2
        monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", overlap * (1 + 1e-9))
        with pytest.raises(asymptotics.ConsistencyError, match="overlap"):
            attractor(fake)

    def test_pair_overlap_is_the_one_of_matrix_coordinates(self, monkeypatch):
        # The peripheral pair e^{+-i} of a non-normal rotation that couples a
        # diagonal coordinate (h = 1) to an off-diagonal one (h = 1/2): the
        # overlap read from the packed columns Re v, Im v is the one of the
        # complex unit eigenvectors of M, and the error names e^{+i}
        s = np.array([[1.0, 2.0], [0.0, 1.0]])
        rot = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        r = np.diag([0.0, 1.0, 0.0, 0.5])
        r[np.ix_([0, 2], [0, 2])] = s @ rot @ np.linalg.inv(s)
        fake = helpers.forged_channel(r)
        w, vl, vr = helpers.reference_eig(fake.superop)
        pair = np.flatnonzero(np.abs(w.imag) > 0.5)
        overlap = min(abs(np.vdot(vl[:, k], vr[:, k])) for k in pair)
        assert overlap < 0.5
        monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", overlap * (1 - 1e-9))
        assert attractor(fake).dimension == 3
        monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", overlap * (1 + 1e-9))
        with pytest.raises(asymptotics.ConsistencyError, match=r"0\.540302\+0\.841471j.*overlap"):
            attractor(fake)

    def test_defective_non_anchor_peripheral_reported(self):
        # A forged map with a semisimple double anchor 1 and a Jordan block
        # at the peripheral eigenvalue -1: the values-only nullity check of
        # the cluster at -1, away from the anchor, must report the deficit
        r = np.diag([1.0, 1.0, -1.0, -1.0])
        r[2, 3] = 1.0
        fake = helpers.forged_channel(r)  # r in Hermitian coordinates
        summary = spectra.summarize(fake)
        assert summary.multiplicities[summary.peripheral].tolist() == [2, 2]
        assert fixed_space(fake, summary=summary).dimension == 2
        pattern = r"peripheral eigenvalue -1.*geometric multiplicity 1 != algebraic 2"
        with pytest.raises(asymptotics.ConsistencyError, match=pattern):
            attractor(fake, summary=summary)
        with pytest.raises(asymptotics.ConsistencyError, match=pattern):
            peripheral_projection(fake)
        assert re.search(pattern, analysis.analyze(fake).discrepancy)

    @pytest.mark.parametrize("dependent", ["singleton-copy", "parallel-pair"])
    def test_dependent_column_fails_certificate(self, monkeypatch, rng, dependent):
        # The oscillating-coherence channel: the eigenspace of 1 and the
        # singletons e^{+-i}, 5 certified unit eigenvectors in 9 dimensions.
        # A forged decomposition in which one column depends on the others (a
        # member of the eigenspace of 1 copied from the real part of a
        # singleton's, or a pair whose real and imaginary parts are parallel,
        # with the overlap that says so) leaves the rank one below the width:
        # the overlap certificate cannot vouch for it, and the fallback's SVD
        # refuses it.
        gen = build_generator(np.diag([0.0, 1.0, 2.0]), dephasing_generator(3).noise_ops)
        ch = exponentiate(gen, 1.0)
        summary = spectra.summarize(ch)
        spectrum = ch.spectrum
        k = asymptotics._semisimple(spectrum, summary)
        stack, _ = spectrum.eigenvectors(k)
        assert stack.shape == (9, 5)

        def rank(cols):
            return linalg.numerical_rank(scipy.linalg.svdvals(cols), cols.shape,
                                         asymptotics.ATTRACTOR_RANK_TOL)

        assert rank(stack) == 5
        # the stack is the complex stack of unit eigenvectors: the three of 1
        # and both of the pair e^{+-i}
        w, complex_stack = helpers.peripheral_eigenvectors(spectrum, summary)
        assert np.abs(np.abs(w) - 1).max() <= 1e-12 and complex_stack.shape == (9, 5)
        assert np.allclose(stack, complex_stack, rtol=0, atol=1e-12)
        one, pair = np.flatnonzero(np.abs(spectrum.values - 1) < 1e-9), np.flatnonzero(
            np.abs(spectrum.values - np.exp(1j)) < 1e-9)
        assert one.size == 3 and pair.size == 1
        vr, overlap = spectrum.vr.copy(), spectrum.overlap.copy()
        if dependent == "singleton-copy":
            vr[:, one[-1]] = vr[:, pair[0]]
        else:
            vr[:, pair[0] + 1] = 2 * vr[:, pair[0]]
            overlap[pair[0]:pair[0] + 2] = 1e-12  # v and its conjugate are parallel
            monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", 1e-13)  # no floor before it
        ch.spectrum = forged = dataclasses.replace(spectrum, vr=vr, overlap=overlap)
        k = asymptotics._semisimple(forged, summary)
        assert asymptotics._rank_bound(forged, summary, k) <= 1e-12
        assert rank(forged.eigenvectors(k)[0]) == 4
        reads = helpers.count_eigenvector_reads(monkeypatch)
        with pytest.raises(asymptotics.ConsistencyError,
                           match="attractor dimension 4 != peripheral multiplicity 5"):
            attractor(ch, summary=summary)
        # the certificate's block of the cluster at 1, then the fallback's whole set
        assert [read.size for read in reads] == [3, 5]

    @pytest.mark.parametrize("make, width, anchor_alone", [
        (lambda rng: phase_damping_channel(3), 5, True),  # the eigenspace of 1 alone
        (lambda rng: stinespring_channel(3, rng), 1, True),  # the simple eigenvalue 1 alone
        (lambda rng: from_kraus([helpers.haar(3, rng)]), 9, False),
    ])
    def test_stack_orthonormal_by_construction(self, monkeypatch, rng, make, width,
                                               anchor_alone):
        # The stack holds eigenvectors of R' from the cached decomposition.
        # Counting its rank takes no SVD of n rows: the anchor cluster alone is
        # the fixed space, whose dimension the cross-check certified, and
        # several clusters are certified from the overlaps, with one small
        # block SVD for the multiple cluster at 1 of the unitary.  The basis
        # built on a read takes one SVD with vectors, is orthonormal by
        # construction and spans the reference attractor.
        ch = make(rng)
        summary = spectra.summarize(ch)
        fixed = fixed_space(ch, summary=summary)
        k = asymptotics._semisimple(ch.spectrum, summary)
        z, _ = ch.spectrum.eigenvectors(k)
        assert z.shape == (9, width)
        r, w = ch.spectrum.real, ch.spectrum.values[k]
        residual = np.linalg.norm(r @ z - z * w, axis=0) / np.linalg.norm(z, axis=0)
        assert residual.max() <= 1e-12 * np.linalg.norm(r, 2)
        calls, _ = helpers.count_decompositions(monkeypatch)
        att = attractor(ch, summary=summary)
        assert att.dimension == width
        assert calls["svd", 9] == 0 and calls["svd_vectors"] == 0
        assert calls["svd"] == (0 if anchor_alone else 1)  # the 3 x 3 block of 1
        basis = att.basis
        assert calls["svd", 9] == calls["svd_vectors"] == 1
        ref = helpers.reference_attractor(ch.superop, summary)
        assert np.linalg.norm(helpers.dag(basis) @ basis - np.eye(width)) <= 1e-12
        assert np.linalg.norm(basis @ helpers.dag(basis) - ref @ helpers.dag(ref)) <= 1e-9
        if anchor_alone:
            assert np.linalg.norm(basis @ helpers.dag(basis)
                                  - fixed.basis @ helpers.dag(fixed.basis)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_per_cluster_svd_reference(self, d):
        for name, subject in helpers.oracle_subjects(d):
            summary = spectra.summarize(subject)
            att = attractor(subject, summary=summary)
            ref = helpers.reference_attractor(subject.superop, summary)
            assert att.dimension == ref.shape[1] == summary.lP_or_mP, name
            gap = np.linalg.norm(att.basis @ helpers.dag(att.basis) - ref @ helpers.dag(ref))
            assert gap <= 1e-9, f"{name}: projectors differ by {gap:.3e}"

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_matches_complex_reference(self, d):
        # Every right column is an eigenvector of R', and every left column
        # one of R'^H; the stack is the complex stack of all peripheral unit
        # eigenvectors unpacked from the decomposition, with its rank; and the
        # columns of each multiple cluster span its eigenspace, with its
        # conjugate's off the real axis, as complex SVD nullspaces of M find it
        def rank(cols):
            return linalg.numerical_rank(scipy.linalg.svdvals(cols), cols.shape,
                                         asymptotics.ATTRACTOR_RANK_TOL)

        names, off_axis = set(), 0
        for name, subject in helpers.oracle_subjects(d, seeds=2):
            spectrum, summary = subject.spectrum, spectra.summarize(subject)
            r, n = spectrum.real, d * d
            members = asymptotics._semisimple(spectrum, summary)
            z, u = spectrum.eigenvectors(members)
            assert z.shape == u.shape == (n, summary.lP_or_mP), name
            w = spectrum.values[members]
            bound = 1e-12 * np.linalg.norm(r, 2)
            assert (np.linalg.norm(r @ z - z * w, axis=0)
                    <= bound * np.linalg.norm(z, axis=0)).all(), name
            assert (np.linalg.norm(r.T @ u.conj() - u.conj() * w, axis=0)
                    <= bound * np.linalg.norm(u, axis=0)).all(), name
            _, complex_stack = helpers.peripheral_eigenvectors(spectrum, summary)
            assert np.abs(z - complex_stack).max() <= 1e-12, name
            assert rank(z) == rank(complex_stack) == summary.lP_or_mP, name
            cluster_of = summary.members[members]
            multiple = summary.peripheral & (summary.multiplicities > 1)
            for k in np.flatnonzero(multiple & (summary.values.imag >= 0)):
                mu, in_k = complex(summary.values[k]), cluster_of == k
                real = 2 * abs(mu.imag) <= summary.cluster_tol
                if k == summary.anchor_index:
                    mu = subject.kind.anchor
                centers = [mu.real] if real else [mu, mu.conjugate()]
                cols = spectrum.to_matrix(z[:, in_k] if real else
                                          np.hstack((z[:, in_k], z[:, in_k].conj())))
                ref = np.hstack([helpers.reference_nullspace(subject.superop, c)
                                 for c in centers])
                got = scipy.linalg.orth(cols)
                assert got.shape == ref.shape, name
                gap = np.linalg.norm(got @ helpers.dag(got) - ref @ helpers.dag(ref))
                assert gap <= 1e-10, f"{name}: cluster {mu:.6g} off by {gap:.3e}"
            off_axis += int((multiple & (2 * np.abs(summary.values.imag)
                                         > summary.cluster_tol)).any())
            if (summary.peripheral & ~multiple & (summary.values.imag > 0)).any():
                names.add(name.split("-s")[0])  # a singleton pair
        assert {"haar-unitary", "gkls-hamiltonian"} <= names
        assert off_axis >= (2 if d >= 3 else 0)  # the unitary and Hamiltonian constructors

    def test_columns_are_the_per_subject_ones(self, monkeypatch):
        # verify-small's 1512 subjects (the benchmark's campaigns at seed 101,
        # one per source and d): the members that pass the checks on the
        # stacked overlaps are those of the per-subject arithmetic, and their
        # eigenvectors those unpacked from that subject alone, for the
        # attractor and for the anchor cluster alone; a subject that fails a
        # check fails it with the same message
        seen, original = [], asymptotics.attractor

        def spy(subject, summary=None):
            seen.append((subject.spectrum, summary))
            return original(subject, summary)

        monkeypatch.setattr(asymptotics, "attractor", spy)
        for source in campaign.ALL_SOURCES:
            for d in (2, 3, 4):
                campaign.run_campaign(campaign.CampaignConfig(
                    dims=(d,), per_dim=100, sources=(source,), seed=101))
        assert len(seen) == 1512

        def columns(spectrum, summary, anchor_only):
            k = asymptotics._semisimple(spectrum, summary, anchor_only)
            return (k, *spectrum.eigenvectors(k))

        def outcome(build, *args):
            try:
                return build(*args)
            except asymptotics.ConsistencyError as exc:
                return str(exc)

        pairs = 0
        for spectrum, summary in seen:
            pairs += bool((summary.peripheral[summary.members] & (spectrum.values.imag > 0)).any())
            for anchor_only in (False, True):
                args = (spectrum, summary, anchor_only)
                got, want = outcome(columns, *args), outcome(
                    helpers.reference_attractor_eigenvectors, *args)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert np.array_equal(got[0], want[0])
                for g, w in zip(got[1:], want[1:]):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
        assert pairs == 606  # with a peripheral pair: a conjugate's column unpacked too


def certificate(subject, summary):
    """The overlap certificate's bound on the smallest singular value of a
    subject's attractor columns, its threshold, and scipy's smallest
    singular value of those columns; None with one peripheral cluster."""
    if np.count_nonzero(summary.peripheral) == 1:
        return None
    spectrum = subject.spectrum
    k = asymptotics._semisimple(spectrum, summary)
    stack, _ = spectrum.eigenvectors(k)
    return (asymptotics._rank_bound(spectrum, summary, k),
            asymptotics.ATTRACTOR_RANK_TOL * np.sqrt(stack.shape[1]),
            scipy.linalg.svdvals(stack).min())


class TestRankCertificate:
    """The attractor's rank from the overlaps: sigma_min(V) >= sigma_min(W^H V) / ||W||_2."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_bound_is_sound_on_oracle_subjects(self, d):
        # every subject with several peripheral clusters: the bound never
        # exceeds scipy's smallest singular value, and it certifies the rank
        several = 0
        for name, subject in helpers.oracle_subjects(d, seeds=2):
            checked = certificate(subject, spectra.summarize(subject))
            if checked is not None:
                bound, threshold, least = checked
                assert threshold < bound <= least, name
                several += 1
        assert several == 6  # the unitary and Hamiltonian constructors, 2 draws of each

    def test_bound_is_sound_on_verify_small(self, monkeypatch):
        # the 1512 subjects of the benchmark's verify-small campaigns at seed
        # 101: 606 have several peripheral clusters, and the bound certifies
        # each of them below scipy's smallest singular value
        seen, original = [], asymptotics.attractor

        def spy(subject, summary=None):
            seen.append((subject, summary))
            return original(subject, summary)

        monkeypatch.setattr(asymptotics, "attractor", spy)
        for source in campaign.ALL_SOURCES:
            for d in (2, 3, 4):
                campaign.run_campaign(campaign.CampaignConfig(
                    dims=(d,), per_dim=100, sources=(source,), seed=101))
        assert len(seen) == 1512
        checked = [c for c in (certificate(*pair) for pair in seen) if c is not None]
        assert len(checked) == 606
        assert all(threshold < bound <= least for bound, threshold, least in checked)

    @pytest.mark.parametrize("coupling", [3.5e5, 1e6])
    def test_near_dependent_pair_falls_back(self, monkeypatch, coupling):
        # A forged map with the simple peripheral pairs e^{+-i} and
        # e^{+-i(1 + 1e-4)} coupled by a large block: their eigenvectors are
        # nearly parallel, with overlaps 1.4e-4 / coupling.  With the overlap
        # floor out of the way the bound cannot certify the rank, and the
        # fallback's SVD decides as the stack's singular values do: full rank
        # at one coupling, two columns short at the other, with its message.
        def rot(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        r = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5])
        r[1:3, 1:3], r[3:5, 3:5], r[1:3, 3:5] = rot(1.0), rot(1.0 + 1e-4), coupling * np.eye(2)
        fake = helpers.forged_channel(r)
        summary = spectra.summarize(fake)
        assert summary.multiplicities[summary.peripheral].tolist() == [1] * 5
        with pytest.raises(asymptotics.ConsistencyError, match="overlap"):
            attractor(fake, summary=summary)  # the floor comes first by default
        monkeypatch.setattr(asymptotics, "DEFAULT_NULL_TOL", 1e-12)
        bound, threshold, least = certificate(fake, summary)
        assert bound <= threshold and bound <= least
        k = asymptotics._semisimple(fake.spectrum, summary)
        stack, _ = fake.spectrum.eigenvectors(k)
        rank = linalg.numerical_rank(scipy.linalg.svdvals(stack), stack.shape,
                                     asymptotics.ATTRACTOR_RANK_TOL)
        assert rank == (5 if coupling < 5e5 else 3)
        reads = helpers.count_eigenvector_reads(monkeypatch)
        if rank == 5:
            assert attractor(fake, summary=summary).dimension == 5
        else:
            with pytest.raises(asymptotics.ConsistencyError,
                               match=f"^attractor dimension {rank} != peripheral multiplicity 5$"):
                attractor(fake, summary=summary)
        assert [read.size for read in reads] == [5]  # the fallback's, of the whole set


class TestComplexReference:
    """The real-coordinate path against complex SVDs of M itself."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_real_path_matches_complex_reference(self, d):
        for name, subject in helpers.subjects_and_derived(d):
            channel = isinstance(subject, superop.QuantumChannel)
            anchor = 1.0 if channel else 0.0
            m, ident = subject.superop, np.eye(d * d)
            s_real = scipy.linalg.svdvals(subject.spectrum.real - anchor * ident)
            s_ref = np.linalg.svd(m - anchor * ident, compute_uv=False)
            assert np.abs(s_real - s_ref).max() <= 1e-13 * s_ref[0], name

            report = analysis.analyze(subject, with_commutant=False)
            summary = report.summary
            ref_fixed = helpers.reference_nullspace(m, anchor)
            ref_attractor = helpers.reference_attractor(m, summary)
            assert report.fixed_dim == ref_fixed.shape[1], name
            assert report.attractor_dim == ref_attractor.shape[1], name
            for basis, ref in ((fixed_space(subject, summary=summary).basis, ref_fixed),
                               (attractor(subject, summary=summary).basis, ref_attractor)):
                k = basis.shape[1]
                assert np.linalg.norm(helpers.dag(basis) @ basis - np.eye(k)) <= 1e-12, name
                assert scipy.linalg.subspace_angles(basis, ref).max() <= 1e-9, name

            # A fresh decomposition has the reference's eigenvalues bit for
            # bit; the cached one of a sampled generator was rescaled with
            # its matrix, and its eigenvectors are those of its own R'
            assert np.array_equal(linalg.eig(m).values, helpers.reference_eig(m)[0]), name
            w, r = subject.spectrum.values, subject.spectrum.real
            vl, vr = helpers.real_eigenvectors(subject.spectrum)
            bound = 16.0 * d * d * linalg.EPS * np.linalg.norm(m, 2)
            assert np.linalg.norm(r @ vr - vr * w, axis=0).max() <= bound, name
            assert np.linalg.norm(helpers.dag(vl) @ r - w[:, None] * helpers.dag(vl),
                                  axis=1).max() <= bound, name


class TestValuesOnly:
    """``analyze`` decomposes each subject once and asks no SVD for vectors;
    a basis is built only when read."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_analyze_computes_no_singular_vectors(self, monkeypatch, d):
        calls, _ = helpers.count_decompositions(monkeypatch)
        if d <= 4:
            subjects = helpers.oracle_subjects(d)
        else:  # one draw of each ensemble
            subjects = [(name, constructions.draw(name, d, np.random.default_rng(d)))
                        for name in constructions.ENSEMBLES]
        reports = [analysis.analyze(s, with_commutant=False) for _, s in subjects]
        assert calls["real_eig"] == len(subjects)
        assert calls["svd_vectors"] == 0 and calls["svd"] > 0
        monkeypatch.undo()
        for (name, subject), report in zip(subjects, reports):
            summary, m = report.summary, subject.superop
            assert report.discrepancy is None, name
            cases = ((fixed_space(subject, summary=summary),
                      helpers.reference_nullspace(m, subject.kind.anchor)),
                     (attractor(subject, summary=summary),
                      helpers.reference_attractor(m, summary)))
            for space, ref in cases:
                basis, k = space.basis, space.dimension
                assert basis.shape == ref.shape == (d * d, k), name
                assert np.linalg.norm(helpers.dag(basis) @ basis - np.eye(k)) <= 1e-12, name
                gap = np.linalg.norm(basis @ helpers.dag(basis) - ref @ helpers.dag(ref))
                assert gap <= 1e-9, f"{name}: projectors differ by {gap:.3e}"


class TestProjections:
    def test_identity_channel(self):
        assert np.allclose(peripheral_projection(identity_channel(2)), np.eye(4))

    def test_phase_damping_explicit_form(self):
        # kills the off-diagonal blocks, fixes the rest
        ch = phase_damping_channel(3)
        pp = peripheral_projection(ch)
        factors = np.ones((3, 3))
        factors[0, 1:] = 0.0
        factors[1:, 0] = 0.0
        expected = np.diag(factors.flatten(order="F"))
        assert np.linalg.norm(pp - expected) <= 1e-9

    def test_idempotent_commuting_cptp(self, rng):
        for ch in (phase_damping_channel(3), stinespring_channel(3, rng)):
            pp = peripheral_projection(ch)
            assert np.linalg.norm(pp @ pp - pp) <= 1e-7
            assert np.linalg.norm(pp @ ch.superop - ch.superop @ pp) <= 1e-7
            from_superop(pp, tp_tol=1e-6, cp_tol=1e-6)  # CPTP or raises

    def test_projection_fixed_space_is_attractor(self, rng):
        ch = stinespring_channel(2, rng)
        pp = peripheral_projection(ch)
        pp_channel = from_superop(pp, tp_tol=1e-6, cp_tol=1e-6)
        att = attractor(ch)
        assert fixed_space(pp_channel).dimension == att.dimension
        proj = att.basis @ helpers.dag(att.basis)
        for k in range(att.dimension):
            v = att.basis[:, k]
            assert np.linalg.norm(pp @ v - v) <= 1e-8
        assert bounds.classify(pp_channel) == "non-unitary"

    def test_cesaro_cross_check(self, rng):
        for ch in (phase_damping_channel(3), stinespring_channel(2, rng)):
            p = fixed_projection(ch)
            c = helpers.cesaro_projection(ch, n=2048)
            assert np.linalg.norm(p - c) <= 1e-2

    def test_cesaro_on_unitary(self):
        u = np.diag([1.0, np.exp(1j)])
        ch = from_kraus([u])
        p = fixed_projection(ch)
        c = helpers.cesaro_projection(ch, n=4096)
        assert np.linalg.norm(p - c) <= 1e-2


    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_reference_projector(self, d):
        # Built from the cached Spectrum against complex SVD nullspaces of M
        # and M^dag, cluster by cluster: the anchor alone and all peripheral
        subjects = helpers.oracle_subjects(d, seeds=2)
        subjects.append(("dephasing", dephasing_generator(d)))
        subjects += [(f"dual-{name}", helpers.dual(s)) for name, s in subjects
                     if s.kind == spectra.CHANNEL]
        for name, subject in subjects:
            m, summary = subject.superop, spectra.summarize(subject)
            cases = [
                (fixed_projection(subject), helpers.reference_projector(m, subject.kind.anchor)),
                (peripheral_projection(subject),
                 sum(helpers.reference_projector(m, value)
                     for value in summary.values[summary.peripheral])),
            ]
            for got, want in cases:
                assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want)), name

    @pytest.mark.parametrize("make", [
        lambda rng: dephasing_generator(3),
        lambda rng: saturating_hamiltonian_generator(3),
        lambda rng: saturating_dissipative_generator(4, ((1.0, 0.0), (1j, -1j))),
        lambda rng: generic_gkls(3, rng),
        lambda rng: unital_gkls(4, rng),
        lambda rng: hamiltonian_gkls(3, rng),
    ])
    def test_generator_projections(self, rng, make):
        # P onto Ker(L): idempotent, annihilated by L from both sides, of
        # trace m0; the peripheral projection commutes with L
        gen = make(rng)
        ell, summary = gen.superop, spectra.summarize(gen)
        scale = max(1.0, np.linalg.norm(ell))
        p = fixed_projection(gen)
        assert np.linalg.norm(p @ p - p) <= 1e-9 * max(1.0, np.linalg.norm(p))
        assert np.linalg.norm(ell @ p) <= 1e-9 * scale * max(1.0, np.linalg.norm(p))
        assert np.linalg.norm(p @ ell) <= 1e-9 * scale * max(1.0, np.linalg.norm(p))
        assert np.trace(p) == pytest.approx(summary.l0_or_m0, abs=1e-9)
        pp = peripheral_projection(gen)
        assert np.linalg.norm(pp @ ell - ell @ pp) <= 1e-9 * scale * max(1.0, np.linalg.norm(pp))
        assert np.trace(pp) == pytest.approx(summary.lP_or_mP, abs=1e-9)

    @pytest.mark.parametrize("make", [
        lambda rng: from_kraus([helpers.haar(4, rng)]),  # 12 singletons, 1 cluster
        lambda rng: stinespring_channel(3, rng),
        lambda rng: phase_damping_channel(3),
        lambda rng: dephasing_generator(3),
        lambda rng: generic_gkls(4, rng),
    ])
    def test_read_cached_spectrum(self, monkeypatch, rng, make):
        # With the spectrum cached, no eig and no complex SVD: every column
        # is a cached eigenvector, and a real multiple cluster's nullity takes
        # a real values-only SVD (a cluster off the real axis would take a
        # complex one, values-only too)
        subject = make(rng)
        subject.spectrum
        calls, dtypes = helpers.count_decompositions(monkeypatch)
        eigs = helpers.count_calls(monkeypatch, np.linalg, ("eig", "eigvals"))
        peripheral_projection(subject)
        fixed_projection(subject)
        asymptotics.maximal_steady_state(subject)
        assert sum(eigs.values()) + calls["real_eig"] + calls["eig"] + calls["eigvals"] == 0
        assert all(dtype.kind == "f" for _, dtype in dtypes), dtypes


class TestFaithfulReduce:
    def test_faithful_input_identity_reduction(self, rng):
        ch = stinespring_channel(3, rng)
        red = faithful_reduce(ch)
        assert red.support_dim == 3
        assert np.linalg.norm(
            red.reduced_channel.superop - _conjugated_superop(ch, red.isometry)
        ) <= 1e-8

    def test_amplitude_damping_collapses(self):
        red = faithful_reduce(amplitude_damping(0.5))
        assert red.support_dim == 1
        assert fixed_space(red.reduced_channel).dimension == 1
        # steady state is |0><0|
        iso = red.isometry
        assert abs(abs(iso[0, 0]) - 1.0) <= 1e-9

    def test_one_dimensional_reduction_reports_no_violation(self):
        # at d = 1 the ceiling comparison d^2-2d+2 <= d^2-d reads 1 <= 0,
        # which is no theorem and must not be reported as violated
        red = faithful_reduce(amplitude_damping(0.5))
        rep = analysis.analyze(red.reduced_channel)
        assert rep.summary.dim == 1 and rep.bounds_satisfied
        assert all(c.satisfied for c in rep.bound_report.checks)

    def test_pinching_already_faithful(self):
        p1 = helpers.matrix_unit(2, 0, 0)
        ch = from_kraus([p1, np.eye(2) - p1])
        assert np.linalg.norm(helpers.apply_superop(ch.superop, np.eye(2)) - np.eye(2)) <= 1e-12
        assert faithful_reduce(ch).support_dim == 2

    def test_non_faithful_fix_dimension_preserved(self, rng):
        for d, d0 in ((3, 2), (4, 2)):
            ch = helpers.subspace_supported_channel(d, d0, rng)
            assert not is_faithful(ch)
            red = faithful_reduce(ch)
            assert red.support_dim <= d0
            assert fixed_space(ch).dimension == fixed_space(red.reduced_channel).dimension


def _conjugated_superop(ch, iso):
    kraus = [helpers.dag(iso) @ b @ iso for b in ch.kraus_operators()]
    return superop.kraus_to_superop(kraus)


class TestSteadyStates:
    def test_unitary_returns_maximally_mixed(self, rng):
        rho = maximal_steady_state(from_kraus([helpers.haar(3, rng)]))
        assert np.linalg.norm(rho - np.eye(3) / 3) <= 1e-9

    def test_amplitude_damping_unique_state(self):
        ch = amplitude_damping(0.5)
        expected = np.zeros((2, 2)); expected[0, 0] = 1.0
        assert fixed_space(ch).dimension == 1
        assert np.linalg.norm(maximal_steady_state(ch) - expected) <= 1e-9

    def test_dephasing_states_valid_and_multiple(self):
        gen = dephasing_generator(3)
        assert fixed_space(gen).dimension == 5
        rho = maximal_steady_state(gen)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        assert np.linalg.norm(helpers.gkls_apply(gen.hamiltonian, gen.noise_ops, rho)) <= 1e-7
        # the block structure of the kernel: E11 and the 2..3 block states
        # are steady by the direct action
        e11 = helpers.matrix_unit(3, 0, 0)
        block = np.zeros((3, 3)); block[1, 1] = block[2, 2] = 0.5
        for rho in (e11, block):
            assert np.linalg.norm(helpers.gkls_apply(
                gen.hamiltonian, gen.noise_ops, rho)) <= 1e-12

    def test_channel_states_are_fixed(self, rng):
        ch = stinespring_channel(3, rng)
        rho = maximal_steady_state(ch)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        assert np.linalg.norm(helpers.kraus_apply(ch.kraus, rho) - rho) <= 1e-8


class TestEvolutionConvergence:
    def test_distance_to_attractor_decays(self, rng):
        for ch in (phase_damping_channel(3), stinespring_channel(2, rng)):
            att = attractor(ch)
            proj = att.basis @ helpers.dag(att.basis)
            rho = helpers.random_density(ch.dim, rng)
            v = linalg.vec(rho)
            n, n0 = 0, None
            m = ch.superop
            while n < 4096:
                dist = np.linalg.norm(v - proj @ v)
                if dist <= 1e-6:
                    n0 = n
                    break
                v = m @ v
                n += 1
            assert n0 is not None, "no convergence to the attractor by n = 4096"
