import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import (
    JordanProfile,
    commutant_dim_from_jordan,
    ginibre,
    random_hermitian,
    stinespring_channel,
    weyr_profile,
)
from oqspectra import analysis, commutants, constructions, linalg
from oqspectra.gkls import build_generator
from oqspectra.commutants import commutant, commutant_dimension

CONSTRUCTORS = (
    constructions.saturating_unitary_channel,
    constructions.phase_damping_channel,
    constructions.saturating_hamiltonian_generator,
    constructions.saturating_dissipative_generator,
    helpers.dephasing_generator,
)


def brute_force_dim(ops):
    return commutant(ops).dimension


class TestBruteForce:
    def test_identity_commutant_is_everything(self):
        assert commutant([np.eye(3)]).dimension == 9

    def test_distinct_diagonal(self):
        assert commutant([np.diag([1.0, 2.0, 3.0])]).dimension == 3

    def test_rank_one_projector_d4(self):
        # dim {P1}' = (d-1)^2 + 1 = 10 at d = 4
        p1 = helpers.matrix_unit(4, 0, 0)
        assert commutant([p1]).dimension == 10

    def test_identity_always_inside(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = commutant([a])
        proj = res.basis @ helpers.dag(res.basis)
        v = np.eye(4).flatten(order="F")
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(proj @ v - v) <= 1e-10

    def test_closed_under_products(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        res = commutant([a, helpers.dag(a)])
        mats = [linalg.unvec(res.basis[:, k]) for k in range(res.dimension)]
        proj = res.basis @ helpers.dag(res.basis)
        for x in mats:
            for y in mats:
                v = (x @ y).flatten(order="F")
                assert np.linalg.norm(proj @ v - v) <= 1e-8 * max(1, np.linalg.norm(v))

    @pytest.mark.parametrize("scale", [1e-170, 1e155, 1e200])
    def test_count_invariant_under_scale(self, scale):
        # the cut is anchored at the operators' Frobenius norms, which
        # overflow from about 1e155 unless the set is scaled first
        assert commutant([np.diag([0.0, scale])]).dimension == 2

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            commutant([])

    def test_scalar_saturates_d_squared(self):
        assert commutant([2.5 * np.eye(4)]).dimension == 16

    def test_nonscalar_bounded(self, rng):
        for d in (3, 4, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert commutant([a]).dimension <= d * d - 2 * d + 2


    def test_default_stinespring_d12_fits_in_memory(self):
        # K = d^2 Kraus operators and their adjoints would stack into a
        # 2 K d^2 x d^2 = 41472 x 144 commutation matrix at d = 12 (95 MiB,
        # and the unread U factor of its full SVD 25.6 GiB); the Gram route
        # works on 144 x 144 matrices
        ch = stinespring_channel(12, np.random.default_rng(12))
        tracemalloc.start()
        try:
            rep = analysis.analyze(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.bounds_satisfied and rep.commutant_dim == rep.fixed_dim
        assert peak <= 64 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"


class TestGramRoute:
    """``commutant_dimension`` gives the brute-force count on every set."""

    @given(st.sampled_from(tuple(constructions.ENSEMBLES)), st.integers(2, 8),
           st.integers(0, 2 ** 16))
    def test_ensembles_match_brute_force(self, ensemble, d, seed):
        config = constructions.SamplerConfig(seed=seed, dim=d, ensemble=ensemble)
        ops = helpers.star_closed_ops(next(constructions.sample(config)))
        assert commutant_dimension(ops) == brute_force_dim(ops)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_constructors_match_brute_force(self, d):
        for build in CONSTRUCTORS:
            ops = helpers.star_closed_ops(build(d))
            assert commutant_dimension(ops) == brute_force_dim(ops), build.__name__

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
           .filter(lambda abc: 2 <= abc[0] * abc[1] + abc[2] <= 8),
           st.integers(0, 2 ** 16))
    def test_block_algebras_known_dimension(self, abc, seed):
        a, b, c = abc
        ops = helpers.block_algebra_ops(a, b, c, np.random.default_rng(seed))
        known = b * b + (1 if c else 0)
        assert commutant_dimension(ops) == brute_force_dim(ops) == known

    @pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9, 1e-12])
    def test_near_degenerate_sets_match_brute_force(self, eps, rng):
        # {H, eps A, eps A^dag}: the small commutators straddle the cut, so
        # whichever branch answers must agree with the stack SVD
        for d in (3, 5, 8):
            h = random_hermitian(d, rng)
            a = eps * ginibre(d, d, rng)
            ops = [h, a, helpers.dag(a)]
            assert commutant_dimension(ops) == brute_force_dim(ops)

    def test_scalar_and_zero_sets(self):
        assert commutant_dimension([2.5 * np.eye(4)]) == 16
        assert commutant_dimension([np.zeros((3, 3))]) == 9

    @pytest.mark.parametrize("scale", [1e-320, 1e-170, 1.0, 1e155, 1e300])
    def test_count_invariant_under_scale(self, scale):
        # unscaled, the Gram products of diag(0, s) underflow to a zero cut
        # that certifies all four, or overflow
        assert commutant_dimension([np.diag([0.0, scale])]) == 2

    def test_analyze_huge_hamiltonian(self):
        rep = analysis.analyze(build_generator(np.diag([0.0, 1e155])))
        assert rep.classification == "hamiltonian" and rep.bounds_satisfied
        assert (rep.summary.l0_or_m0, rep.summary.lP_or_mP, rep.commutant_dim) == (2, 4, 2)

    def test_empty_or_mixed_sets_rejected(self):
        with pytest.raises(ValueError):
            commutant_dimension([])
        with pytest.raises(ValueError):
            commutant_dimension([np.eye(2), np.eye(3)])

    def test_analyze_builds_no_commutation_stack(self, monkeypatch):
        config = constructions.SamplerConfig(seed=0, dim=8, ensemble="gkls-generic")
        without, _ = helpers.count_decompositions(monkeypatch)
        analysis.analyze(next(constructions.sample(config)), with_commutant=False)
        monkeypatch.undo()
        with_commutant, _ = helpers.count_decompositions(monkeypatch)
        stack = helpers.count_calls(monkeypatch, linalg, ("commutation_superop",))
        brute = helpers.count_calls(monkeypatch, commutants, ("commutant",))
        rep = analysis.analyze(next(constructions.sample(config)))
        assert rep.commutant_dim == 1
        assert stack["commutation_superop"] == brute["commutant"] == 0
        assert with_commutant == without
        # the counter sees the cross-check, which may be values-only
        assert without["svd"] + without["svdvals"] > 0

    def test_star_closed_sets_decompose_in_float64(self, monkeypatch):
        # G' = U^dag G U is real for a *-closed set: no complex eigensolver
        # runs, and the count is still the brute-force one
        dtypes = []
        entries = [(scipy.linalg, name) for name in ("eigh", "eigvalsh")]
        entries += [(np.linalg, name) for name in ("eigh", "eigvalsh")]
        for module, name in entries:
            def spy(a, *args, _original=getattr(module, name), _name=name, **kwargs):
                dtypes.append((_name, np.asarray(a).dtype))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        brute = helpers.count_calls(monkeypatch, commutants, ("commutant",))
        for d in (3, 5):
            for name, subject in helpers.oracle_subjects(d, seeds=1):
                ops = helpers.star_closed_ops(subject)
                del dtypes[:]
                got = commutant_dimension(ops)
                assert dtypes and all(t == np.float64 for _, t in dtypes), name
                # eigenvectors only to certify null vectors beyond the identity
                want = {"eigvalsh"} if got == 1 else {"eigvalsh", "eigh"}
                assert {n for n, _ in dtypes} == want, name
                assert got == brute_force_dim(ops), name
        assert brute["commutant"] == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_set_not_star_closed_falls_back(self, monkeypatch, rng, d):
        # {A} for a Ginibre A: P != Q, so G' has an imaginary part far above
        # rounding, which the route must not drop
        a = ginibre(d, d, rng)
        brute = helpers.count_calls(monkeypatch, commutants, ("commutant",))
        gram = helpers.count_calls(monkeypatch, np.linalg, ("eigvalsh", "eigh"))
        assert commutant_dimension([a]) == brute_force_dim([a]) == d
        assert brute["commutant"] == 1 and sum(gram.values()) == 0

    def test_normal_operator_stays_real(self, monkeypatch, rng):
        # {U} for a Haar unitary is not *-closed, but P = Q = I: G' is real
        u = constructions.draw("haar-unitary", 4, rng).kraus[0]
        brute = helpers.count_calls(monkeypatch, commutants, ("commutant",))
        assert commutant_dimension([u]) == brute_force_dim([u]) == 4
        assert brute["commutant"] == 0

    def test_cut_inside_rounding_noise_falls_back(self, monkeypatch):
        # A cut a few decades under the rounding level of G's null
        # eigenvalues splits them; the gap test must then refuse the count
        monkeypatch.setattr(commutants, "GRAM_NULL_FACTOR", 1e-3)
        for d in (4, 6, 8):
            ops = helpers.star_closed_ops(constructions.phase_damping_channel(d))
            assert commutant_dimension(ops) == brute_force_dim(ops)


class TestJordanFormula:
    def test_single_block(self):
        # J3: s = (1,1,1), c = 3; brute force on the literal block agrees
        profile = JordanProfile(eigenvalues=(((0 + 0j), (3,)),))
        assert commutant_dim_from_jordan(profile) == 3
        assert commutant([helpers.jordan_block(0.0, 3)]).dimension == 3

    def test_two_simple_eigenvalues(self):
        profile = JordanProfile(eigenvalues=((0j, (1,)), (1 + 0j, (1,))))
        assert commutant_dim_from_jordan(profile) == 2

    def test_two_eigenvalue_saturation(self):
        # diagonalizable, multiplicities (1, d-1) at d = 5: 1 + 16 = 17
        profile = JordanProfile(eigenvalues=((0j, (1,)), (1 + 0j, (1, 1, 1, 1))))
        assert commutant_dim_from_jordan(profile) == 17

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            commutant_dim_from_jordan(JordanProfile(eigenvalues=((0j, ()),)))


class TestWeyr:
    def test_diagonalizable(self, rng):
        a = np.diag([1.0, 1.0, 3.0]).astype(complex)
        u = helpers.haar(3, rng)
        profile = weyr_profile(u @ a @ helpers.dag(u))
        sizes = {round(c.real): s for c, s in profile.eigenvalues}
        assert sizes[1] == (1, 1) and sizes[3] == (1,)

    def test_planted_mixed_blocks(self, rng):
        # J2(0) + J1(0) + J1(5)
        profile_in = JordanProfile(eigenvalues=((0j, (2, 1)), (5 + 0j, (1,))))
        a = helpers.plant_jordan(profile_in, rng, cond_max=100.0)
        got = weyr_profile(a)
        by_center = {round(c.real): s for c, s in got.eigenvalues}
        assert by_center[0] == (2, 1)
        assert by_center[5] == (1,)

    def test_formula_matches_brute_force_on_plantings(self, rng):
        for d in (3, 4, 5, 6):
            for _ in range(5):
                profile_in = helpers.random_jordan_profile(d, rng)
                a = helpers.plant_jordan(profile_in, rng)
                got = weyr_profile(a, cluster_tol=helpers.JORDAN_CLUSTER_TOL)
                brute = commutant([a], tol=helpers.JORDAN_COMMUTANT_TOL).dimension
                assert commutant_dim_from_jordan(got) == brute
                assert commutant_dim_from_jordan(got) == \
                    commutant_dim_from_jordan(profile_in)

    def test_ill_separated_refused(self):
        a = np.diag([0.0, 5e-6]).astype(complex)  # gap < 100 x default tol
        with pytest.raises(ValueError, match="not certifiable"):
            weyr_profile(a)

    def test_scalar_matrix(self):
        profile = weyr_profile(2.0 * np.eye(3))
        assert profile.eigenvalues[0][1] == (1, 1, 1)
        assert commutant_dim_from_jordan(profile) == 9
