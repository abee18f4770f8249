import tracemalloc

import numpy as np
import pytest

import helpers
from oqspectra import analysis
from oqspectra.constructions import stinespring_channel
from oqspectra.commutants import (
    JordanProfile,
    commutant,
    commutant_dim_from_jordan,
    weyr_profile,
)


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
        proj = res.basis.basis @ helpers.dag(res.basis.basis)
        v = np.eye(4).flatten(order="F")
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(proj @ v - v) <= 1e-10

    def test_closed_under_products(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        res = commutant([a, helpers.dag(a)])
        mats = res.basis.matrices()
        proj = res.basis.basis @ helpers.dag(res.basis.basis)
        for x in mats:
            for y in mats:
                v = (x @ y).flatten(order="F")
                assert np.linalg.norm(proj @ v - v) <= 1e-8 * max(1, np.linalg.norm(v))

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
        # K = d^2 Kraus operators and their adjoints stack into a
        # 2 K d^2 x d^2 = 41472 x 144 commutation matrix at d = 12; the
        # unread U factor of its full SVD alone would take 25.6 GiB
        ch = stinespring_channel(12, np.random.default_rng(12))
        tracemalloc.start()
        try:
            rep = analysis.analyze_channel(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.bounds_satisfied and rep.commutant_dim == rep.fixed_dim
        assert peak <= 2 ** 30, f"peak {peak / 2 ** 20:.0f} MiB"


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
