import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from oqspectra import linalg
from oqspectra.constructions import phase_damping_channel


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestEig:
    def test_identity(self):
        w, _, _ = linalg.eig(np.eye(3))
        helpers.assert_multisets_close(w, [1, 1, 1])

    def test_diagonal(self):
        w, _, _ = linalg.eig(np.diag([2.0, 5.0]))
        helpers.assert_multisets_close(w, [2, 5])

    def test_phase_damping_superop_spectrum(self):
        # {1 x5, e^-1 x4} at d = 3
        w, _, _ = linalg.eig(phase_damping_channel(3).superop)
        expected = [1.0] * 5 + [np.exp(-1.0)] * 4
        helpers.assert_multisets_close(w, expected, atol=1e-12)

    def test_residual_contract(self, rng):
        for n in (2, 5, 9, 16):
            a = random_complex(rng, n, n)
            w, vl, vr = linalg.eig(a)
            bound = linalg.eig_residual_kappa(n) * linalg.EPS * np.linalg.norm(a, 2)
            for k in range(n):
                res = np.linalg.norm(a @ vr[:, k] - w[k] * vr[:, k])
                assert res <= bound
                left = np.linalg.norm(helpers.dag(vl[:, k]) @ a - w[k] * helpers.dag(vl[:, k]))
                assert left <= bound

    def test_returns_all_eigenvalues(self, rng):
        a = random_complex(rng, 7, 7)
        w, vl, vr = linalg.eig(a)
        assert w.shape == (7,) and vl.shape == (7, 7) and vr.shape == (7, 7)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eig(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            linalg.eig(a)


class TestRankAndNullspace:
    def test_zero_matrix(self):
        assert linalg.numerical_rank(np.zeros((4, 4))).rank == 0

    def test_identity(self):
        assert linalg.numerical_rank(np.eye(4)).rank == 4

    def test_rank_one_outer_product(self, rng):
        u = random_complex(rng, 5, 1)
        v = random_complex(rng, 5, 1)
        assert linalg.numerical_rank(u @ helpers.dag(v)).rank == 1

    def test_explicit_tolerance(self):
        a = np.diag([1.0, 1e-4])
        assert linalg.numerical_rank(a, tol=1e-3).rank == 1
        assert linalg.numerical_rank(a, tol=1e-5).rank == 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            linalg.numerical_rank(np.eye(2), tol=-1.0)

    def test_nullspace_identity_empty(self):
        assert linalg.nullspace(np.eye(3)).shape == (3, 0)

    def test_nullspace_diag(self):
        ns = linalg.nullspace(np.diag([1.0, 0.0, 0.0]))
        assert ns.shape == (3, 2)
        # spans e2, e3: first coordinate of everything in the span is 0
        assert np.allclose(ns[0, :], 0.0, atol=1e-12)

    def test_nullspace_commutation_map(self):
        # commutant of diag(1,1,2) is 5-dimensional: (d-1)^2 + 1 at d = 3
        ns = linalg.nullspace(linalg.commutation_superop(np.diag([1.0, 1.0, 2.0])))
        assert ns.shape[1] == 5

    def test_nullspace_residual_and_orthonormality(self, rng):
        a = random_complex(rng, 6, 4) @ random_complex(rng, 4, 8)
        ns = linalg.nullspace(a, tol=1e-10)
        assert ns.shape[1] == 8 - 4
        assert np.linalg.norm(a @ ns) <= 1e-10 * np.linalg.norm(a, 2) * 10
        gram = helpers.dag(ns) @ ns
        assert np.allclose(gram, np.eye(ns.shape[1]), atol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_rank_nullity(self, seed, rows, cols, inner):
        rng = np.random.default_rng(seed)
        inner = min(inner, rows, cols)
        if inner == 0:
            a = np.zeros((rows, cols), dtype=complex)
        else:
            a = random_complex(rng, rows, inner) @ random_complex(rng, inner, cols)
        decision = linalg.numerical_rank(a)
        ns = linalg.nullspace(a)
        assert decision.rank == inner
        assert decision.rank + ns.shape[1] == cols


class TestKronAndVec:
    def test_kron_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_diag(self):
        a, b = 2.0 + 1j, -3.0
        out = linalg.kron(np.diag([a, b]), np.eye(2))
        assert np.allclose(out, np.diag([a, a, b, b]))

    def test_kron_elementwise_oracle(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        got = linalg.kron(a, b)
        for i in range(9):
            for j in range(9):
                assert got[i, j] == pytest.approx(a[i // 3, j // 3] * b[i % 3, j % 3])

    def test_kron_mixed_product(self, rng):
        for _ in range(5):
            a, c = random_complex(rng, 3, 4), random_complex(rng, 4, 2)
            b, d = random_complex(rng, 2, 5), random_complex(rng, 5, 3)
            lhs = linalg.kron(a, b) @ linalg.kron(c, d)
            rhs = linalg.kron(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_vec_convention(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        x = random_complex(rng, 3, 3)
        lhs = linalg.vec(a @ x @ b)
        rhs = linalg.kron(b.T, a) @ linalg.vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_unvec_roundtrip(self, rng):
        x = random_complex(rng, 4, 4)
        assert np.array_equal(linalg.unvec(linalg.vec(x)), x)

    def test_unvec_non_square_length(self):
        with pytest.raises(ValueError):
            linalg.unvec(np.arange(3))


class TestJson:
    def test_roundtrip(self, rng):
        a = random_complex(rng, 2, 3)
        obj = linalg.matrix_to_json(a)
        assert obj["rows"] == 2 and obj["cols"] == 3
        assert np.array_equal(linalg.matrix_from_json(obj), a)

    def test_row_major_order(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        obj = linalg.matrix_to_json(a)
        assert [e[0] for e in obj["entries"]] == [1.0, 2.0, 3.0, 4.0]

    def test_malformed(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"rows": 2})
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"rows": 0, "cols": 1, "entries": []})
