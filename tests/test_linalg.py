import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import identity_channel
from oqspectra import asymptotics, linalg, spectra
from oqspectra.constructions import phase_damping_channel


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermiticity_preserving(rng, d):
    """sum_k eps_k conj(A_k) (x) A_k with real eps_k: Hermiticity preserving,
    neither CP nor TP."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for eps in rng.standard_normal(3):
        a = random_complex(rng, d, d)
        m += eps * np.kron(a.conj(), a)
    return m


class TestEig:
    def test_identity(self):
        w = linalg.eig(np.eye(9)).values
        helpers.assert_multisets_close(w, [1] * 9)

    def test_diagonal(self):
        # X -> diag action on matrix units; the E_10/E_01 pair is conjugate
        w = linalg.eig(np.diag([2.0, 5.0 + 1j, 5.0 - 1j, 3.0])).values
        helpers.assert_multisets_close(w, [2, 5 + 1j, 5 - 1j, 3])

    def test_phase_damping_superop_spectrum(self):
        # {1 x5, e^-1 x4} at d = 3
        w = linalg.eig(phase_damping_channel(3).superop).values
        expected = [1.0] * 5 + [np.exp(-1.0)] * 4
        helpers.assert_multisets_close(w, expected, atol=1e-12)

    def test_residual_contract(self, rng):
        # ||A v - w v||_2 <= 16 n eps ||A||_2 for every unit pair: LAPACK's
        # QR iteration is backward stable with a low-degree polynomial
        # constant.  Stated on R' = U^dag A U, which has A's residuals
        for d in (2, 3, 4):
            n = d * d
            a = random_hermiticity_preserving(rng, d)
            spectrum = linalg.eig(a)
            w, r = spectrum.values, spectrum.real
            vl, vr = helpers.real_eigenvectors(spectrum)
            bound = 16.0 * n * linalg.EPS * np.linalg.norm(a, 2)
            for k in range(n):
                res = np.linalg.norm(r @ vr[:, k] - w[k] * vr[:, k])
                assert res <= bound
                left = np.linalg.norm(helpers.dag(vl[:, k]) @ r - w[k] * helpers.dag(vl[:, k]))
                assert left <= bound

    def test_returns_all_eigenvalues(self, rng):
        a = random_hermiticity_preserving(rng, 3)
        spectrum = linalg.eig(a)
        assert spectrum.values.shape == (9,)
        assert spectrum.vl.shape == spectrum.vr.shape == spectrum.real.shape == (9, 9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eig(np.ones((2, 3)))

    def test_side_not_a_square_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            linalg.eig(np.eye(3))

    def test_non_finite_rejected(self):
        a = np.eye(4, dtype=complex)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            linalg.eig(a)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 9), (1, 3, 3), (2, 1, 4, 4)])
    def test_stack_shape_rejected(self, shape):
        # a 2-d array, a non-square stack, a side that is not a perfect square
        # and a 4-d array: eig_stack's own ValueError names the shape
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            linalg.eig_stack(np.zeros(shape))

    def test_not_hermiticity_preserving_rejected(self, rng):
        # E_10 -> E_00 without E_01 -> E_00: X^dag is not mapped to Phi(X)^dag
        a = np.eye(4, dtype=complex)
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermiticity"):
            linalg.eig(a)
        with pytest.raises(ValueError, match="Hermiticity"):
            linalg.eig(1j * random_hermiticity_preserving(rng, 3))


class TestEach:
    """linalg.each is the package's one per-subject error path."""

    def test_exception_entry_passes_through(self):
        planted, seen = ValueError("planted"), []

        def call(item):
            seen.append(item)
            if item == 2:
                raise np.linalg.LinAlgError("two")
            return 10 * item

        outcomes = linalg.each(call, [1, planted, 2, 3])
        assert seen == [1, 2, 3]
        assert outcomes[1] is planted and isinstance(outcomes[2], np.linalg.LinAlgError)
        assert [outcomes[0], outcomes[3]] == [10, 30]

    def test_other_exceptions_propagate(self):
        def call(item):
            raise RuntimeError("not a subject's failure")

        with pytest.raises(RuntimeError):
            linalg.each(call, [1])

    def test_no_other_handler_of_errors(self):
        # an AST scan of the package: only linalg.each catches ERRORS (by name
        # or as linalg.ERRORS, alone or in a tuple), so no second per-subject
        # error path grows back
        found = []
        for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                        getattr(n, "id", getattr(n, "attr", None)) == "ERRORS"
                        for n in ast.walk(node.type)):
                    scope = parents[node]
                    while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.Module)):
                        scope = parents[scope]
                    found.append((path.stem, getattr(scope, "name", None)))
        assert found == [("linalg", "each")]


def same_bits(got, want):
    """Equal dtype, shape and bytes, signed zeros included."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLapackKernels:
    """The direct dgeev/dgesdd kernels return scipy's results bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_real_eig_is_raw_dgeev(self, d):
        for name, subject in helpers.oracle_subjects(d, seeds=1):
            b, b_inv, _ = linalg.hermitian_basis(d)
            r = (b_inv @ subject.superop @ b).real
            lwork = int(scipy.linalg.lapack.dgeev_lwork(d * d)[0])
            wr, wi, vl, vr, info = scipy.linalg.lapack.dgeev(r, lwork=lwork)
            assert info == 0
            for got, ref in zip(linalg.real_eig(r), (wr + 1j * wi, vl, vr)):
                assert same_bits(got, ref), name

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_eig_is_scipy_eig(self, d):
        # the 4 constructors and the 5 ensembles: the packed float64 vectors
        # unpack to scipy's bit for bit; phase damping has an all-real
        # spectrum, whose eigenvectors scipy leaves real
        real_vectors = []
        for name, subject in helpers.oracle_subjects(d, seeds=1):
            b, b_inv, _ = linalg.hermitian_basis(d)
            r = (b_inv @ subject.superop @ b).real
            spectrum = linalg.eig(subject.superop)
            assert spectrum.vl.dtype == spectrum.vr.dtype == np.float64, name
            got = (spectrum.values,
                   *helpers.unpack_eigenvectors(spectrum.values, spectrum.vl, spectrum.vr))
            want = scipy.linalg.eig(r, left=True, right=True, check_finite=False)
            for g, ref in zip(got, want):
                assert same_bits(g, ref), name
            if want[2].dtype == np.float64:
                real_vectors.append(name)
        assert "phase-damping" in real_vectors

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cached_vectors_are_float64(self, d):
        for name, subject in helpers.oracle_subjects(d) + helpers.subjects_and_derived(d):
            spectrum = subject.spectrum
            assert spectrum.vl.dtype == spectrum.vr.dtype == np.float64, name

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_null_space_and_certificate_are_scipy_svd(self, monkeypatch, d):
        # The count is scipy's singular values cut at tol, kept after one
        # values-only SVD; a basis, asked for, is the trailing right singular
        # vectors of scipy's SVD with vectors; the certificate's values are
        # scipy's too
        for name, subject in helpers.oracle_subjects(d, seeds=1):
            spectrum, anchor = subject.spectrum, subject.kind.anchor
            shifted = spectrum.real - anchor * np.eye(d * d)
            u, s, vh = scipy.linalg.svd(shifted)
            rank = linalg.numerical_rank(s, shifted.shape, 1e-8)
            calls, _ = helpers.count_decompositions(monkeypatch)
            assert spectrum.null_space(anchor, 1e-8) == (d * d - rank, None), name
            assert spectrum.null_space(anchor, 1e-8) == (d * d - rank, None), name
            assert calls["svd"] == 1 and calls["svd_vectors"] == 0, name
            dim, right = spectrum.null_space(anchor, 1e-8, vectors=True)
            assert calls["svd"] == 2 and calls["svd_vectors"] == 1, name
            monkeypatch.undo()
            assert dim == d * d - rank and same_bits(right, vh[rank:].conj().T), name
            assert same_bits(np.linalg.svd(shifted, compute_uv=False),
                             scipy.linalg.svdvals(shifted)), name
            stack, _ = asymptotics._peripheral_columns(spectrum, spectra.summarize(subject))
            assert same_bits(np.linalg.svd(stack, compute_uv=False),
                             scipy.linalg.svdvals(stack)), name

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_scipy_fallback_is_bit_identical(self, monkeypatch, d):
        # a numpy without the bundled OpenBLAS takes scipy's wrapper instead
        b, b_inv, _ = linalg.hermitian_basis(d)
        squares = [(b_inv @ subject.superop @ b).real
                   for _, subject in helpers.oracle_subjects(d, seeds=1)]

        def kernels():
            return [linalg.real_eig(r) for r in squares]

        native = kernels()
        fallbacks = helpers.count_calls(monkeypatch, linalg, ("_scipy_lapack",))
        monkeypatch.setattr(linalg, "_LAPACK", None)
        assert fallbacks["_scipy_lapack"] == 0
        for got, want in zip(kernels(), native, strict=True):
            for g, w in zip(got, want, strict=True):
                assert same_bits(g, w)
        assert fallbacks["_scipy_lapack"] == len(native)

    def test_unconverged_eig_raises(self, monkeypatch):
        dgeev = linalg._dgeev
        monkeypatch.setattr(linalg, "_dgeev", lambda *a, **k: (*dgeev(*a, **k)[:4], 3))
        with pytest.raises(np.linalg.LinAlgError, match="dgeev failed"):
            linalg.eig(phase_damping_channel(3).superop)


class TestHermitianBasis:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_inverse_is_exact(self, d):
        b, b_inv, h = linalg.hermitian_basis(d)
        assert np.array_equal(b, helpers.hermitian_basis(d))
        assert np.array_equal(b_inv @ b, np.eye(d * d))
        assert np.array_equal(b_inv, h * helpers.dag(b))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_columns_are_hermitian_operators(self, d):
        b, _, _ = linalg.hermitian_basis(d)
        for k in range(d * d):
            x = linalg.unvec(b[:, k])
            assert np.array_equal(x, helpers.dag(x))

    def test_read_only(self):
        b, b_inv, h = linalg.hermitian_basis(2)
        assert not (b.flags.writeable or b_inv.flags.writeable or h.flags.writeable)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_identity_channel_eigenvalues_exact(self, d):
        w = identity_channel(d).spectrum.values
        assert np.array_equal(w, np.ones(d * d))


class TestRealCoordinates:
    """eig in Hermitian coordinates against complex LAPACK on M itself."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_complex_eigvals(self, d):
        for name, subject in helpers.subjects_and_derived(d):
            m = subject.superop
            spectrum = linalg.eig(m)
            w, r = spectrum.values, spectrum.real
            ref = scipy.linalg.eigvals(m)
            rows, cols = scipy.optimize.linear_sum_assignment(np.abs(w[:, None] - ref[None, :]))
            gap = np.abs(w[rows] - ref[cols]) / np.maximum(1.0, np.abs(w[rows]))
            assert gap.max() <= 1e-12, f"{name}: eigenvalues differ by {gap.max():.2e}"
            # non-real eigenvalues come in exactly conjugate pairs
            assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj())), name
            # residuals on R' = U^dag M U, and U maps unit vectors to unit
            # eigenvectors of M
            vl, vr = helpers.real_eigenvectors(spectrum)
            bound = 16.0 * d * d * linalg.EPS * np.linalg.norm(m, 2)
            assert np.linalg.norm(r @ vr - vr * w, axis=0).max() <= bound, name
            left = helpers.dag(vl) @ r - w[:, None] * helpers.dag(vl)
            assert np.linalg.norm(left, axis=1).max() <= bound, name
            vl, vr = spectrum.to_matrix(vl), spectrum.to_matrix(vr)
            assert np.allclose(np.linalg.norm(vr, axis=0), 1.0, atol=1e-14), name
            assert np.allclose(np.linalg.norm(vl, axis=0), 1.0, atol=1e-14), name


class TestRankAndNullspace:
    def test_zero_matrix(self):
        assert linalg.nullspace(np.zeros((4, 4))).shape == (4, 4)

    def test_identity(self):
        assert linalg.nullspace(np.eye(4)).shape == (4, 0)
        # the scale floor turns a rounding-noise matrix into a null one
        assert linalg.nullspace(1e-20 * np.eye(4), scale=1.0).shape == (4, 4)

    def test_rank_one_outer_product(self, rng):
        u = random_complex(rng, 5, 1)
        v = random_complex(rng, 5, 1)
        assert linalg.nullspace(u @ helpers.dag(v)).shape == (5, 4)

    def test_explicit_tolerance(self):
        a = np.diag([1.0, 1e-4])
        assert linalg.nullspace(a, tol=1e-3).shape == (2, 1)
        assert linalg.nullspace(a, tol=1e-5).shape == (2, 0)

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
        ns = linalg.nullspace(a)
        assert ns.shape[1] == cols - inner


class TestKronAndVec:
    def test_vec_convention(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        x = random_complex(rng, 3, 3)
        lhs = linalg.vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ linalg.vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_kronecker_sum_matches_np_kron(self, d, rng):
        x, y = random_complex(rng, d, d), random_complex(rng, d, d)
        ident = np.eye(d)
        expected = np.kron(ident, x) + np.kron(y, ident)
        assert np.array_equal(linalg.kronecker_sum(x, y), expected)
        real = rng.standard_normal((d, d))
        got = linalg.kronecker_sum(real, real.T)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.kron(ident, real) + np.kron(real.T, ident))
        # the matrix of X -> x X + X y^T
        z = random_complex(rng, d, d)
        assert np.allclose(linalg.kronecker_sum(x, y) @ linalg.vec(z), linalg.vec(x @ z + z @ y.T))

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
        assert np.array_equal(linalg.matrices_from_json([obj])[0], a)

    def test_row_major_order(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        obj = linalg.matrix_to_json(a)
        assert [e[0] for e in obj["entries"]] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("rows, cols", [(2.5, 2.9), (2.0, 2), (True, 1), ("2", 2)])
    def test_non_integer_shape_rejected(self, rows, cols):
        # int() would truncate 2.5 x 2.9 to 2 x 2 and read true as 1
        entries = [[1, 0]] * 4
        with pytest.raises(ValueError, match="must be integers"):
            linalg.matrices_from_json([{"rows": rows, "cols": cols, "entries": entries}])

    def test_malformed(self):
        with pytest.raises(ValueError):
            linalg.matrices_from_json([{"rows": 2, "cols": 2, "entries": [[1, 0]]}])
        with pytest.raises(ValueError):
            linalg.matrices_from_json([{"rows": 2}])
        with pytest.raises(ValueError):
            linalg.matrices_from_json([{"rows": 0, "cols": 1, "entries": []}])
