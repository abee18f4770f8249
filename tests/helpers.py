"""Shared test oracles, deliberately independent of the package internals.

Everything here recomputes expected values from first principles (direct
operator actions, elementwise definitions, explicit plantings) so the tests
never assert the implementation against itself.
"""

import collections

import numpy as np
import scipy.linalg

from oqspectra import constructions, gkls, linalg, superop
from oqspectra.commutants import JordanProfile


def count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name; the counter tallies the calls."""
    calls = collections.Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_decompositions(monkeypatch):
    """Spy on every dense eig and SVD entry point the package calls: the
    real LAPACK kernels ``linalg.real_eig`` and ``linalg.real_svd``, and
    scipy's ``eig``, ``eigvals``, ``svd`` and ``svdvals``, which it keeps for
    complex matrices.  Returns the call counter by entry-point name and the
    ``(name, input dtype)`` pairs in call order."""
    calls, dtypes = collections.Counter(), []
    entries = [(linalg, "real_eig"), (linalg, "real_svd")]
    entries += [(scipy.linalg, name) for name in ("eig", "eigvals", "svd", "svdvals")]
    for module, name in entries:
        def spy(a, *args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            dtypes.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls, dtypes


def dag(a):
    return np.conj(a.T)


def hermitian_basis(d):
    """Columns vec(E_ii), then vec(E_ij + E_ji), then vec(i(E_ji - E_ij)),
    i < j in row-major order, under column stacking."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    ops = [matrix_unit(d, i, i) for i in range(d)]
    ops += [matrix_unit(d, i, j) + matrix_unit(d, j, i) for i, j in pairs]
    ops += [1j * (matrix_unit(d, j, i) - matrix_unit(d, i, j)) for i, j in pairs]
    return np.stack([x.flatten(order="F") for x in ops], axis=1)


def forged_channel(r):
    """A (generally non-CPTP) channel object whose superoperator has the
    real matrix ``r`` in Hermitian coordinates: M = B r B^-1."""
    d = int(round(np.sqrt(np.shape(r)[0])))
    b = hermitian_basis(d)
    m = b @ np.asarray(r, dtype=float) @ np.linalg.inv(b)
    return superop.QuantumChannel(dim=d, _superop=m)


def matrix_unit(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def assert_multisets_close(got, expected, atol=1e-9):
    """Greedy nearest matching of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected)
    worst = 0.0
    for z in got:
        k = int(np.argmin([abs(z - r) for r in expected]))
        worst = max(worst, abs(z - expected[k]))
        expected.pop(k)
    assert worst <= atol, f"multiset mismatch, worst distance {worst:.3e}"


def kraus_apply(kraus, rho):
    """Direct action sum_k B rho B^dag."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for b in kraus:
        out += b @ rho @ dag(b)
    return out


def gkls_apply(h, noise_ops, x):
    """Direct GKLS action -i[H,X] + sum_k (A X A^dag - {A^dag A, X}/2)."""
    x = np.asarray(x, dtype=complex)
    out = -1j * (h @ x - x @ h)
    for a in noise_ops:
        aa = dag(a) @ a
        out += a @ x @ dag(a) - 0.5 * (aa @ x + x @ aa)
    return out


def apply_superop(m, x):
    """X -> unvec(M vec(X)) under column stacking."""
    x = np.asarray(x, dtype=complex)
    return (m @ x.flatten(order="F")).reshape(x.shape, order="F")


def superop_from_action(action, d):
    """Brute-force superoperator matrix: columns are vec(action(E_ij))
    under column stacking, j*d + i ordering."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            col = j * d + i
            m[:, col] = action(matrix_unit(d, i, j)).flatten(order="F")
    return m


def choi_from_action(action, d):
    """Brute-force Choi matrix sum_ij action(E_ij) (x) E_ij."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c += np.kron(action(matrix_unit(d, i, j)), matrix_unit(d, i, j))
    return c


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dag(g)
    return rho / np.trace(rho)


def haar(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def jordan_block(lam, size):
    j = np.eye(size, dtype=complex) * lam
    if size > 1:
        j += np.diag(np.ones(size - 1), 1)
    return j


# Planted eigenvalues sit on a spacing-5 lattice with small jitter, so the
# defective-eigenvalue smear rings (radius up to ~1e-2 at block size 8 and
# condition 1e3) chain into one cluster at JORDAN_CLUSTER_TOL while distinct
# eigenvalues stay certified 100x apart.
JORDAN_CLUSTER_TOL = 4e-2
JORDAN_COMMUTANT_TOL = 1e-8


def random_jordan_profile(d, rng):
    """Random eigenvalue count, multiplicities and block sizes on the lattice."""
    lattice = [complex(a, b) for a in (-10, -5, 0, 5, 10) for b in (-10, -5, 0, 5, 10)]
    k = int(rng.integers(1, d + 1))
    idx = rng.choice(len(lattice), size=k, replace=False)
    centers = [lattice[i] + complex(rng.uniform(-0.05, 0.05),
                                    rng.uniform(-0.05, 0.05)) for i in idx]
    mults = _random_composition(d, k, rng)
    eigenvalues = []
    for lam, m in zip(centers, mults):
        sizes = _random_partition(m, rng)
        eigenvalues.append((lam, tuple(sorted(sizes, reverse=True))))
    return JordanProfile(eigenvalues=tuple(eigenvalues))


def is_scalar_profile(profile):
    return (len(profile.eigenvalues) == 1
            and all(s == 1 for s in profile.eigenvalues[0][1]))


def _random_composition(total, parts, rng):
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) \
        if parts > 1 else []
    bounds = [0] + list(cuts) + [total]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def _random_partition(total, rng):
    sizes = []
    left = total
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    return sizes


def plant_jordan(profile, rng, cond_max=1e3):
    """Similarity-conjugated Jordan form with certified condition number.

    The similarity is U diag(s) V^dag with Haar factors and log-uniform
    singular values, so cond(S) <= cond_max by construction.
    """
    blocks = []
    for lam, sizes in profile.eigenvalues:
        for s in sizes:
            blocks.append(jordan_block(lam, s))
    d = sum(b.shape[0] for b in blocks)
    j = np.zeros((d, d), dtype=complex)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        j[pos:pos + k, pos:pos + k] = b
        pos += k
    spread = np.sqrt(cond_max)
    s = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=d))
    s = np.sort(s)[::-1]
    sim = haar(d, rng) @ np.diag(s) @ dag(haar(d, rng))
    return sim @ j @ np.linalg.inv(sim)


def oracle_subjects(d, seeds=3):
    """The 4 saturating constructors and ``seeds`` draws of each of the 5
    ensembles at dimension d, as (name, subject) pairs."""
    subjects = [
        ("unitary", constructions.saturating_unitary_channel(d)),
        ("phase-damping", constructions.phase_damping_channel(d)),
        ("hamiltonian", constructions.saturating_hamiltonian_generator(d)),
        ("dissipative", constructions.saturating_dissipative_generator(d)),
    ]
    for ensemble in constructions.ENSEMBLES:
        for seed in range(seeds):
            config = constructions.SamplerConfig(seed=seed, dim=d, ensemble=ensemble)
            subjects.append((f"{ensemble}-s{seed}", next(constructions.sample(config))))
    return subjects


def star_closed_ops(subject):
    """The operator set whose commutant ``analyze`` reports: the Kraus
    operators with their adjoints, or {H, A_k, A_k^dag} for a generator."""
    if hasattr(subject, "hamiltonian"):
        return [subject.hamiltonian] + [x for a in subject.noise_ops for x in (a, dag(a))]
    kraus = list(subject.kraus_operators())
    return kraus + [dag(b) for b in kraus]


def block_algebra_ops(a, b, c, rng, count=2):
    """Random elements of U (M_a (x) I_b + M_c) U^dag with their adjoints.

    They generate the whole algebra, whose commutant U (I_a (x) M_b + C I_c)
    U^dag has dimension b^2 + (1 if c else 0)."""
    n = a * b
    u = haar(n + c, rng)
    ops = []
    for _ in range(count):
        m = np.zeros((n + c, n + c), dtype=complex)
        m[:n, :n] = np.kron(constructions.ginibre(a, a, rng), np.eye(b))
        m[n:, n:] = constructions.ginibre(c, c, rng)
        e = u @ m @ dag(u)
        ops += [e, dag(e)]
    return ops


def subjects_and_derived(d):
    """The oracle subjects at d (one draw per ensemble) plus a dual, a
    composition and an exponentiated generator."""
    subjects = oracle_subjects(d, seeds=1)
    channels = [s for _, s in subjects if isinstance(s, superop.QuantumChannel)]
    generators = [s for _, s in subjects if isinstance(s, gkls.GklsGenerator)]
    subjects.append(("dual", superop.dual(channels[-1])))
    subjects.append(("compose", superop.compose(channels[-1], channels[-2])))
    subjects.append(("exponentiate", gkls.exponentiate(generators[-1])))
    return subjects


def reference_eig(m):
    """(w, vl, vr) of a superoperator M with unit eigenvectors of M itself:
    real ``scipy.linalg.eig`` of R = B^-1 M B, right vectors mapped back by
    B and left ones by B^-dag = B h, one product for both."""
    n = m.shape[0]
    d = int(round(np.sqrt(n)))
    b = hermitian_basis(d)
    h = np.where(np.arange(n) < d, 1.0, 0.5)[:, None]
    r = (h * dag(b)) @ m @ b
    w, vl, vr = scipy.linalg.eig(r.real, left=True, right=True, check_finite=False)
    v = b @ np.concatenate((h * vl, vr), axis=1)
    v /= np.sqrt(np.einsum("ij,ij->j", v.conj(), v).real)
    return w, v[:, :n], v[:, n:]


def real_eigenvectors(spectrum):
    """Unit left and right eigenvectors ``vl sqrt_h`` and ``vr / sqrt_h`` of
    the real R' = U^dag M U of a ``Spectrum``.  U is unitary, so their
    residuals on R' are those of the unit eigenvectors U v of M."""
    sqrt_h = spectrum.sqrt_h[:, None]
    vl, vr = spectrum.vl * sqrt_h, spectrum.vr / sqrt_h
    return vl / np.linalg.norm(vl, axis=0), vr / np.linalg.norm(vr, axis=0)


def cesaro_projection(channel, n=2048):
    """Cesaro mean (1/n) sum_{k<n} M^k: a slow projection oracle onto the
    fixed space, with error of order 1/(n * peripheral gap)."""
    m = channel.superop
    acc = np.eye(m.shape[0], dtype=complex)
    p = np.eye(m.shape[0], dtype=complex)
    for _ in range(1, n):
        p = m @ p
        acc += p
    return acc / n


def reference_nullspace(m, center, tol=1e-8):
    """Null(M - c I) by a complex SVD of M itself: right singular vectors of
    the singular values at most tol * sigma_max."""
    _, s, vh = np.linalg.svd(m - center * np.eye(m.shape[0]))
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return dag(vh[rank:])


def reference_attractor(m, summary, tol=1e-8):
    """Per-cluster SVD attractor: the nullspace of M - c I (singular values
    at most tol * sigma_max) for each peripheral cluster center c, stacked
    and orthonormalized.  One SVD per peripheral cluster, no eigenvectors."""
    blocks = [reference_nullspace(m, item.value, tol) for item in summary.distinct
              if item.peripheral]
    u, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
    return u[:, :int(np.sum(s > 1e-10 * s[0]))]


def reference_kraus_to_superop(kraus, d):
    """Kron-loop superoperator sum_k conj(B_k) (x) B_k, one term at a time."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for b in kraus:
        m += np.kron(np.conj(b), b)
    return m


def reference_gkls_superop(h, noise_ops):
    """Kron-loop GKLS matrix, term by term as in the module docstring:
    -i(I (x) H - H^T (x) I) + sum_k [conj(A) (x) A - (I (x) A^dag A
    + (A^dag A)^T (x) I) / 2]."""
    d = h.shape[0]
    ident = np.eye(d)
    m = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    for a in noise_ops:
        aa = dag(a) @ a
        m = m + np.kron(np.conj(a), a) - 0.5 * (np.kron(ident, aa) + np.kron(aa.T, ident))
    return m


def reference_cluster(values, cluster_tol):
    """Single-linkage clustering by pairwise union-find over the sorted
    values: (mean, multiplicity) per cluster, by descending |center| then
    phase angle, clusters of equal key in order of their smallest member."""
    vs = np.asarray(values, dtype=complex).ravel()
    vs = vs[np.lexsort((vs.imag, vs.real))]
    n = vs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if vs[j].real - vs[i].real > cluster_tol:
                break
            if abs(vs[i] - vs[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [(complex(np.mean(vs[members])), len(members)) for members in groups.values()]
    out.sort(key=lambda cm: (-abs(cm[0]), np.angle(cm[0])))
    return out


def reference_projector(m, center, tol=1e-8):
    """Spectral projector of a semisimple eigenvalue cluster at ``center``
    from complex SVD nullspaces of M itself: right eigenvectors V of
    M - c I, left ones W of M^dag - conj(c) I, and V (W^dag V)^{-1} W^dag."""
    v = reference_nullspace(m, center, tol)
    w = reference_nullspace(dag(m), np.conj(center), tol)
    assert v.shape[1] == w.shape[1] > 0, (v.shape, w.shape)
    overlap = dag(w) @ v
    assert np.linalg.cond(overlap) <= 1e12
    return v @ np.linalg.solve(overlap, dag(w))
