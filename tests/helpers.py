"""Shared test oracles, deliberately independent of the package internals.

Everything here recomputes expected values from first principles (direct
operator actions, elementwise definitions, explicit plantings) so the tests
never assert the implementation against itself.
"""

import collections
import functools
import json
import math
import sys
import types
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from oqspectra import asymptotics, constructions, gkls, linalg, spectra, superop


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


def spy_summaries(monkeypatch):
    """Spy on the stacked summary ``spectra.summaries``, which ``summarize`` runs as
    a stack of one: the list of each call's outcomes, in call order."""
    calls, original = [], spectra.summaries

    def spy(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(spectra, "summaries", spy)
    return calls


def with_eigenvalues(subject, values):
    """What ``spectra.summaries`` reads of ``subject``, with ``values`` for its
    eigenvalues."""
    return types.SimpleNamespace(kind=subject.kind, dim=subject.dim,
                                 hamiltonian=getattr(subject, "hamiltonian", None),
                                 noise_ops=getattr(subject, "noise_ops", None),
                                 spectrum=types.SimpleNamespace(values=np.asarray(values)))


def unit_scale_subject(kind, d, values):
    """A subject of ``spectra.scale`` 1 with eigenvalues ``values``: a generator's
    H is 0 and its one noise operator has a single unit entry (||A||_F^2 = 1)."""
    noise = np.zeros((1, d, d), dtype=complex)
    noise[0, 0, 0] = 1.0
    return with_eigenvalues(types.SimpleNamespace(kind=kind, dim=d, noise_ops=noise,
                                                  hamiltonian=np.zeros((d, d), dtype=complex)),
                            values)


def count_decompositions(monkeypatch):
    """Spy on every dense eig and SVD entry point of the package: the real
    LAPACK kernel ``linalg.real_eig`` (``dgeev``) and ``np.linalg.svd``,
    through which every SVD runs.  Returns the call counter by entry-point
    name, counting the matrices of a stacked call, where ``svd_vectors``
    counts the SVDs that compute singular vectors (``compute_uv``, numpy's
    default) and ``("svd", rows)`` the SVDs of matrices with that many rows,
    and the ``(name, input dtype)`` pairs in call order."""
    calls, dtypes = collections.Counter(), []
    for module, name in ((linalg, "real_eig"), (np.linalg, "svd")):
        def spy(a, *args, _original=getattr(module, name), _name=name, **kwargs):
            shape = np.shape(a)
            matrices = shape[0] if len(shape) == 3 else 1
            calls[_name] += matrices
            # np.linalg.svd(a, full_matrices=True, compute_uv=True, hermitian=False)
            if _name == "svd":
                calls["svd", shape[-2]] += matrices
                if kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
                    calls["svd_vectors"] += matrices
            dtypes.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls, dtypes


def reference_subject_json(subject):
    """A subject file line as written with ``float`` applied to each entry
    of each matrix in turn."""
    def matrix(a):
        m = np.asarray(a, dtype=complex)
        return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
                "entries": [[float(z.real), float(z.imag)] for z in m.flatten(order="C")]}

    if hasattr(subject, "hamiltonian"):
        obj = {"dim": subject.dim, "hamiltonian": matrix(subject.hamiltonian),
               "noise_ops": [matrix(a) for a in subject.noise_ops]}
    elif subject.kraus is not None:
        obj = {"dim": subject.dim, "kraus": [matrix(b) for b in subject.kraus]}
    else:
        obj = {"dim": subject.dim, "superop": matrix(subject.superop)}
    return json.dumps(obj) + "\n"


def subspace_supported_channel(d, support_dim, rng):
    """A non-faithful channel whose image lives in the leading block: its
    Stinespring isometry targets only the first ``support_dim`` coordinates,
    so every steady state is supported there."""
    if not 1 <= support_dim < d:
        raise ValueError("support_dim must satisfy 1 <= support_dim < d")
    env = d * support_dim
    q, _ = np.linalg.qr(ginibre(support_dim * env, d, rng))
    kraus = np.zeros((env, d, d), dtype=np.complex128)
    kraus[:, :support_dim, :] = q.reshape(support_dim, env, d).transpose(1, 0, 2)
    return superop.from_kraus(kraus)


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


# Channel algebra and examples that only the tests need.

def dual(channel):
    """The dual (Heisenberg-picture) map Phi*: the conjugate transpose of
    Phi's superoperator, Kraus action X -> sum_k B_k^dag X B_k.  Unital
    rather than trace preserving, so it skips CPTP validation."""
    kraus = None if channel.kraus is None else channel.kraus.conj().transpose(0, 2, 1)
    return superop.QuantumChannel(dim=channel.dim, kraus=kraus, _superop=dag(channel.superop))


def compose(a, b):
    """The composition a after b; superoperator matrices multiply."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return superop.QuantumChannel(dim=a.dim, _superop=a.superop @ b.superop)


def power(channel, n):
    """Phi^n, taken as R^n of the real matrix R of Phi in Hermitian
    coordinates, so that it stays exactly Hermiticity preserving: rounding
    in the complex M^n grows with n and would fail ``linalg.eig``."""
    if n < 0:
        raise ValueError("channel powers require n >= 0")
    b, b_inv, _ = linalg.hermitian_basis(channel.dim)
    r = (b_inv @ channel.superop @ b).real
    return superop.QuantumChannel(dim=channel.dim,
                                  _superop=b @ np.linalg.matrix_power(r, n) @ b_inv)


def identity_channel(d):
    return superop.QuantumChannel(dim=d, kraus=np.eye(d, dtype=np.complex128)[None])


def choi_is_cp(choi, tol=1e-10):
    """Complete positivity: smallest eigenvalue of the (Hermitized) Choi >= -tol."""
    c = np.asarray(choi)
    return bool(np.linalg.eigvalsh((c + dag(c)) / 2).min() >= -tol)


def is_faithful(channel):
    """A channel is faithful iff it admits an invertible steady state, which
    its maximal steady state then is."""
    w = np.linalg.eigvalsh(asymptotics.maximal_steady_state(channel))
    return bool(w.min() > asymptotics.SUPPORT_REL_TOL * w.max())


def dephasing_generator(d):
    """The projector pair {P1, P2} as noise operators; L flips the sign of
    the off-diagonal blocks and kills everything else."""
    p1 = matrix_unit(d, 0, 0)
    return gkls.build_generator(np.zeros((d, d)), (p1, np.eye(d) - p1))


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


def ginibre(rows, cols, rng):
    """A complex Ginibre matrix: entries (x + iy) / sqrt 2, x and y standard normal."""
    re, im = rng.standard_normal((2, rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def random_hermitian(d, rng):
    g = ginibre(d, d, rng)
    return (g + dag(g)) / 2.0


# One draw of each sampled ensemble: the subject of ``draw(ensemble, d, rng)``
stinespring_channel = functools.partial(constructions.draw, "cptp-stinespring")
generic_gkls = functools.partial(constructions.draw, "gkls-generic")
unital_gkls = functools.partial(constructions.draw, "gkls-unital")
hamiltonian_gkls = functools.partial(constructions.draw, "gkls-hamiltonian")


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


# The structural route to the commutant dimension of one matrix: the Weyr
# characteristic of its Jordan profile.  For one eigenvalue with block
# sizes d_1, d_2, ... the contribution is sum_i s_i^2 with
# s_i = #{j : d_j >= i}.  Jordan structure is numerically unstable, so
# weyr_profile only proceeds when the eigenvalue clusters are certifiably
# separated; it refuses rather than guessing.

SEPARATION_FACTOR = 100.0  # required cluster separation, in units of cluster_tol
# Default clustering, relative to max(1, radius): a planted 2 x 2 Jordan block
# smears its eigenvalue by about sqrt(eps) times its conditioning, more than
# spectra.DEFAULT_TOL, which only semisimple peripheral eigenvalues meet.
WEYR_CLUSTER_TOL = 1e-7
DEFAULT_RANK_TOL = 1e-10
RANK_GAP_FACTOR = 10.0  # singular values must drop by this across the rank cut


@dataclass(frozen=True)
class JordanProfile:
    """Distinct eigenvalues with their Jordan block sizes."""

    eigenvalues: tuple[tuple[complex, tuple[int, ...]], ...]

    @property
    def dim(self) -> int:
        return sum(sum(sizes) for _, sizes in self.eigenvalues)


def commutant_dim_from_jordan(profile: JordanProfile) -> int:
    """Commutant dimension of a single matrix from its Jordan profile."""
    total = 0
    for _, sizes in profile.eigenvalues:
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"invalid block sizes {sizes}")
        top = max(sizes)
        for i in range(1, top + 1):
            s_i = sum(1 for s in sizes if s >= i)
            total += s_i * s_i
    return total


def weyr_profile(a, cluster_tol: float | None = None) -> JordanProfile:
    """Numerical Jordan profile via Weyr rank sequences.

    For each distinct eigenvalue the ranks of (A - lambda I)^i are computed
    with re-orthogonalized image iterates (never explicit high powers), and
    the block sizes are the conjugate partition of the rank differences.
    Raises if the eigenvalue clusters are separated by less than
    ``SEPARATION_FACTOR`` times the clustering tolerance, or if the rank
    sequence is inconsistent with the clustered multiplicities.
    """
    m = linalg.require_square(a)
    d = m.shape[0]
    w = scipy.linalg.eigvals(m)
    radius = float(np.max(np.abs(w))) if d else 0.0
    ctol = cluster_tol if cluster_tol is not None else WEYR_CLUSTER_TOL * max(1.0, radius)
    centers, mults = spectra.cluster(w, ctol)
    diff = centers[:, None] - centers[None, :]
    gaps = np.hypot(diff.real, diff.imag)
    close = np.argwhere(np.triu(gaps < SEPARATION_FACTOR * ctol, 1))
    centers = centers.tolist()
    if close.size:
        i, j = close[0]
        raise ValueError(
            f"eigenvalue clusters {centers[i]:.6g} and {centers[j]:.6g} "
            f"separated by {gaps[i, j]:.3e} < {SEPARATION_FACTOR} x cluster_tol; "
            "Jordan structure not certifiable"
        )

    profile = [(center, tuple(_block_sizes(m, center, mult)))
               for center, mult in zip(centers, mults.tolist())]
    return JordanProfile(eigenvalues=tuple(profile))


def _block_sizes(m: np.ndarray, center: complex, mult: int) -> list[int]:
    d = m.shape[0]
    shifted = m - center * np.eye(d)
    # Anchor the cutoff at the scale of A itself: when A is (numerically) a
    # scalar matrix the shifted matrix is pure rounding noise.
    scale = float(max(np.linalg.norm(shifted, 2), np.linalg.norm(m, 2)))
    if scale == 0.0 or np.linalg.norm(shifted, 2) <= DEFAULT_RANK_TOL * scale:
        # A = center * I: every block is trivial.
        return [1] * mult

    # Image iteration: q spans im((A - c I)^i); rank of the next power is the
    # rank of (A - c I) restricted to that image.  Never forms explicit high
    # powers, so rounding noise stays at the eps * ||A - c I|| level.
    ranks = [d]
    q = np.eye(d, dtype=np.complex128)
    while True:
        x = shifted @ q
        u, s, _ = scipy.linalg.svd(x, full_matrices=False)
        r = int(np.sum(s > DEFAULT_RANK_TOL * scale))
        if 0 < r < s.size and s[r - 1] < RANK_GAP_FACTOR * s[r]:
            raise ValueError(
                f"no certified singular-value gap at eigenvalue {center:.6g} "
                f"(sigma_{r} = {s[r - 1]:.3e}, sigma_{r + 1} = {s[r]:.3e})"
            )
        ranks.append(r)
        if r == ranks[-2]:  # stabilized: no more nilpotent directions
            break
        if len(ranks) > d + 1:
            break
        q = u[:, :r]

    weyr = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    weyr = [x for x in weyr if x > 0]
    if sum(weyr) != mult or any(weyr[i] < weyr[i + 1] for i in range(len(weyr) - 1)):
        raise ValueError(
            f"rank sequence {ranks} inconsistent with multiplicity {mult} at "
            f"eigenvalue {center:.6g}; refusing to guess the Jordan profile"
        )
    sizes: list[int] = []
    weyr.append(0)
    for i in range(len(weyr) - 1):
        sizes.extend([i + 1] * (weyr[i] - weyr[i + 1]))
    sizes.sort(reverse=True)
    return sizes


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
        m[:n, :n] = np.kron(ginibre(a, a, rng), np.eye(b))
        m[n:, n:] = ginibre(c, c, rng)
        e = u @ m @ dag(u)
        ops += [e, dag(e)]
    return ops


def subjects_and_derived(d):
    """The oracle subjects at d (one draw per ensemble) plus a dual, a
    composition and an exponentiated generator."""
    subjects = oracle_subjects(d, seeds=1)
    channels = [s for _, s in subjects if isinstance(s, superop.QuantumChannel)]
    generators = [s for _, s in subjects if isinstance(s, gkls.GklsGenerator)]
    subjects.append(("dual", dual(channels[-1])))
    subjects.append(("compose", compose(channels[-1], channels[-2])))
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


def unpack_eigenvectors(w, vl, vr):
    """dgeev's packed real eigenvectors as complex ones, as
    ``scipy.linalg.eig`` returns them: a conjugate pair at k, k + 1
    (Im w[k] > 0) holds Re v in column k and Im v in column k + 1, and
    becomes v, conj v.  Without a pair the arrays stay real."""
    if not w.imag.any():
        return vl, vr
    k = np.flatnonzero(w.imag > 0)
    vl, vr = vl.astype(np.complex128), vr.astype(np.complex128)
    for v in (vl, vr):
        v.imag[:, k] = v.real[:, k + 1]
        v[:, k + 1] = v[:, k].conj()
    return vl, vr


def real_eigenvectors(spectrum):
    """Unit left and right eigenvectors ``vl sqrt_h`` and ``vr / sqrt_h`` of
    the real R' = U^dag M U of a ``Spectrum``, its pairs unpacked.  U is
    unitary, so their residuals on R' are those of the unit eigenvectors
    U v of M."""
    sqrt_h = spectrum.sqrt_h[:, None]
    vl, vr = unpack_eigenvectors(spectrum.values, spectrum.vl, spectrum.vr)
    vl, vr = vl * sqrt_h, vr / sqrt_h
    return vl / np.linalg.norm(vl, axis=0), vr / np.linalg.norm(vr, axis=0)


def peripheral_eigenvectors(spectrum, summary):
    """The eigenvalues and unit right eigenvectors of R' of every member of
    a peripheral cluster, conjugates included, unpacked from the cached
    decomposition independently of ``Spectrum.eigenvectors``."""
    members = summary.peripheral[summary.members]
    return spectrum.values[members], real_eigenvectors(spectrum)[1][:, members]


def reference_attractor_eigenvectors(spectrum, summary, anchor_only=False):
    """The attractor's members (with ``anchor_only``, the anchor cluster's) and
    their unit right and left eigenvectors, as a per-subject computation gives
    them: the semisimplicity checks, each overlap from that subject's own
    unpacked unit eigenvectors (``real_eigenvectors``), then those columns."""
    tol, anchor = asymptotics.DEFAULT_NULL_TOL, summary.kind.anchor
    values, mults = summary.values, summary.multiplicities
    selected = summary.peripheral
    if anchor_only:
        selected = np.arange(values.size) == summary.anchor_index
    for k in np.flatnonzero(selected & (mults > 1)).tolist():
        mu = complex(values[k])
        real = 2 * abs(mu.imag) <= summary.cluster_tol
        if not real and mu.imag < 0:
            continue
        dim, _ = spectrum.null_space(
            anchor if k == summary.anchor_index else (mu.real if real else mu), tol)
        if dim != mults[k]:
            raise asymptotics.ConsistencyError(
                f"peripheral eigenvalue {mu:.6g}: geometric multiplicity "
                f"{dim} != algebraic {mults[k]}")
    k = np.flatnonzero(selected[summary.members])
    vl, vr = real_eigenvectors(spectrum)
    vl, vr = vl[:, k], vr[:, k]
    overlap = np.abs(np.sum(vl.conj() * vr, axis=0))
    bad = np.flatnonzero((overlap <= tol) & (mults[summary.members[k]] == 1))
    if bad.size:
        raise asymptotics.ConsistencyError(
            f"peripheral eigenvalue {spectrum.values[k[bad[0]]]:.6g}: left/right eigenvector "
            f"overlap {overlap[bad[0]]:.3e} <= {tol:.1e}, not semisimple")
    return k, vr, vl


def count_eigenvector_reads(monkeypatch):
    """Spy on ``Spectrum.eigenvectors``: the list of the eigenvalues of the
    indices it is called with, in call order."""
    reads, original = [], linalg.Spectrum.eigenvectors

    def spy(self, k):
        reads.append(self.values[k])
        return original(self, k)

    monkeypatch.setattr(linalg.Spectrum, "eigenvectors", spy)
    return reads


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
    blocks = [reference_nullspace(m, value, tol) for value in summary.values[summary.peripheral]]
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


def reference_scale(subject):
    """``spectra.scale`` one subject at a time in Python scalars: 1 for a channel; for
    a generator H and A prescaled by an exact 4^-j, ||H||_F and ||A||_F^2 as np.vdot,
    and 4^(j + round(log_4(||H||_F + ||A||_F^2))) if that is a normal float, else 1."""
    if subject.kind == spectra.CHANNEL:
        return 1.0
    h, a = subject.hamiltonian, subject.noise_ops
    tops = ((np.abs(h).max(), 2), (np.abs(a).max(initial=0.0), 1))
    j = max([-(-math.frexp(top)[1] // p) for top, p in tops if top] + [-1022])
    f = math.ldexp(1.0, -j)
    h, a = h * f * f, a * f
    n = math.sqrt(np.vdot(h, h).real) + np.vdot(a, a).real
    s = math.ldexp(1.0, 2 * (j + round(math.log(n, 4)))) if n else 0.0
    return s if s >= sys.float_info.min else 1.0


def assert_same_summary(got, want):
    """Two summaries equal field by field, their arrays bit for bit."""
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert_bits_equal(getattr(got, name), value)
        else:
            assert getattr(got, name) == value and type(getattr(got, name)) is type(value), name


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


def reference_scalar_summary(kind, centers, mults, peripheral_tol):
    """The per-cluster summary in scalar form, one Python object per
    cluster: (value, multiplicity, peripheral, rate) with Python's abs and
    rate max(0.0, -Re) (None for a channel), the anchor always peripheral;
    the anchor index; and lP."""
    tol, items, values = peripheral_tol, [], centers.tolist()
    anchor = min(range(len(values)), key=lambda k: abs(values[k] - kind.anchor))
    for k, (c, m) in enumerate(zip(values, mults.tolist())):
        peripheral = abs(c) >= 1.0 - tol if kind.anchor else abs(c.real) <= tol
        items.append((c, m, peripheral or k == anchor,
                      max(0.0, -c.real) if not kind.anchor else None))
    return items, anchor, sum(m for _, m, p, _ in items if p)


def running_sum(terms):
    """Python's sum of floats up to 3.11: from int 0, one addition at a time
    (from 3.12 on, ``sum`` compensates rounding)."""
    total = 0
    for x in terms:
        total += x
    return total


def reference_scalar_ckks(kind, dim, items, anchor):
    """CKKS margins (alpha, lhs, rhs, margin, satisfied) per eigenvalue in
    scalar form, summed in cluster order by :func:`running_sum`."""
    out = []
    if kind.anchor:
        total = running_sum(m * c.real for c, m, _, _ in items)
        for c, _, _, _ in items:
            rhs = dim * (dim - 1) + dim * c.real
            out.append((c, total, rhs, rhs - total, rhs - total >= -1e-8 * float(dim * dim)))
    else:
        rhs = running_sum(m * rate for k, (_, m, _, rate) in enumerate(items) if k != anchor) / dim
        for k, (c, _, _, rate) in enumerate(items):
            if k != anchor:
                out.append((c, rate, rhs, rhs - rate, rhs - rate >= -1e-8 * max(1.0, rhs)))
    return out


def assert_bits_equal(got, want):
    """Equal arrays with equal signs of zero: bit for bit for finite values."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and np.array_equal(got, want), (got, want)
    for g, w in ((got.real, want.real), (got.imag, want.imag)):  # imag of a real array: zeros
        assert np.array_equal(np.signbit(g), np.signbit(w)), (got, want)
