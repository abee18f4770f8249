"""Fixed-point spaces, attractor subspaces, spectral projections and
steady-state extraction.

Spectral projections are built from biorthogonal left/right eigenvector
blocks, P = V (W^dag V)^{-1} W^dag, which is exact up to eig accuracy for
semisimple eigenvalues (all peripheral eigenvalues of valid channels and
generators are semisimple).  A Cesaro power average is kept as an
independent, slowly converging cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, spectra, superop
from .gkls import GklsGenerator
from .linalg import dagger, nullspace, unvec, vec
from .superop import QuantumChannel

DEFAULT_NULL_TOL = 1e-8
SUPPORT_REL_TOL = 1e-9  # eigenvalues of rho0 below this times the largest are noise
CESARO_DEFAULT_N = 2048


class ConsistencyError(RuntimeError):
    """Cross-module disagreement (clustering vs nullspace dimensions)."""


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of vectorized operators."""

    ambient_dim: int
    basis: np.ndarray  # (ambient_dim, k), orthonormal columns
    label: str  # fix | ker | attractor | commutant

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[1])

    def matrices(self) -> list[np.ndarray]:
        """The basis vectors reshaped to d x d operators."""
        d = int(round(np.sqrt(self.ambient_dim)))
        return [unvec(self.basis[:, k], rows=d) for k in range(self.dimension)]


@dataclass(frozen=True)
class FaithfulReduction:
    """Compression of a channel onto the support of its maximal steady state."""

    support_dim: int
    isometry: np.ndarray  # d x d0, orthonormal columns
    reduced_channel: QuantumChannel


def _eigenspace(m: np.ndarray, center: complex, tol: float) -> np.ndarray:
    d2 = m.shape[0]
    shifted = m - center * np.eye(d2)
    return nullspace(shifted, tol=tol)


def fixed_space(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL,
                summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """Orthonormal basis of Fix(Phi) = Null(M - I).

    The dimension is cross-checked against l0 from the spectral summary;
    a mismatch flags a clustering failure and raises ConsistencyError.
    """
    if summary is None:
        summary = spectra.summarize_channel(channel)
    basis = _eigenspace(channel.superop, 1.0, tol)
    if basis.shape[1] != summary.l0_or_m0:
        raise ConsistencyError(
            f"fixed-space dimension {basis.shape[1]} != clustered multiplicity "
            f"{summary.l0_or_m0}; tighten tolerances"
        )
    return SubspaceBasis(ambient_dim=channel.dim ** 2, basis=basis, label="fix")


def kernel(gen: GklsGenerator, tol: float = DEFAULT_NULL_TOL,
           summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """Orthonormal basis of Ker(L) = Null(L), cross-checked against m0."""
    if summary is None:
        summary = spectra.summarize_generator(gen)
    basis = _eigenspace(gen.superop, 0.0, tol)
    if basis.shape[1] != summary.l0_or_m0:
        raise ConsistencyError(
            f"kernel dimension {basis.shape[1]} != clustered multiplicity "
            f"{summary.l0_or_m0}; tighten tolerances"
        )
    return SubspaceBasis(ambient_dim=gen.dim ** 2, basis=basis, label="ker")


def attractor(subject, tol: float = DEFAULT_NULL_TOL,
              cluster_tol: float | None = None,
              peripheral_tol: float = spectra.DEFAULT_PERIPHERAL_TOL,
              summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """Orthonormal basis of the span of all peripheral eigenvectors.

    Peripheral eigenvalues are semisimple, so plain eigenvectors span the
    whole attractor.  A peripheral eigenvalue of multiplicity 1 takes its
    right eigenvector from the subject's cached eigendecomposition, where
    semisimplicity shows as a left/right overlap |vl^dag vr| above ``tol``
    (unit vectors).  A multiple one takes the nullspace of M - mu I, whose
    dimension must equal the algebraic multiplicity.  Either failure
    contradicts semisimplicity and raises ConsistencyError.  A given
    ``summary`` must be this subject's own.
    """
    if isinstance(subject, QuantumChannel):
        summarize = spectra.summarize_channel
    elif isinstance(subject, GklsGenerator):
        summarize = spectra.summarize_generator
    else:
        raise TypeError(f"expected a channel or generator, got {type(subject)!r}")
    if summary is None:
        summary = summarize(subject, cluster_tol, peripheral_tol)
    m = subject.superop
    w, vl, vr = subject.eigensystem
    blocks = []
    for item in summary.distinct:
        if not item.peripheral:
            continue
        if item.multiplicity == 1:
            # A singleton's center is its one eigenvalue, bit for bit.
            (k,) = np.flatnonzero(w == item.value)
            overlap = abs(np.vdot(vl[:, k], vr[:, k]))
            if overlap <= tol:
                raise ConsistencyError(
                    f"peripheral eigenvalue {item.value:.6g}: left/right "
                    f"eigenvector overlap {overlap:.3e} <= {tol:.1e}, not semisimple"
                )
            blocks.append(vr[:, k:k + 1])
            continue
        eigvecs = _eigenspace(m, item.value, tol)
        if eigvecs.shape[1] != item.multiplicity:
            raise ConsistencyError(
                f"peripheral eigenvalue {item.value:.6g}: geometric multiplicity "
                f"{eigvecs.shape[1]} != algebraic {item.multiplicity}"
            )
        blocks.append(eigvecs)
    stacked = np.hstack(blocks)
    basis = linalg.orthonormal_columns(stacked)
    if basis.shape[1] != summary.lP_or_mP:
        raise ConsistencyError(
            f"attractor dimension {basis.shape[1]} != peripheral multiplicity "
            f"{summary.lP_or_mP}"
        )
    return SubspaceBasis(ambient_dim=m.shape[0], basis=basis, label="attractor")


def eigen_projector(m: np.ndarray, center: complex, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Spectral projector for a semisimple eigenvalue cluster at ``center``.

    Built from right eigenvectors V and left eigenvectors W as
    V (W^dag V)^{-1} W^dag.  Raises on biorthogonalization breakdown
    (near-defective cluster).
    """
    v = _eigenspace(m, center, tol)
    w = _eigenspace(dagger(m), np.conj(center), tol)
    if v.shape[1] == 0 or v.shape[1] != w.shape[1]:
        raise ConsistencyError(
            f"left/right eigenspace dimensions differ at {center:.6g}: "
            f"{w.shape[1]} vs {v.shape[1]}"
        )
    overlap = dagger(w) @ v
    cond = np.linalg.cond(overlap)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConsistencyError(
            f"biorthogonalization breakdown at {center:.6g} (cond {cond:.3e})"
        )
    return v @ np.linalg.solve(overlap, dagger(w))


def fixed_projection(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Spectral projection onto Fix(Phi) (eigenvalue 1), as a superoperator."""
    return eigen_projector(channel.superop, 1.0, tol)


def peripheral_projection(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL,
                          cluster_tol: float | None = None,
                          peripheral_tol: float = spectra.DEFAULT_PERIPHERAL_TOL) -> np.ndarray:
    """Spectral projection onto Attr(Phi), as a superoperator matrix.

    The result is idempotent, commutes with the channel matrix and is
    itself a quantum channel (all checked in the test suite at 1e-7/1e-6).
    """
    summary = spectra.summarize_channel(channel, cluster_tol, peripheral_tol)
    m = channel.superop
    proj = np.zeros_like(m)
    for item in summary.distinct:
        if item.peripheral:
            proj += eigen_projector(m, item.value, tol)
    return proj


def kernel_projection(gen: GklsGenerator, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """Spectral projection onto Ker(L) (eigenvalue 0), as a superoperator."""
    return eigen_projector(gen.superop, 0.0, tol)


def cesaro_projection(channel: QuantumChannel, n: int = CESARO_DEFAULT_N) -> np.ndarray:
    """Cesaro mean (1/n) sum_{k<n} M^k; slow independent oracle for
    :func:`fixed_projection` (error of order 1/(n * peripheral gap))."""
    m = channel.superop
    acc = np.eye(m.shape[0], dtype=np.complex128)
    p = np.eye(m.shape[0], dtype=np.complex128)
    for _ in range(1, n):
        p = m @ p
        acc += p
    return acc / n


def maximal_steady_state(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL) -> np.ndarray:
    """The steady state P(I)/d of maximal support (P the fixed projection)."""
    rho = unvec(fixed_projection(channel, tol) @ vec(np.eye(channel.dim)),
                rows=channel.dim) / channel.dim
    rho = (rho + dagger(rho)) / 2
    return rho / np.trace(rho).real


def _support_isometry(rho: np.ndarray, support_tol: float) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    keep = w > support_tol * max(w.max(), 0.0)
    return v[:, keep]


def is_faithful(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL,
                support_tol: float = SUPPORT_REL_TOL) -> bool:
    """A channel is faithful iff it admits an invertible steady state."""
    rho = maximal_steady_state(channel, tol)
    return _support_isometry(rho, support_tol).shape[1] == channel.dim


def faithful_reduce(channel: QuantumChannel, tol: float = DEFAULT_NULL_TOL,
                    support_tol: float = SUPPORT_REL_TOL,
                    leak_tol: float = 1e-8) -> FaithfulReduction:
    """Compress a channel onto the support H0 of its maximal steady state.

    Kraus operators are compressed to B0 = V^dag B V with V the isometry
    onto H0; the off-support block (I - V V^dag) B V must vanish within
    ``leak_tol`` or the reduction is invalid.  The reduced channel is
    faithful: its steady state V^dag rho0 V is invertible by construction.
    """
    rho0 = maximal_steady_state(channel, tol)
    v = _support_isometry(rho0, support_tol)
    d0 = v.shape[1]
    kraus = channel.kraus_operators()
    compressor = np.eye(channel.dim) - v @ dagger(v)
    leak = max(float(np.linalg.norm(compressor @ b @ v, 2)) for b in kraus)
    if leak > leak_tol:
        raise ConsistencyError(
            f"steady-state support leaks under Kraus action (norm {leak:.3e})"
        )
    reduced = superop.from_kraus([dagger(v) @ b @ v for b in kraus])
    return FaithfulReduction(support_dim=d0, isometry=v, reduced_channel=reduced)


def steady_states(subject, tol: float = DEFAULT_NULL_TOL) -> list[np.ndarray]:
    """Density matrices spanning as much of Fix/Ker as positivity allows.

    The first entry is the guaranteed maximal-support steady state P(I)/d.
    Further entries re-express the remaining basis directions as states by
    mixing Hermitian fixed-point components with the first state; this is
    best effort beyond the guaranteed one.  Every returned rho satisfies
    the fixed-point residual, rho >= -1e-8 and Tr rho = 1.
    """
    if isinstance(subject, QuantumChannel):
        d = subject.dim
        basis = fixed_space(subject, tol)
        proj = fixed_projection(subject, tol)

        def residual(r):
            return float(np.linalg.norm(superop.apply_channel(subject, r) - r))
    elif isinstance(subject, GklsGenerator):
        d = subject.dim
        basis = kernel(subject, tol)
        proj = kernel_projection(subject, tol)

        def residual(r):
            return float(np.linalg.norm(unvec(subject.superop @ vec(r), rows=d)))
    else:
        raise TypeError(f"expected a channel or generator, got {type(subject)!r}")

    rho0 = unvec(proj @ vec(np.eye(d)), rows=d) / d
    rho0 = (rho0 + dagger(rho0)) / 2
    rho0 = rho0 / np.trace(rho0).real
    states = [rho0]

    support_floor = _support_floor(rho0)
    for x in basis.matrices():
        for cand in ((x + dagger(x)) / 2, (x - dagger(x)) / 2j):
            state = _positivize(cand, rho0, support_floor)
            if state is None:
                continue
            if residual(state) > max(tol, 1e-7):
                continue
            if all(np.linalg.norm(state - s) > 1e-6 for s in states):
                states.append(state)
        if len(states) >= basis.dimension:
            break
    return states


def _support_floor(rho0: np.ndarray) -> float:
    w = np.linalg.eigh(rho0)[0]
    positive = w[w > SUPPORT_REL_TOL * max(w.max(), 0.0)]
    return float(positive.min()) if positive.size else 0.0


def _positivize(k: np.ndarray, rho0: np.ndarray, support_floor: float) -> np.ndarray | None:
    """Mix a Hermitian fixed-point component with rho0 until positive."""
    norm = float(np.linalg.norm(k))
    if norm < 1e-12 or support_floor <= 0.0:
        return None
    k = k / norm
    if np.trace(k).real < 0:
        k = -k
    wmin = float(np.linalg.eigh(k)[0].min())
    # Every fixed point is supported inside supp(rho0), where rho0 >= floor.
    alpha = max(0.0, -wmin) / support_floor
    mix = k + alpha * rho0
    tr = float(np.trace(mix).real)
    if tr < 1e-10:
        mix = mix + rho0
        tr += 1.0
    state = mix / tr
    if float(np.linalg.eigh(state)[0].min()) < -1e-8:
        return None
    return state
