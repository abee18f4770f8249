"""Fixed-point spaces, attractor subspaces, spectral projections and
steady-state extraction.

:func:`fixed_space` (for a generator its kernel) and :func:`attractor`
count dimensions in the real coordinates of the subject's
:class:`linalg.Spectrum`, sharing one SVD at the anchor of its kind (1 for
channels, 0 for generators); bases in matrix coordinates are built on
first read.  Every nullspace cut reads ``DEFAULT_NULL_TOL``.

Spectral projections (onto the fixed space or the attractor) read the same
cached ``Spectrum``: the real right columns V the attractor uses, and their
left counterparts W (left eigenvectors of simple eigenvalues, the left
singular vectors of the same SVD for multiple ones), give
P' = V (W^T V)^{-1} W^T in the coordinates of R', exact up to eig accuracy
for semisimple eigenvalues (all peripheral eigenvalues of valid channels
and generators are semisimple).  A Cesaro power average is kept as an
independent, slowly converging cross-check oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from . import linalg, spectra, superop
from .linalg import dagger, unvec, vec
from .superop import QuantumChannel

DEFAULT_NULL_TOL = 1e-8  # nullspace cut and left/right overlap floor of every eigenspace
SUPPORT_REL_TOL = 1e-9  # eigenvalues of rho0 below this times the largest are noise
SUPPORT_LEAK_TOL = 1e-8  # largest norm of the off-support block (I - V V^dag) B V
CESARO_DEFAULT_N = 2048
ATTRACTOR_RANK_TOL = 1e-10  # independent columns: singular values above this times the largest


class ConsistencyError(RuntimeError):
    """Cross-module disagreement (clustering vs nullspace dimensions)."""


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """A subspace of vectorized operators; its orthonormal ``basis``
    (ambient_dim x dimension) comes from ``build`` on first read."""

    ambient_dim: int
    dimension: int
    label: str  # fix | ker | attractor | commutant
    build: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return self.build()

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


def fixed_space(subject, summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """Fix(Phi) = Null(M - I) of a channel, or Ker(L) = Null(L) of a
    generator (the fixed space of its semigroup e^{tL}), counted from the
    singular values of R' minus the anchor.

    The dimension is cross-checked against l0/m0 from the spectral summary;
    a mismatch flags a clustering failure and raises ConsistencyError.
    """
    kind = subject.kind
    if summary is None:
        summary = spectra.summarize(subject)
    spectrum, tol = subject.spectrum, DEFAULT_NULL_TOL
    # A multiple anchor cluster's vectors go into the attractor.
    dim, *_ = spectrum.null_space(kind.anchor, tol, vectors=summary.l0_or_m0 > 1)
    if dim != summary.l0_or_m0:
        raise ConsistencyError(
            f"{kind.space} dimension {dim} != clustered multiplicity "
            f"{summary.l0_or_m0}; tighten tolerances"
        )
    return SubspaceBasis(spectrum.values.size, dim, kind.label, lambda: spectrum.to_matrix(
        spectrum.null_space(kind.anchor, tol, vectors=True)[1]))


def attractor(subject, summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """The span of all peripheral eigenvectors, which are semisimple.

    A simple peripheral eigenvalue takes its eigenvectors from the cached
    decomposition, and their left/right overlap must exceed
    ``DEFAULT_NULL_TOL``.  A multiple one takes Null(R' - mu I), at the
    anchor the cross-check's SVD, of dimension equal to the multiplicity
    (R' is real: a cluster below the axis is checked as its conjugate).
    The rank of all these columns (singular values above
    ``ATTRACTOR_RANK_TOL`` times the largest) must equal lP/mP.  Any failure
    raises ConsistencyError.  A given ``summary`` must be this subject's own.
    """
    if summary is None:
        summary = spectra.summarize(subject)
    spectrum = subject.spectrum
    stack, _, orthonormal = _peripheral_columns(spectrum, summary)
    rank = stack.shape[1] if orthonormal else linalg.numerical_rank(
        scipy.linalg.svdvals(stack), stack.shape, ATTRACTOR_RANK_TOL)
    if rank != summary.lP_or_mP or rank != stack.shape[1]:
        raise ConsistencyError(
            f"attractor dimension {rank} != peripheral multiplicity "
            f"{summary.lP_or_mP}"
        )
    return SubspaceBasis(spectrum.values.size, rank, "attractor", lambda: spectrum.to_matrix(
        scipy.linalg.svd(stack, full_matrices=False)[0][:, :rank]))


def _peripheral_columns(spectrum: linalg.Spectrum, summary: spectra.SpectralSummary,
                        anchor_only: bool = False):
    """Real columns spanning the right eigenvectors of the peripheral
    eigenvalues (with ``anchor_only``, of the anchor cluster) in the
    coordinates of R', real columns spanning their left eigenvectors, and
    whether the right columns are orthonormal by construction.  Left/right
    unit vectors of R' are ``vl sqrt_h`` and ``vr / sqrt_h``: their overlap
    is the one of M's."""
    tol, anchor = DEFAULT_NULL_TOL, summary.kind.anchor
    w, sqrt_h = spectrum.values, spectrum.sqrt_h[:, None]
    anchor_item = summary.distinct[summary.anchor_index]
    blocks, singles = [], []
    for item in [anchor_item] if anchor_only else [i for i in summary.distinct if i.peripheral]:
        mu = item.value
        # A cluster within cluster_tol of its conjugate is its own conjugate;
        # any other lies more than cluster_tol / 2 off the real axis.
        real = 2 * abs(mu.imag) <= summary.cluster_tol
        if item.multiplicity == 1:  # its center is its eigenvalue, bit for bit
            singles.append((np.flatnonzero(w == mu)[0], mu, real))
        elif real or mu.imag > 0:  # one below the axis is its partner's conjugate
            center = anchor if item is anchor_item else (mu.real if real else mu)
            dim, right, left = spectrum.null_space(center, tol, vectors=True)
            if dim != item.multiplicity:
                raise ConsistencyError(
                    f"peripheral eigenvalue {mu:.6g}: geometric multiplicity "
                    f"{dim} != algebraic {item.multiplicity}"
                )
            blocks.append((right, left, real))
    if singles:
        k, mu, real = map(np.array, zip(*singles))
        right, left = spectrum.vr[:, k] / sqrt_h, spectrum.vl[:, k] * sqrt_h
        right /= np.linalg.norm(right, axis=0)
        overlap = np.abs(np.einsum("ij,ij->j", left.conj(), right)) / np.linalg.norm(left, axis=0)
        bad = np.flatnonzero(overlap <= tol)
        if bad.size:
            raise ConsistencyError(
                f"peripheral eigenvalue {mu[bad[0]]:.6g}: left/right eigenvector "
                f"overlap {overlap[bad[0]]:.3e} <= {tol:.1e}, not semisimple"
            )
        blocks += [(right[:, sel], left[:, sel], is_real)
                   for sel, is_real in ((real, True), (~real & (mu.imag > 0), False))]
    blocks = [b for b in blocks if b[0].shape[1]]
    # A real block stays; v above the axis gives sqrt 2 Re v, sqrt 2 Im v, which
    # is [v, conj v] times a unitary: the stack keeps the singular values.
    v, w = (np.hstack([b[s].real if b[2] else np.sqrt(2) * np.hstack((b[s].real, b[s].imag))
                       for b in blocks]) for s in (0, 1))
    # One eigenspace from an SVD, or one unit vector, is orthonormal.
    return v, w, len(blocks) == 1 and (not singles or v.shape[1] == 1)


def _projection(subject, summary: spectra.SpectralSummary, anchor_only: bool) -> np.ndarray:
    """Spectral projection onto the attractor (or with ``anchor_only`` onto
    the fixed space), as a superoperator: P' = V (W^T V)^{-1} W^T with the
    real right and left columns V, W in the coordinates of R', mapped back
    as U P' U^dag = (U V) (W^T V)^{-1} (U W)^dag.  Raises on
    biorthogonalization breakdown (near-defective eigenvalues)."""
    spectrum = subject.spectrum
    v, w, _ = _peripheral_columns(spectrum, summary, anchor_only)
    overlap = w.T @ v
    cond = np.linalg.cond(overlap)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConsistencyError(f"biorthogonalization breakdown (cond {cond:.3e})")
    return spectrum.to_matrix(v) @ np.linalg.solve(overlap, dagger(spectrum.to_matrix(w)))


def fixed_projection(subject) -> np.ndarray:
    """Spectral projection onto Fix(Phi) or Ker(L), as a superoperator."""
    return _projection(subject, spectra.summarize(subject), anchor_only=True)


def peripheral_projection(subject) -> np.ndarray:
    """Spectral projection onto the attractor, as a superoperator matrix.

    The result is idempotent and commutes with the superoperator; for a
    channel it is itself a quantum channel (all checked in the test suite
    at 1e-7/1e-6).
    """
    return _projection(subject, spectra.summarize(subject), anchor_only=False)


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


def maximal_steady_state(subject) -> np.ndarray:
    """The steady state P(I)/d of maximal support (P the spectral projection
    onto Fix(Phi) or Ker(L))."""
    d = subject.dim
    rho = unvec(fixed_projection(subject) @ vec(np.eye(d)), rows=d) / d
    rho = (rho + dagger(rho)) / 2
    return rho / np.trace(rho).real


def _support(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of a state above ``SUPPORT_REL_TOL`` times the
    largest, and their eigenvectors: an isometry onto its support."""
    w, v = np.linalg.eigh(rho)
    keep = w > SUPPORT_REL_TOL * max(w.max(), 0.0)
    return w[keep], v[:, keep]


def is_faithful(channel: QuantumChannel) -> bool:
    """A channel is faithful iff it admits an invertible steady state."""
    return _support(maximal_steady_state(channel))[1].shape[1] == channel.dim


def faithful_reduce(channel: QuantumChannel) -> FaithfulReduction:
    """Compress a channel onto the support H0 of its maximal steady state.

    Kraus operators are compressed to B0 = V^dag B V with V the isometry
    onto H0; the off-support block (I - V V^dag) B V must vanish within
    ``SUPPORT_LEAK_TOL`` or the reduction is invalid.  The reduced channel is
    faithful: its steady state V^dag rho0 V is invertible by construction.
    """
    v = _support(maximal_steady_state(channel))[1]
    d0 = v.shape[1]
    kraus = channel.kraus_operators()
    compressor = np.eye(channel.dim) - v @ dagger(v)
    leak = max(float(np.linalg.norm(compressor @ b @ v, 2)) for b in kraus)
    if leak > SUPPORT_LEAK_TOL:
        raise ConsistencyError(
            f"steady-state support leaks under Kraus action (norm {leak:.3e})"
        )
    reduced = superop.from_kraus([dagger(v) @ b @ v for b in kraus])
    return FaithfulReduction(support_dim=d0, isometry=v, reduced_channel=reduced)


def steady_states(subject) -> list[np.ndarray]:
    """Density matrices spanning as much of Fix/Ker as positivity allows.

    The first entry is the guaranteed maximal-support steady state P(I)/d.
    Further entries re-express the remaining basis directions as states by
    mixing Hermitian fixed-point components with the first state; this is
    best effort beyond the guaranteed one.  Every returned rho satisfies
    the fixed-point residual, rho >= -1e-8 and Tr rho = 1.
    """
    anchor, d, m = subject.kind.anchor, subject.dim, subject.superop
    basis = fixed_space(subject)
    rho0 = maximal_steady_state(subject)
    states = [rho0]

    def residual(r):
        return float(np.linalg.norm(unvec(m @ vec(r), rows=d) - anchor * r))

    positive = _support(rho0)[0]
    support_floor = float(positive.min()) if positive.size else 0.0
    for x in basis.matrices():
        for cand in ((x + dagger(x)) / 2, (x - dagger(x)) / 2j):
            state = _positivize(cand, rho0, support_floor)
            if state is None:
                continue
            if residual(state) > 1e-7:
                continue
            if all(np.linalg.norm(state - s) > 1e-6 for s in states):
                states.append(state)
        if len(states) >= basis.dimension:
            break
    return states


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
