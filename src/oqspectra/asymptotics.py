"""Fixed-point spaces, attractor subspaces, spectral projections and the
maximal steady state.

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
and generators are semisimple).  The one steady state guaranteed is the one
of maximal support, P(I)/d; :func:`faithful_reduce` compresses a channel
onto that support.
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
ATTRACTOR_RANK_TOL = 1e-10  # independent columns: singular values above this times the largest


class ConsistencyError(RuntimeError):
    """Cross-module disagreement (clustering vs nullspace dimensions)."""


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """A subspace of vectorized operators; its orthonormal ``basis``
    (d^2 x dimension) comes from ``build`` on first read."""

    dimension: int
    build: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return self.build()


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
    return SubspaceBasis(dim, lambda: spectrum.to_matrix(
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
        linalg.real_svd(stack, False)[1], stack.shape, ATTRACTOR_RANK_TOL)
    if rank != summary.lP_or_mP or rank != stack.shape[1]:
        raise ConsistencyError(
            f"attractor dimension {rank} != peripheral multiplicity "
            f"{summary.lP_or_mP}"
        )
    return SubspaceBasis(rank, lambda: spectrum.to_matrix(
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
    items = [anchor_item] if anchor_only else [i for i in summary.distinct if i.peripheral]
    blocks = []
    for item in items:
        mu = item.value
        # A cluster within cluster_tol of its conjugate is its own conjugate;
        # any other lies more than cluster_tol / 2 off the real axis.
        real = 2 * abs(mu.imag) <= summary.cluster_tol
        if item.multiplicity > 1 and (real or mu.imag > 0):  # below the axis: a conjugate
            center = anchor if item is anchor_item else (mu.real if real else mu)
            dim, right, left = spectrum.null_space(center, tol, vectors=True)
            if dim != item.multiplicity:
                raise ConsistencyError(
                    f"peripheral eigenvalue {mu:.6g}: geometric multiplicity "
                    f"{dim} != algebraic {item.multiplicity}"
                )
            blocks.append((right, left, real))
    mu = np.array([item.value for item in items if item.multiplicity == 1])
    if mu.size:  # a singleton's center is its eigenvalue, bit for bit
        k = (w[:, None] == mu).argmax(axis=0)  # the first match of each
        real = 2 * np.abs(mu.imag) <= summary.cluster_tol
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
    return v, w, len(blocks) == 1 and (not mu.size or v.shape[1] == 1)


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

