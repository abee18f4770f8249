"""Fixed-point spaces, attractor subspaces, spectral projections and the
maximal steady state.

:func:`fixed_space` (for a generator its kernel) and :func:`attractor`
count dimensions in the real coordinates of the subject's
:class:`linalg.Spectrum` from singular values alone (one SVD at the anchor
of its kind, 1 for channels and 0 for generators, shared by both); the
attractor reads its overlaps and column scales from the cached decomposition
(``Spectrum.overlap``, ``Spectrum.unit``) and indexes its columns there.
Bases in matrix coordinates are built on first read.  Every nullspace cut
reads ``DEFAULT_NULL_TOL``.

Spectral projections (onto the fixed space or the attractor) read the same
cached ``Spectrum``: the real right columns V the attractor uses, and their
left counterparts W, the cached left eigenvectors, give
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

from . import linalg, spectra, superop
from .linalg import ConsistencyError, dagger, unvec, vec
from .superop import QuantumChannel

DEFAULT_NULL_TOL = 1e-8  # nullspace cut and left/right overlap floor of every eigenspace
SUPPORT_REL_TOL = 1e-9  # eigenvalues of rho0 below this times the largest are noise
SUPPORT_LEAK_TOL = 1e-8  # largest norm of the off-support block (I - V V^dag) B V
ATTRACTOR_RANK_TOL = 1e-10  # independent columns: singular values above this times the largest


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
    dim, _ = spectrum.null_space(kind.anchor, tol)
    if dim != summary.l0_or_m0:
        raise ConsistencyError(
            f"{kind.space} dimension {dim} != clustered multiplicity "
            f"{summary.l0_or_m0}; tighten tolerances"
        )
    return SubspaceBasis(dim, lambda: spectrum.to_matrix(
        spectrum.null_space(kind.anchor, tol, vectors=True)[1]))


def attractor(subject, summary: spectra.SpectralSummary | None = None) -> SubspaceBasis:
    """The span of all peripheral eigenvectors, which are semisimple.

    Every peripheral eigenvalue gives its eigenvectors from the cached
    decomposition.  A simple one needs a left/right overlap
    (``Spectrum.overlap``) above ``DEFAULT_NULL_TOL``, a multiple one
    Null(R' - mu I) of dimension its multiplicity by singular values alone
    (R' is real: a cluster below the axis is checked as its conjugate).  The
    rank of all these columns (singular values above ``ATTRACTOR_RANK_TOL``
    times the largest) must be lP/mP, unless the anchor cluster alone, just
    certified, is peripheral: its columns then wait for a read of the basis.
    Any failure raises ConsistencyError.  A given ``summary`` must be this
    subject's own.
    """
    if summary is None:
        summary = spectra.summarize(subject)
    spectrum = subject.spectrum
    if np.count_nonzero(summary.peripheral) == 1:
        k, stack = _semisimple(spectrum, summary, summary.peripheral), None
        rank = width = k.size + int(np.count_nonzero(spectrum.values.imag[k] > 0))
    else:
        stack, _ = _peripheral_columns(spectrum, summary)
        width = stack.shape[1]
        rank = linalg.numerical_rank(np.linalg.svd(stack, compute_uv=False), stack.shape,
                                     ATTRACTOR_RANK_TOL)
    if rank != summary.lP_or_mP or rank != width:
        raise ConsistencyError(
            f"attractor dimension {rank} != peripheral multiplicity "
            f"{summary.lP_or_mP}"
        )
    return SubspaceBasis(rank, lambda: spectrum.to_matrix(np.linalg.svd(
        _peripheral_columns(spectrum, summary)[0] if stack is None else stack,
        full_matrices=False)[0][:, :rank]))


def _semisimple(spectrum: linalg.Spectrum, summary: spectra.SpectralSummary,
                selected: np.ndarray) -> np.ndarray:
    """The members of the ``selected`` clusters on or above the real axis, by
    index, after the semisimplicity checks of :func:`attractor`."""
    tol, anchor, values = DEFAULT_NULL_TOL, summary.kind.anchor, summary.values
    mults, members = summary.multiplicities, summary.members
    # A multiple eigenvalue takes one values-only SVD; below the axis it is a conjugate.
    for k in (selected & (mults > 1)).nonzero()[0].tolist():
        mu = complex(values[k])
        real = 2 * abs(mu.imag) <= summary.cluster_tol  # within cluster_tol of its conjugate
        if not real and mu.imag < 0:
            continue
        dim, _ = spectrum.null_space(
            anchor if k == summary.anchor_index else (mu.real if real else mu), tol)
        if dim != mults[k]:
            raise ConsistencyError(
                f"peripheral eigenvalue {mu:.6g}: geometric multiplicity "
                f"{dim} != algebraic {mults[k]}"
            )
    # Every member on or above the axis: dgeev keeps v = a + ib above the axis
    # in columns k and k + 1, and a conjugate below has its vectors.
    keep = selected[members] & (spectrum.values.imag >= 0)
    # A multiple eigenvalue's vectors are any basis of its eigenspace: no overlap to check.
    bad = keep & (spectrum.overlap <= tol) & (mults[members] == 1)
    if bad.any():
        k = bad.argmax()
        raise ConsistencyError(
            f"peripheral eigenvalue {spectrum.values[k]:.6g}: left/right eigenvector "
            f"overlap {spectrum.overlap[k]:.3e} <= {tol:.1e}, not semisimple"
        )
    return keep.nonzero()[0]


def _peripheral_columns(spectrum: linalg.Spectrum, summary: spectra.SpectralSummary,
                        anchor_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Real columns spanning the right eigenvectors of the peripheral
    eigenvalues (with ``anchor_only``, of the anchor cluster) in the
    coordinates of R', and real columns spanning their left eigenvectors,
    after :func:`_semisimple`: ``vr / sqrt_h`` times ``Spectrum.unit`` and
    ``vl sqrt_h``, each pair's Im v after every Re v, so that the right columns
    keep the singular values of the complex stack of unit eigenvectors."""
    selected = summary.peripheral
    if anchor_only:
        selected = np.arange(selected.size) == summary.anchor_index
    k = _semisimple(spectrum, summary, selected)
    sqrt_h, j = spectrum.sqrt_h[:, None], k[spectrum.values.imag[k] > 0] + 1
    return (np.hstack((spectrum.vr[:, k] / sqrt_h * spectrum.unit[k],
                       spectrum.vr[:, j] * (1 / sqrt_h) * spectrum.unit[j])),
            np.hstack((spectrum.vl[:, k] * sqrt_h, spectrum.vl[:, j] * sqrt_h)))


def _projection(subject, summary: spectra.SpectralSummary, anchor_only: bool) -> np.ndarray:
    """Spectral projection onto the attractor (or with ``anchor_only`` onto
    the fixed space), as a superoperator: P' = V (W^T V)^{-1} W^T with the
    real right and left columns V, W in the coordinates of R', mapped back
    as U P' U^dag = (U V) (W^T V)^{-1} (U W)^dag.  Raises on
    biorthogonalization breakdown (near-defective eigenvalues)."""
    spectrum = subject.spectrum
    v, w = _peripheral_columns(spectrum, summary, anchor_only)
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
    leak = float(np.linalg.norm(compressor @ kraus @ v, 2, axis=(1, 2)).max())
    if leak > SUPPORT_LEAK_TOL:
        raise ConsistencyError(
            f"steady-state support leaks under Kraus action (norm {leak:.3e})"
        )
    reduced = superop.from_kraus(dagger(v) @ kraus @ v)
    return FaithfulReduction(support_dim=d0, isometry=v, reduced_channel=reduced)

