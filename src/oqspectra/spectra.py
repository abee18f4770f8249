"""Eigenvalue clustering and spectral summaries.

Distinct eigenvalues are recovered from the raw d^2 eigenvalue list by
single-linkage clustering (chaining within ``cluster_tol``), which keeps
numerically smeared multiple eigenvalues together at the cost of possibly
merging adversarially close distinct ones.  Tolerances are validated here
and embedded in every summary.  A caller's are in input units; the defaults
are ``DEFAULT_TOL`` in units of one per-subject :func:`scale` s (clustering
``DEFAULT_TOL * max(s, spectral radius)``, peripheral ``DEFAULT_TOL * s``),
so a generator L and cL (c > 0) get the same counts.

Channels and generators differ only in their :class:`Kind`: for a channel,
peripheral means |mu| >= 1 - peripheral_tol and l0 is the multiplicity of
the cluster containing 1; for a generator, peripheral means
|Re(lambda)| <= peripheral_tol and m0 is the multiplicity of the cluster
containing 0.  The cluster at the anchor is always peripheral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8  # every default tolerance, in units of the subject's scale


@dataclass(frozen=True)
class Kind:
    """Everything that tells a channel from a generator.

    Every stage reads the kind of its subject (``subject.kind``) or summary
    instead of branching on the type.
    """

    name: str  # channel | generator
    anchor: float  # the eigenvalue of the steady states: 1 or 0
    counts: tuple[str, str]  # names of the steady and peripheral counts
    classes: tuple[str, str, str]  # the trivial map, all peripheral, the rest
    trivial_tol: float  # ||M - anchor I|| at most this times the scale: the trivial map
    space: str  # fixed-space | kernel

    def peripheral(self, c: np.ndarray, tol: float) -> np.ndarray:
        """Mask of |c| >= 1 - tol for a channel, |Re c| <= tol for a generator
        (np.hypot rounds |c| as Python's abs does; np.abs may differ by an ulp)."""
        return np.hypot(c.real, c.imag) >= 1.0 - tol if self.anchor else np.abs(c.real) <= tol


CHANNEL = Kind(name="channel", anchor=1.0, counts=("l0", "lP"),
               classes=("trivial", "unitary", "non-unitary"), trivial_tol=1e-8,
               space="fixed-space")
GENERATOR = Kind(name="generator", anchor=0.0, counts=("m0", "mP"),
                 classes=("zero", "hamiltonian", "non-hamiltonian"), trivial_tol=1e-12,
                 space="kernel")


def scale(subject) -> float:
    """The unit of the default tolerances: 1 for a channel, whose anchor fixes it;
    for a generator the 4^k nearest ||H||_F + ||A||_F^2 (A the noise stack), or 1 if
    that is not a normal float (both vanish, say), whose reciprocal would overflow.
    (4^j H, 2^j A_k) moves k by j; L of H = cI, pure rounding, stays noise."""
    if subject.kind == CHANNEL:
        return 1.0
    h, a = subject.hamiltonian, subject.noise_ops
    # One exact 4^-j brings every |entry| of H and of A^2 to at most 1: no overflow.  Only
    # a nonzero part picks j (frexp(0.0) has exponent 0); j >= -1022 keeps 2^-j finite.
    tops = ((np.abs(h).max(), 2), (np.abs(a).max(initial=0.0), 1))
    j = max([-(-math.frexp(top)[1] // p) for top, p in tops if top] + [-1022])
    f = math.ldexp(1.0, -j)
    h, a = h * f * f, a * f
    n = math.sqrt(np.vdot(h, h).real) + np.vdot(a, a).real
    s = math.ldexp(1.0, 2 * (j + round(math.log(n, 4)))) if n else 0.0
    return s if s >= sys.float_info.min else 1.0


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Distinct eigenvalues with multiplicities and the derived counts.

    ``values`` (complex), ``multiplicities`` and the ``peripheral`` mask
    hold one entry per cluster, in the order of :func:`cluster`.
    ``l0_or_m0`` is the multiplicity of the cluster at 1 (channels) or 0
    (generators), ``values[anchor_index]``; ``lP_or_mP`` sums all
    peripheral multiplicities; ``bulk_multiplicity`` is the complement.
    """

    kind: Kind
    dim: int
    values: np.ndarray
    multiplicities: np.ndarray
    peripheral: np.ndarray
    l0_or_m0: int
    lP_or_mP: int
    bulk_multiplicity: int
    cluster_tol: float
    peripheral_tol: float
    anchor_index: int  # the cluster nearest the anchor; not serialized
    scale: float  # the unit of the default tolerances (:func:`scale`); not serialized
    members: np.ndarray  # the cluster of each eigenvalue, in their order; not serialized

    @property
    def rates(self) -> np.ndarray:
        """max(0, -Re lambda) per cluster, the relaxation rates of a generator."""
        # Not np.maximum(0.0, -re): it keeps -0.0 where Python's max gives 0.0.
        neg = -self.values.real
        return np.where(neg > 0, neg, 0.0)


def cluster(values, cluster_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clustering of complex values.

    Two values share a cluster if they are within ``cluster_tol`` of each
    other through a chain.  Returns arrays (centers, multiplicities), each center
    the mean of its cluster, sorted by descending |center| then by phase
    angle; the result is invariant under permutations of the input.
    """
    return _cluster(values, cluster_tol)[:2]


def _cluster(values, cluster_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cluster` and the index of each value's cluster, in input order."""
    if not 0.0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be finite and positive, got {cluster_tol!r}")
    vs = np.asarray(values, dtype=np.complex128).ravel()
    n, members = vs.size, np.empty(vs.size, dtype=np.intp)
    # Sorting first makes the arithmetic permutation-invariant.
    perm = np.lexsort((vs.imag, vs.real))
    vs = vs[perm]
    close = np.abs(vs[:, None] - vs[None, :]) <= cluster_tol
    if np.count_nonzero(close) == n:  # nothing chains (or nothing): the general path's bits
        order = np.lexsort((np.angle(vs), -np.hypot(vs.real, vs.imag)))
        members[perm[order]] = np.arange(n)
        return vs[order], np.ones(n, dtype=np.intp), members
    # Label propagation with pointer jumping: labels only decrease, and the
    # fixed point gives each value the smallest index it chains to.
    labels = np.arange(n)
    while True:
        nxt = np.where(close, labels, n).min(axis=1)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    counts = np.bincount(labels, minlength=n)
    # Mean as first member plus mean offset: about an ulp off, at any size.
    diff = vs - vs[labels]
    offsets = np.bincount(labels, diff.real, n) + 1j * np.bincount(labels, diff.imag, n)
    roots = np.flatnonzero(counts)
    mults = counts[roots]
    # A singleton's center is its value bit for bit.
    centers = np.where(mults == 1, vs[roots], vs[roots] + offsets[roots] / mults)
    # np.hypot rounds |c| as Python's abs does; np.abs may differ by an ulp.
    order = np.lexsort((np.angle(centers), -np.hypot(centers.real, centers.imag)))
    members[perm] = np.argsort(order)[np.searchsorted(roots, labels)]  # labels are roots
    return centers[order], mults[order], members


def summarize(subject, cluster_tol: float | None = None,
              peripheral_tol: float | None = None) -> SpectralSummary:
    """Spectral summary of a channel's or generator's cached eigenvalues:
    distinct ones, l0/m0, lP/mP and, for a generator, the rates.  A
    tolerance left None is the default in units of :func:`scale`."""
    return _summarize(subject.kind, subject.dim, subject.spectrum.values, scale(subject),
                      cluster_tol, peripheral_tol)


def _summarize(kind: Kind, dim: int, eigenvalues: np.ndarray, scale: float,
               cluster_tol: float | None, peripheral_tol: float | None) -> SpectralSummary:
    peripheral_tol = DEFAULT_TOL * scale if peripheral_tol is None else peripheral_tol
    if not 0.0 <= peripheral_tol < scale:
        raise ValueError(f"{kind.name} peripheral_tol must lie in "
                         f"[0, {scale:g}), got {peripheral_tol!r}")
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    ctol = cluster_tol if cluster_tol is not None else DEFAULT_TOL * max(scale, radius)
    centers, mults, members = _cluster(eigenvalues, ctol)

    anchor = kind.anchor
    dist = np.hypot(centers.real - anchor, centers.imag)
    anchor_idx = int(np.argmin(dist))  # the first of equally near clusters
    anchor_dist = float(dist[anchor_idx])
    if anchor_dist > max(peripheral_tol, 2 * ctol):
        raise ValueError(
            f"no eigenvalue cluster within tolerance of {complex(anchor)}: "
            f"nearest at distance {anchor_dist:.3e}; invalid {kind.name}"
        )

    peripheral = kind.peripheral(centers, peripheral_tol)
    peripheral[anchor_idx] = True  # the fixed space or kernel, whatever the tolerance
    lp = int(mults[peripheral].sum())
    return SpectralSummary(kind=kind, dim=dim, values=centers, multiplicities=mults,
                           peripheral=peripheral, l0_or_m0=int(mults[anchor_idx]), lP_or_mP=lp,
                           bulk_multiplicity=dim * dim - lp,
                           cluster_tol=ctol, peripheral_tol=peripheral_tol,
                           anchor_index=anchor_idx, scale=scale, members=members)

