"""Eigenvalue clustering and spectral summaries.

Distinct eigenvalues are recovered from the raw d^2 eigenvalue list by
single-linkage clustering (chaining within ``cluster_tol``), which keeps
numerically smeared multiple eigenvalues together at the cost of possibly
merging adversarially close distinct ones.  Tolerances are caller
overridable, validated here and embedded in every summary.

Channels and generators differ only in their :class:`Kind`: for a channel,
peripheral means |mu| >= 1 - peripheral_tol and l0 is the multiplicity of
the cluster containing 1; for a generator, peripheral means
|Re(lambda)| <= peripheral_tol and m0 is the multiplicity of the cluster
containing 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PERIPHERAL_TOL = 1e-7
DEFAULT_CLUSTER_REL_TOL = 1e-7


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
    trivial_tol: float  # ||M - anchor I|| at most this: the trivial map
    space: str  # fixed-space | kernel
    peripheral_tol_max: float  # peripheral_tol must lie in [0, this)

    def peripheral(self, c: complex, tol: float) -> bool:
        """|c| >= 1 - tol for a channel, |Re c| <= tol for a generator."""
        return abs(c) >= 1.0 - tol if self.anchor else abs(c.real) <= tol


CHANNEL = Kind(name="channel", anchor=1.0, counts=("l0", "lP"),
               classes=("trivial", "unitary", "non-unitary"), trivial_tol=1e-8,
               space="fixed-space", peripheral_tol_max=1.0)
GENERATOR = Kind(name="generator", anchor=0.0, counts=("m0", "mP"),
                 classes=("zero", "hamiltonian", "non-hamiltonian"), trivial_tol=1e-12,
                 space="kernel", peripheral_tol_max=math.inf)


def default_cluster_tol(spectral_radius: float) -> float:
    # Well above eig backward error at d <= 12, far below constructed gaps.
    return DEFAULT_CLUSTER_REL_TOL * max(1.0, spectral_radius)


@dataclass(frozen=True)
class DistinctEigenvalue:
    value: complex
    multiplicity: int
    peripheral: bool
    real_part: float
    rate: float | None = None  # -Re(lambda), generators only


@dataclass(frozen=True)
class SpectralSummary:
    """Distinct eigenvalues with multiplicities and the derived counts.

    ``l0_or_m0`` is the multiplicity of the cluster at 1 (channels) or 0
    (generators), ``distinct[anchor_index]``; ``lP_or_mP`` sums all
    peripheral multiplicities; ``bulk_multiplicity`` is the complement.
    """

    kind: Kind
    dim: int
    distinct: tuple[DistinctEigenvalue, ...]
    l0_or_m0: int
    lP_or_mP: int
    bulk_multiplicity: int
    cluster_tol: float
    peripheral_tol: float
    anchor_index: int  # the cluster nearest the anchor; not serialized


def cluster(values, cluster_tol: float) -> list[tuple[complex, int]]:
    """Single-linkage clustering of complex values.

    Two values share a cluster if they are within ``cluster_tol`` of each
    other through a chain.  Returns (center, multiplicity) pairs with center
    the mean of the cluster members, sorted by descending |center| then by
    phase angle; the result is invariant under permutations of the input.
    """
    if not 0.0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be finite and positive, got {cluster_tol!r}")
    vs = np.asarray(values, dtype=np.complex128).ravel()
    n = vs.size
    if n == 0:
        return []
    # Sorting first makes the arithmetic permutation-invariant.
    vs = vs[np.lexsort((vs.imag, vs.real))]
    close = np.abs(vs[:, None] - vs[None, :]) <= cluster_tol
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
    # A singleton's center is its value bit for bit (attractor matches by ==).
    centers = np.where(mults == 1, vs[roots], vs[roots] + offsets[roots] / mults)
    # np.hypot rounds |c| as Python's abs does; np.abs may differ by an ulp.
    order = np.lexsort((np.angle(centers), -np.hypot(centers.real, centers.imag)))
    return list(zip(centers[order].tolist(), mults[order].tolist()))


def summarize(subject, cluster_tol: float | None = None,
              peripheral_tol: float = DEFAULT_PERIPHERAL_TOL) -> SpectralSummary:
    """Spectral summary of a channel's or generator's cached eigenvalues:
    distinct ones, l0/m0, lP/mP and, for a generator, the rates."""
    return _summarize(subject.kind, subject.dim, subject.spectrum.values,
                      cluster_tol, peripheral_tol)


def _summarize(kind: Kind, dim: int, eigenvalues: np.ndarray,
               cluster_tol: float | None, peripheral_tol: float) -> SpectralSummary:
    if not 0.0 <= peripheral_tol < kind.peripheral_tol_max:
        raise ValueError(f"{kind.name} peripheral_tol must lie in "
                         f"[0, {kind.peripheral_tol_max:g}), got {peripheral_tol!r}")
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    ctol = cluster_tol if cluster_tol is not None else default_cluster_tol(radius)
    clusters = cluster(eigenvalues, ctol)

    anchor = kind.anchor
    anchor_idx = min(range(len(clusters)), key=lambda k: abs(clusters[k][0] - anchor))
    anchor_dist = abs(clusters[anchor_idx][0] - anchor)
    if anchor_dist > max(peripheral_tol, 2 * ctol):
        raise ValueError(
            f"no eigenvalue cluster within tolerance of {complex(anchor)}: "
            f"nearest at distance {anchor_dist:.3e}; invalid {kind.name}"
        )

    rates = kind == GENERATOR
    distinct = tuple(
        DistinctEigenvalue(value=center, multiplicity=mult,
                           peripheral=kind.peripheral(center, peripheral_tol),
                           real_part=float(center.real),
                           rate=max(0.0, -center.real) if rates else None)
        for center, mult in clusters)
    lp = sum(item.multiplicity for item in distinct if item.peripheral)
    return SpectralSummary(kind=kind, dim=dim, distinct=distinct,
                           l0_or_m0=clusters[anchor_idx][1], lP_or_mP=lp,
                           bulk_multiplicity=dim * dim - lp,
                           cluster_tol=ctol, peripheral_tol=peripheral_tol,
                           anchor_index=anchor_idx)


def summary_to_json(summary: SpectralSummary) -> dict:
    return {
        "kind": summary.kind.name,
        "dim": summary.dim,
        "distinct": [
            {
                "value": [item.value.real, item.value.imag],
                "multiplicity": item.multiplicity,
                "peripheral": item.peripheral,
                "real_part": item.real_part,
                **({"rate": item.rate} if item.rate is not None else {}),
            }
            for item in summary.distinct
        ],
        "l0_or_m0": summary.l0_or_m0,
        "lP_or_mP": summary.lP_or_mP,
        "bulk_multiplicity": summary.bulk_multiplicity,
        "tolerances": {
            "cluster": summary.cluster_tol,
            "peripheral": summary.peripheral_tol,
        },
    }
