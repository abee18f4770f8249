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

Everything runs on stacks: :func:`summaries` clusters the eigenvalues of a
list of subjects at once (the campaign's chunks, mixed kinds included), each
subject getting the bits of its stack of one; :func:`summarize`,
:func:`cluster` and :func:`scale` are stacks of one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_TOL = 1e-8  # every default tolerance, in units of the subject's scale
_MAX = np.maximum.reduce


@dataclass(frozen=True, eq=False)
class Kind:
    """Everything that tells a channel from a generator.

    Every stage reads the kind of its subject (``subject.kind``) or summary
    instead of branching on the type.  There are two, :data:`CHANNEL` and
    :data:`GENERATOR`, compared and hashed by identity.
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
    """The unit of the default tolerances, the stack of one of :func:`scales`."""
    return float(scales([subject])[0])


def scales(subjects: list) -> np.ndarray:
    """The unit of each subject's default tolerances: 1 for a channel, whose anchor fixes
    it; for a generator the 4^k nearest ||H||_F + ||A||_F^2 (A the noise stack), or 1 if
    that is not a normal float (both vanish, say), whose reciprocal would overflow.
    (4^j H, 2^j A_k) moves k by j; L of H = cI, pure rounding, stays noise.  One pass per
    shape of noise stack: each norm is a BLAS dot (np.vecdot: np.vdot's bits) of its own
    length."""
    out, by_shape = np.ones(len(subjects)), {}
    for k, s in enumerate(subjects):
        if s.kind == GENERATOR:
            by_shape.setdefault(s.noise_ops.shape, []).append(k)
    for ks in by_shape.values():
        h = np.array([subjects[k].hamiltonian for k in ks]).reshape(len(ks), -1)
        a = np.array([subjects[k].noise_ops for k in ks]).reshape(len(ks), -1)
        # One exact 4^-j brings every |entry| of H and of A^2 to at most 1: no overflow.  Only
        # a nonzero part picks j (frexp(0.0) has exponent 0); j >= -1022 keeps 2^-j finite.
        tops = np.array([_MAX(np.abs(h), 1), _MAX(np.abs(a), 1, initial=0.0)])
        j = [max(-(-e // 2) if t else -1022, e2 if t2 else -1022, -1022)
             for e, e2, t, t2 in zip(*np.frexp(tops)[1].tolist(), *tops.tolist())]
        f = np.ldexp(1.0, [-jk for jk in j])[:, None]
        h, a = h * f * f, a * f
        n = (np.sqrt(np.vecdot(h, h).real) + np.vecdot(a, a).real).tolist()
        s = [math.ldexp(1.0, 2 * (jk + round(math.log(nk, 4)))) if nk else 0.0
             for jk, nk in zip(j, n)]
        out[ks] = [sk if sk >= sys.float_info.min else 1.0 for sk in s]
    return out



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
    if not 0.0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be finite and positive, got {cluster_tol!r}")
    vs = np.asarray(values, dtype=np.complex128).reshape(1, -1)
    return _clusters(vs, np.array([cluster_tol]))[:2]


def _clusters(vs: np.ndarray, tols: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`cluster` of each row of a (k, n) stack at its own tolerance: the centers and
    multiplicities of every row, row after row, the row of each and the k + 1 offsets of
    the rows; and the (k, n) index of each value's cluster in its row's order."""
    k, n = vs.shape
    rows, within, starts = _layout(k, n)
    # Sorting each row first makes the arithmetic permutation-invariant.
    perm = np.lexsort((vs.imag.ravel(), vs.real.ravel(), rows))
    vs = vs.ravel()[perm]
    close = np.abs(vs.reshape(k, n, 1) - vs.reshape(k, 1, n)) <= tols[:, None, None]
    members = np.empty(k * n, dtype=np.intp)
    if np.count_nonzero(close) == k * n:  # nothing chains (or nothing): the general path's bits
        order = np.lexsort((np.arctan2(vs.imag, vs.real), -np.hypot(vs.real, vs.imag), rows))
        members[perm[order]] = within
        return vs[order], np.ones(k * n, dtype=np.intp), rows, starts, members.reshape(k, n)
    # Label propagation with pointer jumping: labels (indices in the stack) only
    # decrease, and the fixed point gives each value the smallest index it chains to.
    labels = np.arange(k * n).reshape(k, n)
    while True:
        nxt = np.minimum.reduce(np.where(close, labels[:, None], k * n), 2)
        nxt = nxt.ravel()[nxt]
        if not np.count_nonzero(nxt != labels):
            break
        labels = nxt
    labels = labels.ravel()
    # Mean as first member plus mean offset: about an ulp off, at any size.
    counts, diff = np.bincount(labels, minlength=k * n), vs - vs[labels]
    offsets = np.bincount(labels, diff.real, k * n) + 1j * np.bincount(labels, diff.imag, k * n)
    roots = counts.nonzero()[0]
    mults = counts[roots]
    # A singleton's center is its value bit for bit.
    centers = np.where(mults == 1, vs[roots], vs[roots] + offsets[roots] / mults)
    # np.hypot rounds |c| as Python's abs does; np.abs may differ by an ulp.
    order = np.lexsort((np.arctan2(centers.imag, centers.real),
                        -np.hypot(centers.real, centers.imag), rows[roots]))
    rows, rank = rows[roots][order], np.empty_like(order)
    rank[order] = np.arange(order.size) - rows.searchsorted(rows)  # from its row's first
    members[perm] = rank[roots.searchsorted(labels)]
    starts = rows.searchsorted(np.arange(k + 1))
    return centers[order], mults[order], rows, starts, members.reshape(k, n)


@functools.lru_cache(maxsize=64)
def _layout(k: int, n: int) -> tuple[np.ndarray, ...]:
    """For k rows of n stacked values: the row of each, its index in its row and the
    k + 1 offsets of the rows, shared by every stack of that size, so read-only."""
    layout = np.arange(k).repeat(n), np.tile(np.arange(n), k), np.arange(k + 1) * n
    for part in layout:
        part.flags.writeable = False
    return layout


def summarize(subject, cluster_tol: float | None = None,
              peripheral_tol: float | None = None) -> SpectralSummary:
    """Spectral summary of a channel's or generator's cached eigenvalues:
    distinct ones, l0/m0, lP/mP and, for a generator, the rates.  A
    tolerance left None is the default in units of :func:`scale`.  The
    stack of one of :func:`summaries`."""
    return linalg.one(summaries([subject], cluster_tol, peripheral_tol))


def summaries(subjects: list, cluster_tol: float | None = None,
              peripheral_tol: float | None = None) -> list:
    """:func:`summarize` of each subject, all of one dimension, or the ValueError of its
    tolerances or of its missing anchor cluster (:func:`linalg.each`): one clustering of
    the stack of their eigenvalues, then the anchor and peripheral decisions over all its
    clusters at once."""
    if not subjects:
        return []
    values = np.array([s.spectrum.values for s in subjects], dtype=np.complex128)
    k, units = len(subjects), scales(subjects)
    ptols = DEFAULT_TOL * units if peripheral_tol is None else np.full(k, peripheral_tol)
    ctols = (DEFAULT_TOL * np.maximum(units, _MAX(np.abs(values), 1, initial=0.0))
             if cluster_tol is None else np.full(k, cluster_tol))
    valid = cluster_tol is None or 0.0 < cluster_tol < math.inf
    centers, mults, rows, starts, members = _clusters(values, ctols if valid else np.zeros(k))
    kind, *others = dict.fromkeys(s.kind for s in subjects)
    anchors = np.array([s.kind.anchor for s in subjects])[rows] if others else kind.anchor
    dist = np.hypot(centers.real - anchors, centers.imag)
    first = np.lexsort((dist, rows))[starts[:-1]]  # nearest its anchor, the first of equals
    peripheral = kind.peripheral(centers, ptols[rows])
    for other in others:  # the constructors mix channels and generators
        peripheral = np.where(anchors == other.anchor, other.peripheral(centers, ptols[rows]),
                              peripheral)
    peripheral[first] = True  # the fixed space or kernel, whatever the tolerance
    lp = np.add.reduceat(peripheral * mults, starts[:-1]).tolist()
    l0, near, at = mults[first].tolist(), dist[first].tolist(), (first - starts[:-1]).tolist()
    starts = starts.tolist()

    def summary(row, s, scale, ctol, ptol):
        if not 0.0 <= ptol < scale:
            raise ValueError(f"{s.kind.name} peripheral_tol must lie in "
                             f"[0, {scale:g}), got {ptol!r}")
        if not valid:
            raise ValueError(f"cluster_tol must be finite and positive, got {ctol!r}")
        if near[row] > max(ptol, 2 * ctol):
            raise ValueError(f"no eigenvalue cluster within tolerance of "
                             f"{complex(s.kind.anchor)}: nearest at distance "
                             f"{near[row]:.3e}; invalid {s.kind.name}")
        span = slice(starts[row], starts[row + 1])
        return SpectralSummary(kind=s.kind, dim=s.dim, values=centers[span],
                               multiplicities=mults[span], peripheral=peripheral[span],
                               l0_or_m0=l0[row], lP_or_mP=lp[row],
                               bulk_multiplicity=s.dim * s.dim - lp[row], cluster_tol=ctol,
                               peripheral_tol=ptol, anchor_index=at[row], scale=scale,
                               members=members[row])

    return linalg.each(summary, range(k), subjects, units.tolist(),
                       ctols.tolist() if cluster_tol is None else [cluster_tol] * k,
                       ptols.tolist() if peripheral_tol is None else [peripheral_tol] * k)
