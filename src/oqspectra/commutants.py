"""Commutants of operator sets and commutant dimension from Jordan data.

The brute-force route stacks the commutation superoperators
C_A = I (x) A - A^T (x) I and takes their joint nullspace; it provides the
commutant basis and is the oracle for the cheaper routes.  The Gram route
(:func:`commutant_dimension`) reads the dimension off the d^2 x d^2
Hermitian matrix G = sum_A C_A^dag C_A, whose nullspace is the commutant,
without building the 2K d^2-row stack; it answers only when it can certify
the brute-force count and falls back to it otherwise.  The structural
route reads the dimension off the Jordan block profile via the Weyr
characteristic: for one eigenvalue with block sizes d_1, d_2, ... the
contribution is sum_i s_i^2 with s_i = #{j : d_j >= i}.

Jordan structure is numerically unstable, so :func:`weyr_profile` only
proceeds when the eigenvalue clusters are certifiably separated; it refuses
rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg, spectra, superop
from .asymptotics import SubspaceBasis
from .linalg import require_square

SEPARATION_FACTOR = 100.0  # required cluster separation, in units of cluster_tol
DEFAULT_RANK_TOL = 1e-10
RANK_GAP_FACTOR = 10.0  # singular values must drop by this across the rank cut
GRAM_NULL_FACTOR = 10.0  # Gram eigenvalues <= this * d^2 * eps * ref^2 count as null
GRAM_GAP_FACTOR = 1e3  # the first non-null Gram eigenvalue must clear the cut by this


@dataclass(frozen=True)
class JordanProfile:
    """Distinct eigenvalues with their Jordan block sizes."""

    eigenvalues: tuple[tuple[complex, tuple[int, ...]], ...]

    @property
    def dim(self) -> int:
        return sum(sum(sizes) for _, sizes in self.eigenvalues)


def commutant(ops, tol: float = 0.0) -> SubspaceBasis:
    """{B : A B = B A for all A in ops}: its dimension and orthonormal basis.

    The nullspace cutoff is anchored at the operators' Frobenius norms
    (within sqrt(d) of the operator norms, with no SVD), so a set of
    (numerically) scalar operators correctly commutes with everything.
    """
    mats = [require_square(a) for a in ops]
    if not mats:
        raise ValueError("commutant of an empty operator set is everything")
    d = mats[0].shape[0]
    if any(a.shape[0] != d for a in mats):
        raise ValueError("operators must share one dimension")
    stacked = np.vstack([linalg.commutation_superop(a) for a in mats])
    scale = max(float(np.linalg.norm(a)) for a in mats)
    ns = linalg.nullspace(stacked, tol=tol, scale=scale)
    dim = int(ns.shape[1])
    if dim < 1:
        raise AssertionError("commutant lost the identity; tolerance too tight")
    return SubspaceBasis(dimension=dim, build=lambda: ns)


def commutant_dimension(ops) -> int:
    """``commutant(ops).dimension`` from the Gram matrix.

    G = sum_A C_A^dag C_A = I (x) P + conj(Q) (x) I - S - S^dag with
    P = sum A^dag A, Q = sum A A^dag and S = sum conj(A) (x) A.  Squaring
    the singular values of the stack costs half the digits, so the count of
    small eigenvalues of G is accepted only when it is certified: a gap of
    ``GRAM_GAP_FACTOR`` above the cut, and null vectors whose commutators,
    computed directly, pass the stack SVD's own cutoff.  An uncertified
    count falls back to the brute-force :func:`commutant`.
    """
    a = np.asarray(ops, dtype=np.complex128)
    if a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a nonempty set of square operators of one dimension")
    n_ops, d = a.shape[0], a.shape[1]
    rows = a.reshape(n_ops * d, d)  # A_k stacked vertically: P = rows^dag rows
    cols = a.transpose(1, 0, 2).reshape(d, n_ops * d)  # side by side: Q = cols cols^dag
    s = superop.kraus_to_superop(a)
    gram = (linalg.kronecker_sum(rows.conj().T @ rows, (cols @ cols.conj().T).conj())
            - s - s.conj().T)
    w = scipy.linalg.eigvalsh(gram)
    ref = np.sqrt(max(w[-1], float(np.max(np.sum(np.abs(a) ** 2, axis=(1, 2))))))
    cut = GRAM_NULL_FACTOR * d * d * linalg.EPS * ref * ref
    k = int(np.sum(w <= cut))
    certified = k == d * d or (k > 0 and w[k] >= GRAM_GAP_FACTOR * cut)
    if certified and k > 1:
        # The identity alone needs no check; other null vectors must pass
        # the stack SVD's cutoff with their commutators computed directly
        _, v = scipy.linalg.eigh(gram, subset_by_index=[0, k - 1])
        x = v.T.reshape(k, d, d).transpose(0, 2, 1)  # unvec: column-stacked
        residual = np.sqrt(sum(np.linalg.norm(b @ x - x @ b) ** 2 for b in a))
        certified = residual <= n_ops * d * d * linalg.EPS * ref
    if certified:
        return k
    return commutant(list(a)).dimension


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
    m = require_square(a)
    d = m.shape[0]
    w = scipy.linalg.eigvals(m)
    radius = float(np.max(np.abs(w))) if d else 0.0
    ctol = cluster_tol if cluster_tol is not None else spectra.default_cluster_tol(radius)
    clusters = spectra.cluster(w, ctol)

    centers = [c for c, _ in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < SEPARATION_FACTOR * ctol:
                raise ValueError(
                    f"eigenvalue clusters {centers[i]:.6g} and {centers[j]:.6g} "
                    f"separated by {gap:.3e} < {SEPARATION_FACTOR} x cluster_tol; "
                    "Jordan structure not certifiable"
                )

    profile = []
    for center, mult in clusters:
        sizes = _block_sizes(m, center, mult)
        profile.append((complex(center), tuple(sizes)))
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
