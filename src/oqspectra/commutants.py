"""Commutants of operator sets.

The brute-force route stacks the commutation superoperators
C_A = I (x) A - A^T (x) I and takes their joint nullspace: the commutant
basis, and the oracle of the Gram route (:func:`commutant_dimension`), which
reads the dimension off the d^2 x d^2 Hermitian G = sum_A C_A^dag C_A,
whose nullspace is the commutant, in real Hermitian coordinates for the
*-closed sets analysis passes, and falls back when it cannot certify it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg, superop
from .asymptotics import SubspaceBasis
from .linalg import require_square

GRAM_NULL_FACTOR = 10.0  # Gram eigenvalues <= this * d^2 * eps * ref^2 count as null
GRAM_GAP_FACTOR = 1e3  # the first non-null Gram eigenvalue must clear the cut by this


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
    mats = _normalized(np.stack(mats))
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
    P = sum A^dag A, Q = sum A A^dag and S = sum conj(A) (x) A.  Of these
    only X -> PX + XQ can take a Hermitian X to a non-Hermitian one, unless
    P = Q, as for every *-closed set: then G' = U^dag G U in the orthonormal
    Hermitian basis U (as in :func:`linalg.eig`) is real, for float64 LAPACK.
    Squaring the singular values of the stack costs half the digits, so the
    count of small eigenvalues of G' is accepted only when it is certified:
    a gap of ``GRAM_GAP_FACTOR`` above the cut, and null vectors whose
    commutators, computed directly, pass the stack SVD's own cutoff.  P != Q
    beyond rounding, or an uncertified count, falls back to :func:`commutant`.
    """
    a = np.ascontiguousarray(ops, dtype=np.complex128)
    if a.ndim != 3 or a.shape[0] == 0 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a nonempty set of square operators of one dimension")
    a = _normalized(a)
    n_ops, d, n = a.shape[0], a.shape[1], a.shape[1] ** 2
    rows = a.reshape(n_ops * d, d)  # A_k stacked vertically: P = rows^dag rows
    cols = a.transpose(1, 0, 2).reshape(d, n_ops * d)  # side by side: Q = cols cols^dag
    p, q = rows.conj().T @ rows, cols @ cols.conj().T
    if np.abs(p - q).max() > linalg.HERMITICITY_CUT * n * linalg.EPS * np.abs(p).max():
        return commutant(list(a)).dimension  # G' is complex: the set is not *-closed
    s = superop.kraus_to_superop(a)
    u, idx, weights = _hermitian_coordinates(d)
    gram = (linalg.kronecker_sum(p, q.conj()) - s - s.conj().T).view(np.float64).take(idx)
    gram = np.multiply(gram, weights, out=gram).sum(axis=0)  # G' = U^dag G U
    w = np.linalg.eigvalsh(gram)
    ref = np.sqrt(max(w[-1], float(np.max(np.sum(np.abs(a) ** 2, axis=(1, 2))))))
    cut = GRAM_NULL_FACTOR * n * linalg.EPS * ref * ref
    k = int(np.count_nonzero(w <= cut))
    certified = k == n or (k > 0 and w[k] >= GRAM_GAP_FACTOR * cut)
    if certified and k > 1:
        # The identity alone needs no check; other null vectors must pass
        # the stack SVD's cutoff with their commutators computed directly
        v = np.linalg.eigh(gram)[1][:, :k]
        x = (u @ v).T.reshape(k, d, d).transpose(0, 2, 1)  # unvec: column-stacked
        residual = np.linalg.norm(a[:, None] @ x - x @ a[:, None])
        certified = residual <= n_ops * n * linalg.EPS * ref
    if certified:
        return k
    return commutant(list(a)).dimension


def _normalized(a: np.ndarray) -> np.ndarray:
    """``a`` times the exact power of two that brings its largest entry into [0.5, 1):
    no product underflows or overflows (2.0 ** -e would, for a subnormal max)."""
    parts = a.view(np.float64)
    return np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(np.complex128)


@functools.cache
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, idx, weights)``: U = B diag(sqrt h) (:func:`linalg.hermitian_basis`)
    has two nonzeros per column at most, real or imaginary, so a real U^dag G U
    is G.view(float64).take(idx) * weights summed over axis 0, no dense product."""
    b, _, h = linalg.hermitian_basis(d)
    u = b * np.sqrt(h.T)
    j, nonzero = np.arange(d * d), u != 0
    p, q = nonzero.argmax(axis=0), d * d - 1 - nonzero[::-1].argmax(axis=0)  # first, last
    terms = [(p, u[p, j]), (q, np.where(p == q, 0.0, u[q, j]))]
    idx = np.stack([r[:, None] * d * d + c for r, _ in terms for c, _ in terms])
    weights = np.stack([wr.conj()[:, None] * wc for _, wr in terms for _, wc in terms])
    imag = weights.imag != 0  # Re(w g) is Re w Re g, or -Im w Im g
    return u, 2 * idx + imag, np.where(imag, -weights.imag, weights.real)
