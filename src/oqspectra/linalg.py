"""Dense complex linear algebra kernel shared by every other module.

Plain ``numpy`` arrays (``complex128``) are the working representation of
matrices.  This module pins down the conventions the rest of the package
relies on: column-stacking vectorization, SVD-based rank and nullspace
decisions, and the row-major JSON wire format for matrices.  Inputs are
validated where they enter, not again by internal kernels like nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Residual contract for eig(): every returned pair satisfies
# ||A v - w v||_2 <= EIG_RESIDUAL_KAPPA(n) * eps * ||A||_2 for unit v.
# LAPACK's QR iteration is backward stable with a low-degree polynomial
# constant; 16*n leaves headroom up to n = d^2 = 144.
EPS = float(np.finfo(np.float64).eps)


def eig_residual_kappa(n: int) -> float:
    return 16.0 * max(1, n)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_square(a: np.ndarray) -> np.ndarray:
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a).T)


def eig(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues with left and right eigenvectors of a square matrix.

    Returns ``(w, vl, vr)``: ``vr[:, k]`` and ``vl[:, k]`` are the
    unit-norm right and left eigenvectors for ``w[k]``, so
    ``A vr[:, k] = w[k] vr[:, k]`` and ``vl[:, k]^dag A = w[k] vl[:, k]^dag``.
    Exactly ``n`` eigenvalues are returned (with repetition).  Raises
    ``np.linalg.LinAlgError`` if the QR iteration fails to converge; a
    failure is never silently truncated.
    """
    m = require_square(a)
    return scipy.linalg.eig(m, left=True, right=True)


def eigvals(a) -> np.ndarray:
    m = require_square(a)
    return scipy.linalg.eigvals(m)


def singular_values(a) -> np.ndarray:
    m = as_complex_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return scipy.linalg.svdvals(m)


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank together with the absolute cutoff that produced it."""

    tolerance: float
    rank: int


def default_rank_tolerance(a: np.ndarray, sigma_max: float) -> float:
    # max(rows, cols) * eps * sigma_max: standard, scale-invariant.
    return max(a.shape) * EPS * sigma_max


def numerical_rank(a, tol: float = 0.0) -> RankDecision:
    """Count singular values above the cutoff.

    ``tol`` is an absolute singular-value cutoff; ``tol = 0`` selects the
    default ``max(rows, cols) * eps * sigma_max``.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    m = as_complex_matrix(a)
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return RankDecision(tolerance=tol, rank=0)
    cutoff = tol if tol > 0 else default_rank_tolerance(m, s[0])
    return RankDecision(tolerance=cutoff, rank=int(np.sum(s > cutoff)))


def nullspace(a, tol: float = 0.0, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace, as matrix columns.

    ``tol`` is relative to the largest singular value; ``tol = 0`` uses the
    default rank cutoff.  ``scale`` is a floor for the reference the cutoff
    is measured against (useful when the matrix itself may be rounding
    noise left over from a cancellation).  The returned array has shape
    ``(cols, k)`` with ``k = cols - rank``.
    """
    m = np.asarray(a)
    if m.size == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    # A tall input's thin SVD already has the square V; the full U factor
    # of a tall commutation stack would take (rows x rows) memory unread.
    _, s, vh = scipy.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    smax = s[0] if s.size else 0.0
    ref = max(smax, scale) if scale is not None else smax
    if ref == 0.0:
        return np.eye(m.shape[1], dtype=np.complex128)
    cutoff = tol * ref if tol > 0 else default_rank_tolerance(m, ref)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def kron(a, b) -> np.ndarray:
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def vec(x) -> np.ndarray:
    """Column-stacking vectorization: vec(A X B) = (B^T (x) A) vec(X)."""
    return as_complex_matrix(x).flatten(order="F")


def unvec(v, rows: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if rows is None:
        rows = int(round(np.sqrt(v.size)))
        if rows * rows != v.size:
            raise ValueError(f"cannot reshape length {v.size} to a square matrix")
    cols = v.size // rows
    return v.reshape((rows, cols), order="F")


def commutation_superop(a) -> np.ndarray:
    """Matrix of X -> A X - X A under column-stacking vectorization."""
    m = require_square(a)
    ident = np.eye(m.shape[0], dtype=np.complex128)
    return np.kron(ident, m) - np.kron(m.T, ident)


def orthonormal_columns(cols: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, dropping numerically dependent columns."""
    m = np.asarray(cols)
    if m.size == 0:
        return m.reshape(m.shape[0], 0)
    u, s, _ = scipy.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank]


def matrix_to_json(a) -> dict:
    """Row-major JSON encoding: {"rows", "cols", "entries": [[re, im], ...]}."""
    m = as_complex_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in m.flatten(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols, entries = int(obj["rows"]), int(obj["cols"]), obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    pairs = np.asarray(entries)  # ValueError on ragged nesting
    if pairs.dtype.kind not in "biuf" or pairs.shape != (rows * cols, 2):
        raise ValueError(
            f"{rows}x{cols} matrix needs {rows * cols} numeric [re, im] entries, "
            f"got an array of {pairs.dtype} with shape {pairs.shape}"
        )
    flat = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)
    return as_complex_matrix(flat.reshape((rows, cols), order="C"))
