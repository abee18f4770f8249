"""Dense complex linear algebra kernel shared by every other module.

Plain ``numpy`` arrays (``complex128``) are the working representation of
matrices.  This module pins down the conventions the rest of the package
relies on: column-stacking vectorization, SVD-based nullspace decisions,
the row-major JSON wire format for matrices, and the Hermitian coordinates
in which :func:`eig` decomposes a superoperator.  Inputs are validated
where they enter, not again by internal kernels like nullspace.

Every channel and generator maps Hermitian operators to Hermitian
operators, so in a basis of Hermitian operators its d^2 x d^2 matrix is
real (Wolf, *Quantum Channels & Operations: Guided Tour*, 2012, ch. 6).
:func:`eig` works there: real LAPACK arithmetic costs about half of
complex at d >= 6, and the spectrum comes out closed under conjugation.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

EPS = float(np.finfo(np.float64).eps)
# eig() rejects a matrix whose Hermitian coordinates have an imaginary part
# above HERMITICITY_CUT * n * eps * (largest real part): rounding only.
HERMITICITY_CUT = 16.0


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def require_square(a: np.ndarray) -> np.ndarray:
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a).T)


@functools.cache
def hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(B, B^-1, h)`` for the Hermitian basis of d x d operators.

    The columns of B are vec(E_ii), then vec(E_ij + E_ji) and then
    vec(i(E_ji - E_ij)) for i < j.  They are orthogonal, so
    B^-1 = h B^dag with the column ``h`` of 1 (diagonal) and 1/2 entries,
    and B^-dag = B h^T.  Every entry is 0, +-1, +-i, +-1/2 or +-i/2, so
    each entry of B^-1 M B is a sum of at most four entries of M with exact
    coefficients: the identity stays exactly the identity.  The arrays are
    shared and read-only.
    """
    n = d * d
    b = np.zeros((n, n), dtype=np.complex128)
    rows, cols = np.triu_indices(d, 1)
    upper, lower = rows + cols * d, cols + rows * d  # vec(E_ij), vec(E_ji)
    sym = d + np.arange(rows.size)
    anti = sym + rows.size
    b[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    b[upper, sym] = b[lower, sym] = 1.0
    b[upper, anti], b[lower, anti] = -1j, 1j
    h = np.where(np.arange(n) < d, 1.0, 0.5)[:, None]
    b_inv = h * b.conj().T
    for x in (b, b_inv, h):
        x.flags.writeable = False
    return b, b_inv, h


def eig(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues with left and right eigenvectors of a Hermiticity
    preserving d^2 x d^2 superoperator matrix.

    Returns ``(w, vl, vr)``: ``vr[:, k]`` and ``vl[:, k]`` are the
    unit-norm right and left eigenvectors for ``w[k]``, so
    ``A vr[:, k] = w[k] vr[:, k]`` and ``vl[:, k]^dag A = w[k] vl[:, k]^dag``.
    Exactly ``n`` eigenvalues are returned (with repetition), and non-real
    ones come in exactly conjugate pairs.  The decomposition is the real
    one of R = B^-1 A B in :func:`hermitian_basis` coordinates, mapped back
    by B (right) and B^-dag (left).  Raises ``ValueError`` if ``A`` is not
    square with side d^2, has a non-finite entry or is not Hermiticity
    preserving (R not real up to rounding), and ``np.linalg.LinAlgError``
    if the QR iteration fails to converge; a failure is never silently
    truncated.
    """
    m = require_square(a)
    n = m.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"superoperator side {n} is not a perfect square")
    b, b_inv, h = hermitian_basis(d)
    r = b_inv @ m @ b
    im_max = np.abs(r.imag).max()
    if im_max > HERMITICITY_CUT * n * EPS * np.abs(r.real).max():
        raise ValueError(
            f"matrix is not Hermiticity preserving: imaginary part {im_max:.3e} "
            f"in its Hermitian coordinates"
        )
    w, vl, vr = scipy.linalg.eig(r.real, left=True, right=True, check_finite=False)
    # One product maps both back: B^-dag vl = B (h vl); then unit columns.
    v = b @ np.concatenate((h * vl, vr), axis=1)
    v /= np.sqrt(np.einsum("ij,ij->j", v.conj(), v).real)
    return w, v[:, :n], v[:, n:]


def eigvals(a) -> np.ndarray:
    m = require_square(a)
    return scipy.linalg.eigvals(m)


def default_rank_tolerance(a: np.ndarray, sigma_max: float) -> float:
    # max(rows, cols) * eps * sigma_max: standard, scale-invariant.
    return max(a.shape) * EPS * sigma_max


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


def kronecker_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I (x) x + y (x) I for square d x d ``x`` and ``y``: the matrix of
    X -> x X + X y^T under column-stacking vectorization.

    Equal to the two-``np.kron`` sum entry by entry, written into the
    (d, d, d, d) view directly; at d <= 4 each ``np.kron`` call costs more
    than the whole sum.
    """
    d = x.shape[0]
    out = np.zeros((d, d, d, d), dtype=np.result_type(x, y))
    idx = np.arange(d)
    out[idx, :, idx, :] = x  # block (p, p) of I (x) x
    out[:, idx, :, idx] += y  # entry (i, i) of block (p, q) of y (x) I
    return out.reshape(d * d, d * d)


def commutation_superop(a) -> np.ndarray:
    """Matrix of X -> A X - X A under column-stacking vectorization."""
    m = require_square(a)
    return kronecker_sum(m, -m.T)


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
