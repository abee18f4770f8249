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
:func:`eig` works there, and its :class:`Spectrum` stays there: only
:meth:`Spectrum.to_matrix` maps columns back to matrix coordinates, for the
bases and projections a caller reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

EPS = float(np.finfo(np.float64).eps)
# Bound once: scipy's wrappers cost as much as LAPACK itself at n <= 16.
_dgeev, _dgeev_lwork, _dgesdd, _dgesdd_lwork = scipy.linalg.get_lapack_funcs(
    ("geev", "geev_lwork", "gesdd", "gesdd_lwork"), dtype=np.float64)
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


@functools.cache
def _lwork(query, *args) -> int:
    """The optimal workspace of one call shape, queried once per process."""
    return int(_checked("workspace query", *query(*args))[0])


def _checked(routine: str, *out):
    """A LAPACK routine's outputs without the trailing ``info``, which must be 0."""
    if out[-1]:  # > 0: no convergence; < 0: an illegal argument
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={out[-1]})")
    return out[:-1]


def real_eig(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(w, vl, vr)`` of a finite real square matrix by ``dgeev``, bit for
    bit ``scipy.linalg.eig(r, left=True, right=True, check_finite=False)``."""
    wr, wi, vl, vr = _checked("dgeev", *_dgeev(r, lwork=_lwork(_dgeev_lwork, r.shape[0])))
    if wi.any():  # else vl, vr stay real; a pair at k, k + 1 (wi[k] > 0) holds Re v, Im v
        k = np.flatnonzero(wi > 0)
        vl, vr = vl.astype(np.complex128), vr.astype(np.complex128)
        for v in (vl, vr):
            v.imag[:, k] = v.real[:, k + 1]
            v[:, k + 1] = v[:, k].conj()
    return wr + 1j * wi, vl, vr


def real_svd(a: np.ndarray, vectors: bool):
    """``(u, s, vh)`` of a finite real matrix by ``dgesdd``, bit for bit
    ``scipy.linalg.svd(a)``, or ``(None, s, None)`` with ``svdvals(a)``."""
    lwork = _lwork(_dgesdd_lwork, *a.shape, vectors, True)
    u, s, vh = _checked("dgesdd", *_dgesdd(a, compute_uv=vectors, lwork=lwork))
    return (u, s, vh) if vectors else (None, s, None)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """:func:`eig` of a d^2 x d^2 matrix M; read, never modify.

    ``values``, ``vl`` and ``vr`` are :func:`real_eig` of the real
    R = B^-1 M B (:func:`hermitian_basis`).  ``real`` is the real R' = U^dag M U
    in the orthonormal basis U = B diag(sqrt_h), ``sqrt_h`` = sqrt h, so R' - cI
    has the singular values of M - cI and eigenvectors vr / sqrt_h, vl sqrt_h.
    """

    values: np.ndarray
    real: np.ndarray
    vl: np.ndarray
    vr: np.ndarray
    sqrt_h: np.ndarray
    _svds: dict = field(default_factory=dict, init=False, repr=False)

    def to_matrix(self, cols: np.ndarray) -> np.ndarray:
        """U cols: columns in the coordinates of R' as vectorized operators."""
        return (hermitian_basis(math.isqrt(self.values.size))[0] * self.sqrt_h) @ cols

    def null_space(self, center: complex, tol: float,
                   vectors: bool) -> tuple[int, np.ndarray | None, np.ndarray | None]:
        """Dimension of Null(R' - center I), by :func:`numerical_rank` at
        ``tol``, and with ``vectors`` orthonormal bases, in the coordinates
        of R', of the right and the left eigenvectors at ``center``: the
        trailing right and left singular vectors of one SVD.  One SVD per
        center, kept for later calls."""
        n = self.values.size
        s, u, vh = self._svds.get(center, (None, None, None))
        if s is None or (vectors and vh is None):
            shifted = self.real - center * np.eye(n)
            real = np.isrealobj(shifted)  # else off the real axis, with vectors: on scipy
            u, s, vh = real_svd(shifted, vectors) if real else scipy.linalg.svd(shifted)
            self._svds[center] = (s, u, vh)
        rank = numerical_rank(s, (n, n), tol)
        if not vectors:
            return n - rank, None, None
        return n - rank, vh[rank:].conj().T, u[:, rank:]


def eig(a) -> Spectrum:
    """The :class:`Spectrum` of a Hermiticity-preserving d^2 x d^2 matrix.

    Exactly ``n`` eigenvalues are returned (with repetition), and non-real
    ones come in exactly conjugate pairs.  Raises ``ValueError`` if ``a`` is
    not square with side d^2, has a non-finite entry or is not Hermiticity
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
    r = r.real
    w, vl, vr = real_eig(r)
    sqrt_h = np.sqrt(h)
    return Spectrum(w, r * (sqrt_h.T / sqrt_h), vl, vr, sqrt_h[:, 0])


class Decomposed:
    """Base of channels and generators: ``superop`` decomposed once by
    :func:`eig`, on first read, and shared by every caller."""

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        return eig(self.superop)


def numerical_rank(s: np.ndarray, shape: tuple[int, ...], tol: float = 0.0,
                   scale: float | None = None) -> int:
    """Count of the descending singular values ``s`` of a ``shape`` matrix
    above ``tol`` (``tol = 0``: the standard, scale-invariant
    max(shape) * eps) times the largest, or ``scale`` if that is larger."""
    ref = max(s[0] if len(s) else 0.0, scale or 0.0)
    return int(np.sum(s > (tol if tol > 0 else max(shape) * EPS) * ref))


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
    return vh[numerical_rank(s, m.shape, tol, scale):].conj().T


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
