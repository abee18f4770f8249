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

import ctypes
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

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


def openblas_symbol(lib, name: str):
    """``lib``'s OpenBLAS function ``name``, or None: the wheels' builds prefix
    ``scipy_``, and ILP64 builds (64-bit integers) append ``64_``."""
    names = [prefix + name + suffix for prefix in ("scipy_", "") for suffix in ("64_", "")]
    return next((getattr(lib, n) for n in names if hasattr(lib, n)), None)


# dgeev, dgesdd and dsyevr of the ILP64 OpenBLAS that numpy's wheel bundles,
# bound through numpy's LAPACK module, which links it: importing scipy.linalg
# costs more than a small analyze.  Like scipy's wrappers, a call keeps the GIL.
try:
    from numpy.linalg import _umath_linalg
    _LAPACK = [openblas_symbol(ctypes.PyDLL(_umath_linalg.__file__), name + "_64_")
               for name in ("dgeev", "dgesdd", "dsyevr")]
except (ImportError, OSError):
    _LAPACK = [None]
_LAPACK = None if None in _LAPACK else _LAPACK  # a numpy without them: scipy's wrappers
# Arguments go by reference as ctypes objects, integers as int64, each CHARACTER with
# its length; no argtypes, whose conversions add 1-2 us to a 5-30 us call at n <= 16.
for _fn in _LAPACK or ():
    _fn.restype = None
_LOCK, _ONE, _ZERO = threading.Lock(), ctypes.c_size_t(1), ctypes.byref(ctypes.c_double(0.0))
# A call prebuilds its arguments on buffers of its own, kept by _kept for the KEPT_SHAPES
# latest shapes of at most KEPT_ENTRIES entries: a rebuild costs about a dgeev at n = 9.
KEPT_SHAPES, KEPT_ENTRIES = 16, 64 * 64


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _buffer(shape: tuple, dtype=np.float64) -> tuple[np.ndarray, ctypes.c_void_p]:
    """A zeroed Fortran-order array on ctypes memory, cheap to address, and a pointer to it."""
    block = (ctypes.c_double * max(1, math.prod(shape)))()
    ptr = ctypes.c_void_p(ctypes.addressof(block))
    ptr.block = block
    return np.frombuffer(block, dtype, math.prod(shape)).reshape(shape, order="F"), ptr


def _kept(build):
    cached = functools.lru_cache(maxsize=KEPT_SHAPES)(build)
    return lambda m, n, *rest: (cached if m * n <= KEPT_ENTRIES else build)(m, n, *rest)


def _checked(routine: str, *out):
    """A LAPACK routine's outputs without the trailing ``info``, which must be 0."""
    if out[-1]:  # > 0: no convergence; < 0: an illegal argument
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={out[-1]})")
    return out[:-1]


def _prebuilt(routine, args, info, *workspaces) -> tuple:
    """``args(*pairs)``: a (buffer, size) pair per workspace dtype, of the
    optimal size that a query with (1-entry buffer, -1) pairs reports."""
    probes = [_buffer((1,), dtype) for dtype in workspaces]
    routine(*args(*[(ptr, _int(-1)) for _, ptr in probes]))
    _checked("LAPACK workspace query", info.value)
    sizes = [max(1, int(x[0])) for x, _ in probes]
    return args(*[(_buffer((k,), x.dtype)[1], _int(k)) for k, (x, _) in zip(sizes, probes)])


@functools.cache
def _scipy_lapack(name: str):
    """scipy's ``d<name>`` and its cached workspace query, for a numpy without the OpenBLAS."""
    import scipy.linalg
    routine, query = scipy.linalg.get_lapack_funcs((name, name + "_lwork"), dtype=np.float64)
    return routine, functools.cache(lambda *a: [int(x) for x in _checked("query", *query(*a))])


@_kept
def _geev_call(n: int, _: int) -> tuple:
    """dgeev at side n with both eigenvector sets, into the columns wr, wi, vl, vr."""
    (a, pa), (out, po) = _buffer((n, n)), _buffer((n, 2 * n + 2))
    r, info = _int(n), ctypes.c_int64()
    wi, vl, vr = (ctypes.c_void_p(po.value + 8 * k) for k in (n, 2 * n, (n + 2) * n))
    return _prebuilt(_LAPACK[0], lambda work: (
        b"V", b"V", r, pa, r, po, wi, vl, r, vr, r, *work, ctypes.byref(info), _ONE, _ONE),
        info, np.float64), a, out, info


def _dgeev(a: np.ndarray) -> tuple:
    """``(wr, wi, vl, vr, info)`` of ``dgeev``, fresh as scipy's ``flapack.dgeev`` returns them."""
    if _LAPACK is None:
        geev, lwork = _scipy_lapack("geev")
        return geev(a, lwork=lwork(a.shape[0])[0])
    n = a.shape[0]
    args, buf, out, info = _geev_call(n, n)
    with _LOCK:  # the buffers are shared, and threads may switch between these lines
        buf[...] = a
        _LAPACK[0](*args)
        out = out.copy(order="F")
        return out[:, 0], out[:, 1], out[:, 2:n + 2], out[:, n + 2:], info.value


@_kept
def _gesdd_call(m: int, n: int, vectors: bool) -> tuple:
    """dgesdd of an m x n matrix into s, with ``vectors`` also the full U, V^T."""
    k, rm, rn, info = min(m, n), _int(m), _int(n), ctypes.c_int64()
    (a, pa), (s, ps), (_, piw) = _buffer((m, n)), _buffer((k,)), _buffer((8 * k,), np.int64)
    (u, pu), (vt, pvt) = (_buffer((m, m)), _buffer((n, n))) if vectors else ((s, ps), (s, ps))
    jobz, ldu, ldvt = (b"A", rm, rn) if vectors else (b"N", _int(1), _int(1))
    return _prebuilt(_LAPACK[1], lambda work: (
        jobz, rm, rn, pa, rm, ps, pu, ldu, pvt, ldvt, *work, piw, ctypes.byref(info), _ONE),
        info, np.float64), a, u, s, vt, info


def _dgesdd(a: np.ndarray, vectors: bool) -> tuple:
    """``(u, s, vt, info)`` of ``dgesdd`` as scipy's ``flapack.dgesdd``; U, V^T with ``vectors``."""
    if _LAPACK is None:
        gesdd, lwork = _scipy_lapack("gesdd")
        return gesdd(a, compute_uv=vectors, lwork=lwork(*a.shape, vectors, True)[0])
    args, buf, u, s, vt, info = _gesdd_call(*a.shape, vectors)
    with _LOCK:
        buf[...] = a
        _LAPACK[1](*args)
        u, vt = (u.copy(order="F"), vt.copy(order="F")) if vectors else (None, None)
        return u, s.copy(), vt, info.value


@_kept
def _syevr_call(n: int, _: int, count: int) -> tuple:
    """dsyevr at side n into w and m: all eigenvalues, or ``count`` and their vectors z."""
    r, m, info = _int(n), ctypes.c_int64(), ctypes.c_int64()
    (a, pa), (w, pw), (z, pz) = _buffer((n, n)), _buffer((n,)), _buffer((n, max(count, 1)))
    jobz, which, iu = (b"V", b"I", _int(count)) if count else (b"N", b"A", r)
    return _prebuilt(_LAPACK[2], lambda work, iwork: (
        jobz, which, b"L", r, pa, r, _ZERO, _ZERO, _int(1), iu, _ZERO, ctypes.byref(m), pw, pz, r,
        _buffer((2 * n,), np.int64)[1], *work, *iwork, ctypes.byref(info), _ONE, _ONE, _ONE),
        info, np.float64, np.int64), a, w, z, m, info


def _dsyevr(a: np.ndarray, count: int) -> tuple:
    """``(w, z, m, isuppz, info)`` of ``dsyevr`` (lower) as scipy's ``flapack.dsyevr``."""
    if _LAPACK is None:
        (syevr, lwork), n = _scipy_lapack("syevr"), a.shape[0]
        subset = {"compute_v": 1, "range": "I", "il": 1, "iu": count} if count else {"compute_v": 0}
        return syevr(a, lower=1, lwork=lwork(n, 1)[0], liwork=lwork(n, 1)[1], **subset)
    args, buf, w, z, m, info = _syevr_call(*a.shape, count)
    with _LOCK:
        buf[...] = a
        _LAPACK[2](*args)
        return w.copy(), z.copy(order="F") if count else None, m.value, None, info.value


def real_eig(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(wr + 1j wi, vl, vr)`` of a finite real square matrix, bit for bit
    ``scipy.linalg.lapack.dgeev``: float64 vl and vr, where a conjugate pair
    at k, k + 1 (wi[k] > 0) holds Re v in column k and Im v in column k + 1."""
    wr, wi, vl, vr = _checked("dgeev", *_dgeev(r))
    return wr + 1j * wi, vl, vr


def real_svd(a: np.ndarray, vectors: bool):
    """``(u, s, vh)`` of a finite real matrix by ``dgesdd``, bit for bit
    ``scipy.linalg.svd(a)``, or ``(None, s, None)`` with ``svdvals(a)``."""
    u, s, vh = _checked("dgesdd", *_dgesdd(a, vectors))
    return (u, s, vh) if vectors else (None, s, None)


def real_eigh(a: np.ndarray, count: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """The ascending eigenvalues of a finite real symmetric matrix by ``dsyevr``,
    bit for bit ``scipy.linalg.eigh``, or with ``count`` the ``count`` smallest
    and their eigenvectors: ``(w, v)``, v None without ``count``."""
    w, v, m, _ = _checked("dsyevr", *_dsyevr(a, count))
    return w[:m], v if count else None


def svd(a: np.ndarray, full_matrices: bool = True):
    """``np.linalg.svd(a)``: the complex SVDs and the thin real one of the
    attractor's basis, the package's only SVDs besides :func:`real_svd`."""
    return np.linalg.svd(a, full_matrices=full_matrices)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """:func:`eig` of a d^2 x d^2 matrix M; read, never modify.

    ``values``, ``vl`` and ``vr`` are :func:`real_eig` of the real
    R = B^-1 M B (:func:`hermitian_basis`), pairs packed (Re v, Im v).  ``real`` is
    the real R' = U^dag M U in the orthonormal basis U = B diag(sqrt_h), ``sqrt_h`` =
    sqrt h, so R' - cI has the singular values of M - cI and eigenvectors
    vr / sqrt_h, vl sqrt_h.
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
            shifted = self.real.astype(np.result_type(self.real, center))  # a copy
            shifted.flat[::n + 1] -= center
            real = np.isrealobj(shifted)  # else off the real axis: complex, with vectors
            u, s, vh = real_svd(shifted, vectors) if real else svd(shifted)
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
    _, s, vh = svd(m, full_matrices=m.shape[0] < m.shape[1])
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
    entries = m.ravel().view(np.float64).reshape(-1, 2).tolist()
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}


def matrices_from_json(objs: list) -> np.ndarray:
    """The (K, rows, cols) stack of K >= 1 JSON matrices of one shape, read
    by one ``np.asarray`` and validated once."""
    try:
        shapes = {(type(obj["rows"]), type(obj["cols"]), obj["rows"], obj["cols"]) for obj in objs}
        pairs = np.asarray([obj["entries"] for obj in objs])  # ValueError on ragged nesting
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if len(shapes) != 1:
        raise ValueError(f"expected a nonempty list of matrices of one shape, got {len(shapes)}")
    (*types, rows, cols), = shapes
    if types != [int, int] or rows <= 0 or cols <= 0:  # not a float, bool or string
        raise ValueError(f"matrix rows and cols must be integers > 0, got {rows!r} and {cols!r}")
    if pairs.dtype.kind not in "biuf" or pairs.shape != (len(objs), rows * cols, 2):
        raise ValueError(f"{rows}x{cols} matrices need {rows * cols} numeric [re, im] entries "
                         f"each, got an array of {pairs.dtype} with shape {pairs.shape}")
    m = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m.reshape((-1, rows, cols))
