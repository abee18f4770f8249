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

Every SVD and symmetric eigensolve is ``numpy.linalg``'s.  Only
:func:`real_eig` calls LAPACK itself: numpy has no eig with left
eigenvectors, so ``dgeev`` is bound through ``ctypes`` (scipy's wrapper
where numpy's wheel bundles no OpenBLAS).  :func:`one_blas_thread` limits
the OpenBLAS of both to one thread.  :func:`eig_stack` takes a stack at
once but calls ``dgeev`` once per matrix, into one stacked array that a
single pass turns into every eigenvalue's overlap, and :func:`anchored_svds`
one SVD call per stack: each matrix gets its batch of one's bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# eig() rejects a matrix whose Hermitian coordinates have an imaginary part above
# HERMITICITY_CUT * n * eps * max(largest real part, TINY): rounding only, which below
# the smallest normal number TINY is absolute, in units of eps * TINY = 2^-1074.
HERMITICITY_CUT = 16.0
TINY = float(np.finfo(np.float64).tiny)


class ConsistencyError(RuntimeError):
    """Cross-module disagreement (clustering vs nullspace dimensions)."""


# What a step over a stack records against the one item that raised it
ERRORS = (ValueError, np.linalg.LinAlgError, ConsistencyError)


def each(call, items) -> list:
    """``call(item)`` for each item, in order, or the ``ERRORS`` exception it raised;
    an item that is an exception already stays as it is.  The one per-subject error path."""
    outcomes = list(items)
    for k, item in enumerate(outcomes):
        try:
            outcomes[k] = item if isinstance(item, Exception) else call(item)
        except ERRORS as exc:
            outcomes[k] = exc
    return outcomes


def over_stack(step, items: list) -> list:
    """``items`` with each one that is not an exception replaced, in order, by
    its outcome of a single ``step`` call on all of them."""
    live = [item for item in items if not isinstance(item, Exception)]
    done = iter(step(live) if live else ())
    return [item if isinstance(item, Exception) else next(done) for item in items]


def one(outcomes: list):
    """The outcome of a batch of one, raised if it is an exception."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    return np.asarray(a).swapaxes(-1, -2).conj()


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


# dgeev of the ILP64 OpenBLAS that numpy's wheel bundles, bound through numpy's
# LAPACK module, which links it: importing scipy.linalg costs more than a small
# analyze.  Like scipy's wrapper, a call keeps the GIL.
try:
    from numpy.linalg import _umath_linalg
    _LAPACK = openblas_symbol(ctypes.PyDLL(_umath_linalg.__file__), "dgeev_64_")
except (ImportError, OSError):
    _LAPACK = None  # a numpy without it: scipy's wrapper
# Arguments go by reference as ctypes objects, integers as int64, each CHARACTER with
# its length; no argtypes, whose conversions add 1-2 us to a 5-30 us call at n <= 16.
if _LAPACK is not None:
    _LAPACK.restype = None
_LOCK, _ONE = threading.Lock(), ctypes.c_size_t(1)
# A call prebuilds its arguments on buffers of its own, kept by _kept for each side of at
# most KEPT_ENTRIES entries (n = d^2 <= 64: 8 sides): a rebuild costs about a dgeev at n = 9.
KEPT_ENTRIES = 64 * 64


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _buffer(shape: tuple) -> tuple[np.ndarray, ctypes.c_void_p]:
    """A zeroed Fortran-order float64 array on ctypes memory, cheap to
    address, and a pointer to it."""
    block = (ctypes.c_double * max(1, math.prod(shape)))()
    ptr = ctypes.c_void_p(ctypes.addressof(block))
    ptr.block = block
    return np.frombuffer(block, np.float64, math.prod(shape)).reshape(shape, order="F"), ptr


def _kept(build):
    cached = functools.cache(build)
    return lambda n: (cached if n * n <= KEPT_ENTRIES else build)(n)


def _checked(routine: str, *out):
    """A LAPACK routine's outputs without the trailing ``info``, which must be 0."""
    if out[-1]:  # > 0: no convergence; < 0: an illegal argument
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={out[-1]})")
    return out[:-1]


def scipy_linalg(user: str):
    """``scipy.linalg`` for ``user``: only a test extra, not a runtime dependency."""
    try:
        import scipy.linalg
    except ImportError as exc:
        raise ImportError(f"{user} needs scipy, which oqspectra does not install") from exc
    return scipy.linalg


@functools.cache
def _scipy_lapack():
    """scipy's ``dgeev`` and its cached workspace query, for a numpy without the OpenBLAS."""
    routine, query = scipy_linalg("a numpy without its bundled OpenBLAS").get_lapack_funcs(
        ("geev", "geev_lwork"), dtype=np.float64)
    return routine, functools.cache(lambda n: int(_checked("query", *query(n))[0]))


@_kept
def _geev_call(n: int) -> tuple:
    """dgeev's arguments at side n, with both eigenvector sets into the columns
    wr, wi, vl, vr, and a workspace of the optimal size that a query reports."""
    (a, pa), (out, po), (probe, pw) = _buffer((n, n)), _buffer((n, 2 * n + 2)), _buffer((1,))
    r, info = _int(n), ctypes.c_int64()
    wi, vl, vr = (ctypes.c_void_p(po.value + 8 * k) for k in (n, 2 * n, (n + 2) * n))

    def args(work, lwork):
        return (b"V", b"V", r, pa, r, po, wi, vl, r, vr, r, work, lwork, ctypes.byref(info),
                _ONE, _ONE)

    _LAPACK(*args(pw, _int(-1)))  # lwork = -1: the query
    _checked("dgeev workspace query", info.value)
    size = max(1, int(probe[0]))
    return args(_buffer((size,))[1], _int(size)), a, out, info


def _dgeev(a: np.ndarray, out: np.ndarray) -> tuple:
    """``(wr, wi, vl, vr, info)`` of ``dgeev`` as scipy's ``flapack.dgeev`` returns them, in
    the rows of the (2n + 2, n) ``out``: wr, wi, the columns of vl, then those of vr."""
    n = a.shape[0]
    if _LAPACK is None:
        geev, lwork = _scipy_lapack()
        *values, vl, vr, info = geev(a, lwork=lwork(n))
        out[:2], out[2:n + 2], out[n + 2:] = values, vl.T, vr.T
    else:
        args, buf, kept, code = _geev_call(n)
        with _LOCK:  # the buffers are shared, and threads may switch between these lines
            buf[...] = a
            _LAPACK(*args)
            out[...], info = kept.T, code.value
    return out[0], out[1], out[2:n + 2].T, out[n + 2:].T, info


@functools.cache
def _blas_threads(module) -> tuple:
    """``(get, set)`` of the thread count of the OpenBLAS that the extension
    ``module`` links, looked up once; ``(None, None)`` where it has none."""
    lib = ctypes.PyDLL(module.__file__)
    return tuple(openblas_symbol(lib, f"openblas_{op}_num_threads") for op in ("get", "set"))


@contextlib.contextmanager
def one_blas_thread():
    """Limit to one thread the OpenBLAS that numpy's LAPACK module links and,
    whenever scipy's is imported, scipy's, and put the previous counts back
    on exit.  Where ``dgeev`` is scipy's, scipy is bound first, so that the
    ``dgeev`` run inside is limited too."""
    if _LAPACK is None:
        _scipy_lapack()
    modules = (sys.modules.get(name) for name in ("numpy.linalg._umath_linalg",
                                                  "scipy.linalg._flapack"))
    controls = [c for c in map(_blas_threads, filter(None, modules)) if None not in c]
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def real_eig(r: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """``(wr + 1j wi, vl, vr)`` of a finite real square matrix, bit for bit
    ``scipy.linalg.lapack.dgeev``: float64 vl and vr, where a conjugate pair
    at k, k + 1 (wi[k] > 0) holds Re v in column k and Im v in column k + 1;
    views of ``out`` (:func:`_dgeev`), or of a fresh array."""
    n = r.shape[0]
    out = np.empty((2 * n + 2, n)) if out is None else out
    wr, wi, vl, vr = _checked("dgeev", *_dgeev(r, out))
    return wr + 1j * wi, vl, vr


@dataclass(frozen=True, eq=False)
class Spectrum:
    """:func:`eig` of a d^2 x d^2 matrix M; read, never modify.

    ``values``, ``vl`` and ``vr`` are :func:`real_eig` of the real
    R = B^-1 M B (:func:`hermitian_basis`), pairs packed (Re v, Im v): only this
    module reads that layout.  ``real`` is the real R' = U^dag M U in the orthonormal
    basis U = B diag(sqrt_h), ``sqrt_h`` = sqrt h, so R' - cI has the singular values
    of M - cI and eigenvectors v = vr / sqrt_h, w = vl sqrt_h (:meth:`eigenvectors`).
    ``overlap`` is |w^H v| / (|w| |v|) of each eigenvalue, M's own and 1/kappa of
    Bauer-Fike (a pair's at both its columns).
    """

    values: np.ndarray
    real: np.ndarray
    vl: np.ndarray
    vr: np.ndarray
    sqrt_h: np.ndarray
    overlap: np.ndarray
    _svds: dict = field(default_factory=dict, init=False, repr=False)

    def eigenvectors(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit right and left eigenvectors v, w of R' at the eigenvalue indices ``k``, a
        pair's conjugate included, complex if one is off the axis: a pair at j, j + 1 packs
        Re v in column j and Im v in j + 1.  Only the selected columns are unpacked."""
        sign, s = np.sign(self.values.imag[k]), self.sqrt_h[:, None]  # 1 above the axis
        j, i = k - (sign < 0), k + (sign > 0)  # the columns of Re v and Im v
        vw = np.array((self.vr[:, j] / s, self.vl[:, j] * s))
        if sign.any():
            vw = vw + 1j * sign * np.array((self.vr[:, i] / s, self.vl[:, i] * s))
        vw /= np.sqrt(np.add.reduce((vw.conj() * vw).real, 1, keepdims=True))
        return vw[0], vw[1]

    def to_matrix(self, cols: np.ndarray) -> np.ndarray:
        """U cols: columns in the coordinates of R' as vectorized operators."""
        return (hermitian_basis(math.isqrt(self.values.size))[0] * self.sqrt_h) @ cols

    def null_space(self, center: complex, tol: float,
                   vectors: bool = False) -> tuple[int, np.ndarray | None]:
        """Dimension of Null(R' - center I), by :func:`numerical_rank` at
        ``tol`` of one values-only SVD per center, kept for later calls, and
        with ``vectors`` an orthonormal basis of it in the coordinates of R':
        the trailing right singular vectors of an SVD with vectors, which only
        a read of a ``.basis`` asks for."""
        n, s = self.values.size, self._svds.get(center)
        if s is None or vectors:
            shifted = self.real.astype(np.result_type(self.real, center))  # a copy
            shifted.flat[::n + 1] -= center
        if s is None:
            s = self._svds[center] = np.linalg.svd(shifted, compute_uv=False)
        dim = n - numerical_rank(s, (n, n), tol)
        return dim, np.linalg.svd(shifted)[2][n - dim:].conj().T if vectors else None


def eig(a) -> Spectrum:
    """The :class:`Spectrum` of a Hermiticity-preserving d^2 x d^2 matrix,
    the batch of one of :func:`eig_stack`.

    Exactly ``n`` eigenvalues are returned (with repetition), and non-real
    ones come in exactly conjugate pairs.  Raises ``ValueError`` if ``a`` is
    not square with side d^2, has a non-finite entry or is not Hermiticity
    preserving (R not real up to rounding), and ``np.linalg.LinAlgError``
    if the QR iteration fails to converge; a failure is never silently
    truncated.
    """
    return one(eig_stack(np.asarray(a)[None]))


def eig_stack(stack) -> list:
    """:func:`eig` of each matrix of a (k, n, n) stack, or the ``ERRORS``
    exception it raised: :func:`real_eig` per matrix, the rest per stack, and
    the ValueError of a bad shape (n not a square) or a non-finite entry too."""
    m = np.asarray(stack, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or math.isqrt(m.shape[2]) ** 2 != m.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack with n a perfect square, got shape {m.shape}")
    n = m.shape[2]
    d = math.isqrt(n)
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    b, b_inv, h = hermitian_basis(d)
    r = b_inv @ m @ b
    im_max = np.abs(r.imag).max(axis=(1, 2))
    cuts = HERMITICITY_CUT * n * EPS * np.maximum(np.abs(r.real).max(axis=(1, 2)), TINY)
    sqrt_h = np.sqrt(h)
    real = r.real * (sqrt_h.T / sqrt_h)
    out = np.zeros((len(m), 2 * n + 2, n))  # each matrix's dgeev, written in place

    def decomposed(k: int) -> tuple:
        if im_max[k] > cuts[k]:
            raise ValueError(f"matrix is not Hermiticity preserving: imaginary part "
                             f"{im_max[k]:.3e} in its Hermitian coordinates")
        return real_eig(r[k].real, out[k])

    outcomes = each(decomposed, range(len(m)))
    for k in [k for k, outcome in enumerate(outcomes) if isinstance(outcome, Exception)]:
        out[k, 2:n + 2] = out[k, n + 2:] = np.eye(n)  # unit vectors keep the pass finite
    overlap = _overlaps(out, h[:, 0])
    return [outcome if isinstance(outcome, Exception) else
            Spectrum(outcome[0], real[k], *outcome[1:], sqrt_h[:, 0], overlap[k])
            for k, outcome in enumerate(outcomes)]


def _overlaps(out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``overlap`` of each column of each :func:`_dgeev` block of ``out``, every term a
    BLAS dot: |v|^2 = (vr / h).vr and |w|^2 = (vl h).vl for v = vr / sqrt h, w = vl sqrt h,
    and w.v = vl.vr, summed over a pair's columns, with the pair's cross terms."""
    k, _, n = out.shape
    wi, vl, vr = out[:, 1], out[:, 2:n + 2], out[:, n + 2:]  # row j: column j of vl, vr
    sums = np.zeros((4, k, n))  # |v|^2, |w|^2, Re and Im w^H v
    sums[0], sums[1], sums[2] = _dots(vr / h, vr), _dots(vl * h, vl), _dots(vl, vr)
    # A pair at rows j, j + 1 has v = a + ib, w = c + id, w^H v = (c.a + d.b) + i(c.b - d.a)
    pair = wi[:, :-1] > 0
    sums[:3, :, :-1] += sums[:3, :, 1:] * pair
    sums[3, :, :-1] = (_dots(vl[:, :-1], vr[:, 1:]) - _dots(vl[:, 1:], vr[:, :-1])) * pair
    sums[:, :, 1:] = np.where(pair, sums[:, :, :-1], sums[:, :, 1:])  # the conjugate's too
    return np.hypot(sums[2], sums[3]) / np.sqrt(sums[0] * sums[1])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_j . y_j for each row j of each matrix of two stacks: numpy's matmul of
    1 x n by n x 1, a BLAS dot each."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


class Decomposed:
    """Base of channels and generators: ``superop`` decomposed once by
    :func:`eig`, on first read, and shared by every caller."""

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        return eig(self.superop)


def decompose(subjects: list) -> list:
    """``subjects``, each :class:`Decomposed` one without a spectrum decomposed
    by one :func:`eig_stack`, or replaced by the exception it raised there."""
    pending = [s for s in subjects if isinstance(s, Decomposed) and "spectrum" not in vars(s)]
    failed = {}
    for s, spectrum in zip(pending, eig_stack([s.superop for s in pending]) if pending else ()):
        if isinstance(spectrum, Exception):
            failed[id(s)] = spectrum
        else:
            s.spectrum = spectrum
    return [failed.get(id(s), s) for s in subjects]


def anchored_svds(subjects: list) -> list:
    """``subjects``, decomposed, each keeping for :meth:`Spectrum.null_space` the values-only
    SVD of R' minus its anchor, all from one SVD of their stack (or none if it fails)."""
    stack = np.stack([s.spectrum.real for s in subjects])
    i = np.arange(stack.shape[1])
    stack[:, i, i] -= [[s.kind.anchor] for s in subjects]  # as null_space shifts one
    with contextlib.suppress(np.linalg.LinAlgError):
        for s, values in zip(subjects, np.linalg.svd(stack, compute_uv=False)):
            s.spectrum._svds[s.kind.anchor] = values
    return subjects


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
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
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
    """I (x) x + y (x) I for square d x d ``x`` and ``y`` (or stacks): the
    matrix of X -> x X + X y^T under column-stacking vectorization.

    Equal to the two-``np.kron`` sum entry by entry, written into the
    (d, d, d, d) view directly; at d <= 4 each ``np.kron`` call costs more
    than the whole sum.
    """
    d, lead = x.shape[-1], x.shape[:-2]
    out = np.zeros((*lead, d, d, d, d), dtype=np.result_type(x, y))
    idx = np.arange(d)
    out[..., idx, :, idx, :] = x  # block (p, p) of I (x) x
    out[..., :, idx, :, idx] += y  # entry (i, i) of block (p, q) of y (x) I
    return out.reshape(*lead, d * d, d * d)


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
