"""Quantum-channel representations and conversions.

A channel is held in one or more of three equivalent forms: a Kraus list
{B_k}, a d^2 x d^2 superoperator matrix M, and a Choi matrix C.  The
conventions, fixed once here and shared by every module:

* vectorization is column-stacking, vec(A X B) = (B^T (x) A) vec(X), so the
  superoperator of X -> sum_k B_k X B_k^dag is M = sum_k conj(B_k) (x) B_k;
* the Choi matrix is C = sum_ij Phi(E_ij) (x) E_ij (unnormalized maximally
  entangled pairing, trace d), equivalently C = sum_k |B_k>><<B_k| with
  row-major flattening of the Kraus operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import linalg, spectra
from .linalg import dagger, require_square, vec

DEFAULT_TP_TOL = 1e-8
DEFAULT_CP_TOL = 1e-8
KRAUS_WEIGHT_CUT = 1e-10  # Choi eigenvalues below cut * trace are discarded


class ValidationError(ValueError):
    """Channel validation failure; carries the offending residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(eq=False)
class QuantumChannel(linalg.Decomposed):
    """A CPTP map on d x d operators, immutable after construction.

    At least one representation is present.  Missing representations are
    derived lazily and cached write-once; all cached forms agree to
    round-off because each is computed from the stored one.  The
    eigendecomposition of the superoperator is cached the same way.
    """

    kind: ClassVar[spectra.Kind] = spectra.CHANNEL
    dim: int
    kraus: np.ndarray | None = None  # the (K, d, d) stack of Kraus operators
    _superop: np.ndarray | None = field(default=None, repr=False)
    _choi: np.ndarray | None = field(default=None, repr=False)

    @property
    def superop(self) -> np.ndarray:
        if self._superop is None:
            self._superop = kraus_to_superop(self.kraus)
        return self._superop

    @property
    def choi(self) -> np.ndarray:
        if self._choi is None:
            self._choi = superop_to_choi(self.superop)
        return self._choi

    def kraus_operators(self) -> np.ndarray:
        """Kraus stack, extracting a canonical minimal one from Choi if absent."""
        if self.kraus is None:
            self.kraus = choi_to_kraus(self.choi)
        return self.kraus


def from_kraus(kraus) -> QuantumChannel:
    """Build a channel from Kraus operators, a sequence of d x d matrices or
    their (K, d, d) stack, checking trace preservation (:func:`kraus_channels`).

    Raises :class:`ValidationError` with the residual norm if
    sum_k B_k^dag B_k = F^dag F, F the (K d) x d stack, deviates from the
    identity by more than ``DEFAULT_TP_TOL``.
    """
    try:
        ops = np.asarray(kraus, dtype=np.complex128)
    except ValueError as exc:  # ragged nesting or a non-number
        raise ValueError(f"Kraus operators must be numbers of one dimension: {exc}") from exc
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.size or not np.isfinite(ops).all():
        raise ValueError(f"expected finite square Kraus operators, got shape {ops.shape}")
    return linalg.one(kraus_channels(ops[None]))


def kraus_channels(stacks: np.ndarray) -> list:
    """:func:`from_kraus` of each Kraus stack of a finite complex (k, K, d, d)
    array, in order, with its superoperator, or its :class:`ValidationError`."""
    k, _, d, _ = stacks.shape
    f = stacks.reshape(k, -1, d)
    tp = f.conj().swapaxes(1, 2) @ f - np.eye(d)
    residuals = np.sqrt(np.add.reduce((tp.conj() * tp).real, axis=(1, 2)))  # Frobenius norms
    return [ValidationError("Kraus list is not trace preserving", residual)
            if residual > DEFAULT_TP_TOL else QuantumChannel(dim=d, kraus=ops, _superop=m)
            for ops, m, residual in zip(stacks, kraus_to_superop(stacks), residuals.tolist())]


def from_superop(m, tp_tol: float = DEFAULT_TP_TOL,
                 cp_tol: float = DEFAULT_CP_TOL) -> QuantumChannel:
    """Build a channel from its d^2 x d^2 superoperator matrix.

    The matrix is replaced by its Hermiticity-preserving part, the
    superoperator of the Hermitian part of its Choi matrix, so that the
    deviation accepted within ``cp_tol`` never reaches :func:`linalg.eig`.
    """
    m = require_square(m)
    d = int(round(np.sqrt(m.shape[0])))
    if d * d != m.shape[0]:
        raise ValueError(f"superoperator side {m.shape[0]} is not a perfect square")
    ident = vec(np.eye(d))
    tp = float(np.linalg.norm(dagger(m) @ ident - ident))  # zero iff m preserves traces
    if tp > tp_tol:
        raise ValidationError("superoperator is not trace preserving", tp)
    choi = superop_to_choi(m)
    herm = float(np.linalg.norm(choi - dagger(choi)))
    if herm > cp_tol:
        raise ValidationError("Choi matrix is not Hermitian", herm)
    choi = (choi + dagger(choi)) / 2
    wmin = float(np.linalg.eigvalsh(choi).min())
    if wmin < -cp_tol:
        raise ValidationError("Choi matrix is not positive semidefinite", -wmin)
    return QuantumChannel(dim=d, _superop=choi_to_superop(choi), _choi=choi)


def kraus_to_superop(kraus) -> np.ndarray:
    """M[i*d+a, j*d+b] = sum_k conj(B_k[i, j]) B_k[a, b]: F^dag F for the rows
    F_k = flattened B_k, middle indices swapped (of each, for stacks).
    Inputs validated upstream."""
    b = np.asarray(kraus, dtype=np.complex128)
    d, lead = b.shape[-1], b.shape[:-3]
    f = b.reshape(*lead, -1, d * d)
    m = f.conj().swapaxes(-1, -2) @ f
    return m.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)


def superop_to_choi(m) -> np.ndarray:
    """Reshuffle: Choi[a*d+u, b*d+v] = M[b*d+a, v*d+u]."""
    m = require_square(m)
    d = int(round(np.sqrt(m.shape[0])))
    m4 = m.reshape(d, d, d, d)
    return m4.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def choi_to_superop(c) -> np.ndarray:
    c = require_square(c)
    d = int(round(np.sqrt(c.shape[0])))
    c4 = c.reshape(d, d, d, d)
    return c4.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_to_kraus(choi) -> np.ndarray:
    """Canonical minimal Kraus stack from the Choi eigendecomposition, by
    descending weight.

    Eigenvalues below ``KRAUS_WEIGHT_CUT * trace`` are discarded.
    """
    c = require_square(choi)
    d = int(round(np.sqrt(c.shape[0])))
    w, v = np.linalg.eigh((c + dagger(c)) / 2)
    cut = KRAUS_WEIGHT_CUT * max(float(np.trace(c).real), 1e-300)
    keep = np.flatnonzero(w > cut)[::-1]
    if not keep.size:
        raise ValueError("Choi matrix has no eigenvalue above the weight cut")
    # Column k of v, row-major, is the Kraus operator of weight w[k].
    return (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, d, d)


def channel_to_json(channel: QuantumChannel) -> dict:
    obj: dict = {"dim": channel.dim}
    if channel.kraus is not None:
        obj["kraus"] = [linalg.matrix_to_json(b) for b in channel.kraus]
    else:
        obj["superop"] = linalg.matrix_to_json(channel.superop)
    return obj


def channel_from_json(obj: dict) -> QuantumChannel:
    if "kraus" in obj:
        channel = from_kraus(linalg.matrices_from_json(obj["kraus"]))
    elif "superop" in obj:
        channel = from_superop(linalg.matrices_from_json([obj["superop"]])[0])
    else:
        raise ValueError("channel JSON needs a 'kraus' or 'superop' field")
    return check_declared_dim(obj, channel)


def check_declared_dim(obj: dict, subject):
    """``subject``, read from ``obj``, if d >= 2 and any ``"dim"`` is the integer d."""
    if subject.dim < 2:
        raise ValueError("dimension must be at least 2")
    declared = obj.get("dim", subject.dim)
    if type(declared) is not int or declared != subject.dim:  # not a float, bool or string
        raise ValueError(f"declared dim {declared!r} is not the matrix dim {subject.dim}")
    return subject
