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
from .linalg import dagger, require_square, unvec, vec

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
    kraus: tuple[np.ndarray, ...] | None = None
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

    def kraus_operators(self) -> tuple[np.ndarray, ...]:
        """Kraus list, extracting a canonical minimal one from Choi if absent."""
        if self.kraus is None:
            self.kraus = choi_to_kraus(self.choi)
        return self.kraus


def from_kraus(kraus, tp_tol: float = DEFAULT_TP_TOL) -> QuantumChannel:
    """Build a channel from Kraus operators, checking trace preservation.

    Raises :class:`ValidationError` with the residual norm if
    sum_k B_k^dag B_k deviates from the identity by more than ``tp_tol``.
    """
    ops = tuple(require_square(b) for b in kraus)
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    d = ops[0].shape[0]
    if any(b.shape[0] != d for b in ops):
        raise ValueError("Kraus operators must share one dimension")
    gram = sum(dagger(b) @ b for b in ops)
    residual = float(np.linalg.norm(gram - np.eye(d)))
    if residual > tp_tol:
        raise ValidationError("Kraus list is not trace preserving", residual)
    return QuantumChannel(dim=d, kraus=ops)


def from_superop(
    m,
    tp_tol: float = DEFAULT_TP_TOL,
    cp_tol: float = DEFAULT_CP_TOL,
    validate: bool = True,
) -> QuantumChannel:
    """Build a channel from its d^2 x d^2 superoperator matrix.

    A validated matrix is replaced by its Hermiticity-preserving part, the
    superoperator of the Hermitian part of its Choi matrix, so that the
    deviation accepted within ``cp_tol`` never reaches :func:`linalg.eig`.
    """
    m = require_square(m)
    d = int(round(np.sqrt(m.shape[0])))
    if d * d != m.shape[0]:
        raise ValueError(f"superoperator side {m.shape[0]} is not a perfect square")
    channel = QuantumChannel(dim=d, _superop=m)
    if validate:
        tp = tp_residual(channel)
        if tp > tp_tol:
            raise ValidationError("superoperator is not trace preserving", tp)
        choi = channel.choi
        herm = float(np.linalg.norm(choi - dagger(choi)))
        if herm > cp_tol:
            raise ValidationError("Choi matrix is not Hermitian", herm)
        choi = (choi + dagger(choi)) / 2
        channel = QuantumChannel(dim=d, _superop=choi_to_superop(choi), _choi=choi)
        if not choi_is_cp(choi, cp_tol):
            wmin = float(np.linalg.eigvalsh(choi).min())
            raise ValidationError("Choi matrix is not positive semidefinite", -wmin)
    return channel


def tp_residual(channel: QuantumChannel) -> float:
    """Norm of M^dag vec(I) - vec(I); zero iff the map preserves traces."""
    ident = vec(np.eye(channel.dim))
    return float(np.linalg.norm(dagger(channel.superop) @ ident - ident))


def kraus_to_superop(kraus) -> np.ndarray:
    """M[i*d+a, j*d+b] = sum_k conj(B_k[i, j]) B_k[a, b]: F^dag F for the rows
    F_k = flattened B_k, middle indices swapped.  Inputs validated upstream."""
    b = np.asarray(kraus, dtype=np.complex128)
    d = b.shape[-1]
    f = b.reshape(-1, d * d)
    return (f.conj().T @ f).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


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


def choi_is_cp(choi, tol: float = 1e-10) -> bool:
    """Complete positivity: smallest eigenvalue of the (Hermitized) Choi >= -tol."""
    c = require_square(choi)
    w = np.linalg.eigvalsh((c + dagger(c)) / 2)
    return bool(w.min() >= -tol)


def choi_to_kraus(choi, weight_cut: float = KRAUS_WEIGHT_CUT) -> tuple[np.ndarray, ...]:
    """Canonical minimal Kraus set from the Choi eigendecomposition.

    Eigenvalues below ``weight_cut * trace`` are discarded.
    """
    c = require_square(choi)
    d = int(round(np.sqrt(c.shape[0])))
    w, v = np.linalg.eigh((c + dagger(c)) / 2)
    cut = weight_cut * max(float(np.trace(c).real), 1e-300)
    ops = []
    for k in range(w.size - 1, -1, -1):
        if w[k] <= cut:
            break
        ops.append(np.sqrt(w[k]) * v[:, k].reshape(d, d, order="C"))
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above the weight cut")
    return tuple(ops)


def apply_channel(channel: QuantumChannel, x) -> np.ndarray:
    """Action Phi(X) via the superoperator matrix."""
    x = require_square(x)
    return unvec(channel.superop @ vec(x), rows=channel.dim)


def dual(channel: QuantumChannel) -> QuantumChannel:
    """The dual (Heisenberg-picture) map Phi*.

    Its superoperator is the conjugate transpose of Phi's and its Kraus
    action is X -> sum_k B_k^dag X B_k.  The dual is unital rather than
    trace preserving, so the returned object skips CPTP validation.
    """
    kraus = None
    if channel.kraus is not None:
        kraus = tuple(dagger(b) for b in channel.kraus)
    return QuantumChannel(dim=channel.dim, kraus=kraus, _superop=dagger(channel.superop))


def compose(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """The composition a after b; superoperator matrices multiply."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return QuantumChannel(dim=a.dim, _superop=a.superop @ b.superop)


def power(channel: QuantumChannel, n: int) -> QuantumChannel:
    """Phi^n, taken as R^n of the real matrix R of Phi in Hermitian
    coordinates, so that it stays exactly Hermiticity preserving: rounding
    in the complex M^n grows with n and would fail :func:`linalg.eig`."""
    if n < 0:
        raise ValueError("channel powers require n >= 0")
    b, b_inv, _ = linalg.hermitian_basis(channel.dim)
    r = (b_inv @ channel.superop @ b).real
    m = b @ np.linalg.matrix_power(r, n) @ b_inv
    return QuantumChannel(dim=channel.dim, _superop=m)


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(dim=d, kraus=(np.eye(d, dtype=np.complex128),))


def is_unitary_channel(channel: QuantumChannel, tol: float = 1e-7) -> bool:
    """True iff every superoperator eigenvalue has modulus >= 1 - tol."""
    w = channel.spectrum.values
    return bool(np.min(np.abs(w)) >= 1.0 - tol)


def channel_to_json(channel: QuantumChannel) -> dict:
    obj: dict = {"dim": channel.dim}
    if channel.kraus is not None:
        obj["kraus"] = [linalg.matrix_to_json(b) for b in channel.kraus]
    else:
        obj["superop"] = linalg.matrix_to_json(channel.superop)
    return obj


def channel_from_json(obj: dict, tp_tol: float = DEFAULT_TP_TOL,
                      cp_tol: float = DEFAULT_CP_TOL) -> QuantumChannel:
    if "kraus" in obj:
        kraus = [linalg.matrix_from_json(b) for b in obj["kraus"]]
        channel = from_kraus(kraus, tp_tol=tp_tol)
    elif "superop" in obj:
        channel = from_superop(linalg.matrix_from_json(obj["superop"]),
                               tp_tol=tp_tol, cp_tol=cp_tol)
    else:
        raise ValueError("channel JSON needs a 'kraus' or 'superop' field")
    if "dim" in obj and int(obj["dim"]) != channel.dim:
        raise ValueError(f"declared dim {obj['dim']} != matrix dim {channel.dim}")
    return channel
