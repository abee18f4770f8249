"""GKLS (Lindblad) generators: construction, matrix realization, exponentiation.

A generator is a Hamiltonian H plus a list of noise operators {A_k} acting as

    L(X) = -i[H, X] + sum_k ( A_k X A_k^dag - (1/2){A_k^dag A_k, X} ).

Under the package-wide column-stacking convention its superoperator matrix is

    L = -i(I (x) H - H^T (x) I)
        + sum_k [ conj(A_k) (x) A_k - (1/2)(I (x) A_k^dag A_k + (A_k^dag A_k)^T (x) I) ].

The matrix form is realized once here and checked in the test suite against
the direct operator action on all matrix units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import linalg, spectra, superop
from .linalg import dagger, require_square
from .superop import QuantumChannel

HERMITIAN_WARN_TOL = 1e-12
HERMITIAN_FAIL_TOL = 1e-8
EXP_VALIDATION_TOL = 1e-7


@dataclass(eq=False)
class GklsGenerator(linalg.Decomposed):
    """Immutable GKLS generator; the superoperator matrix and its
    eigendecomposition are cached lazily, write-once."""

    kind: ClassVar[spectra.Kind] = spectra.GENERATOR
    dim: int
    hamiltonian: np.ndarray
    noise_ops: np.ndarray  # the (K, d, d) stack of noise operators
    _superop: np.ndarray | None = field(default=None, repr=False)

    @property
    def superop(self) -> np.ndarray:
        if self._superop is None:
            self._superop = gkls_superop(self.hamiltonian, self.noise_ops)
        return self._superop


def build_generator(hamiltonian, noise_ops=()) -> GklsGenerator:
    """Validate, symmetrize and assemble a GKLS generator (:func:`generators`).

    The Hamiltonian must be Hermitian within ``HERMITIAN_FAIL_TOL``;
    residuals in (``HERMITIAN_WARN_TOL``, ``HERMITIAN_FAIL_TOL``] are
    symmetrized away with a warning.  Noise operators are arbitrary square
    matrices of the same dimension, given as a sequence or as their
    (K, d, d) stack and held as that stack.  A list longer than d^2 - 1 is
    representationally redundant but accepted.
    """
    h = require_square(hamiltonian)
    d = h.shape[0]
    ops = np.asarray(noise_ops, dtype=np.complex128)  # ValueError on ragged nesting
    if ops.size and ops.shape[1:] != (d, d) or not np.isfinite(ops).all():
        raise ValueError(f"noise operators must be finite and match the Hamiltonian "
                         f"dimension {d}, got shape {ops.shape}")
    return linalg.one(generators(h[None], ops.reshape(1, -1, d, d)))


def generators(hamiltonians: np.ndarray, noise_ops: np.ndarray) -> list:
    """:func:`build_generator` of each (H, A) of finite complex (k, d, d) and
    (k, K, d, d) stacks, in order, with its superoperator, or its ValueError."""
    residuals = np.linalg.norm(hamiltonians - dagger(hamiltonians), axis=(1, 2)).tolist()
    for residual in residuals:
        if HERMITIAN_WARN_TOL < residual <= HERMITIAN_FAIL_TOL:
            warnings.warn(f"symmetrizing Hamiltonian with Hermiticity residual {residual:.3e}",
                          stacklevel=3)
    h = (hamiltonians + dagger(hamiltonians)) / 2
    return [ValueError(f"Hamiltonian is not Hermitian (residual {residual:.3e})")
            if residual > HERMITIAN_FAIL_TOL else
            GklsGenerator(dim=h.shape[-1], hamiltonian=hk, noise_ops=ak, _superop=m)
            for hk, ak, m, residual in zip(h, noise_ops, gkls_superop(h, noise_ops), residuals)]


def gkls_superop(hamiltonian, noise_ops) -> np.ndarray:
    """L = I (x) (-iH - G/2) + (iH^T - G^T/2) (x) I + sum_k conj(A_k) (x) A_k
    with G = sum_k A_k^dag A_k (of each, for stacks); :func:`build_generator`
    validates the inputs."""
    h = np.asarray(hamiltonian, dtype=np.complex128)
    d, lead = h.shape[-1], h.shape[:-2]
    a = np.asarray(noise_ops, dtype=np.complex128).reshape(*lead, -1, d, d)
    g = np.einsum("...kji,...kjl->...il", a.conj(), a)
    m = linalg.kronecker_sum(-1j * h - 0.5 * g, 1j * h.swapaxes(-1, -2) - 0.5 * g.swapaxes(-1, -2))
    m += superop.kraus_to_superop(a)
    return m


def exponentiate(gen: GklsGenerator, t: float = 1.0) -> QuantumChannel:
    """The Markovian channel e^{tL}, validated as CPTP.

    Validation failure indicates the input was not a valid GKLS realization.
    """
    if t < 0:
        raise ValueError("semigroup parameter t must be nonnegative")
    m = linalg.scipy_linalg("exponentiate").expm(t * gen.superop)  # no command exponentiates
    return superop.from_superop(
        m, tp_tol=EXP_VALIDATION_TOL, cp_tol=EXP_VALIDATION_TOL
    )


def generator_to_json(gen: GklsGenerator) -> dict:
    return {
        "dim": gen.dim,
        "hamiltonian": linalg.matrix_to_json(gen.hamiltonian),
        "noise_ops": [linalg.matrix_to_json(a) for a in gen.noise_ops],
    }


def generator_from_json(obj: dict) -> GklsGenerator:
    try:
        h = linalg.matrices_from_json([obj["hamiltonian"]])[0]
    except KeyError as exc:
        raise ValueError(f"generator JSON is missing field {exc}") from exc
    noise = obj.get("noise_ops", [])
    ops = linalg.matrices_from_json(noise) if noise != [] else ()
    return superop.check_declared_dim(obj, build_generator(h, ops))
