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
import scipy.linalg

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
    noise_ops: tuple[np.ndarray, ...]
    _superop: np.ndarray | None = field(default=None, repr=False)

    @property
    def superop(self) -> np.ndarray:
        if self._superop is None:
            self._superop = gkls_superop(self.hamiltonian, self.noise_ops)
        return self._superop


def build_generator(hamiltonian, noise_ops=()) -> GklsGenerator:
    """Validate, symmetrize and assemble a GKLS generator.

    The Hamiltonian must be Hermitian within ``HERMITIAN_FAIL_TOL``;
    residuals in (``HERMITIAN_WARN_TOL``, ``HERMITIAN_FAIL_TOL``] are
    symmetrized away with a warning.  Noise operators are arbitrary square
    matrices of the same dimension.  A list longer than d^2 - 1 is
    representationally redundant but accepted.
    """
    h = require_square(hamiltonian)
    d = h.shape[0]
    residual = float(np.linalg.norm(h - dagger(h)))
    if residual > HERMITIAN_FAIL_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian (residual {residual:.3e})")
    if residual > HERMITIAN_WARN_TOL:
        warnings.warn(
            f"symmetrizing Hamiltonian with Hermiticity residual {residual:.3e}",
            stacklevel=2,
        )
    h = (h + dagger(h)) / 2
    ops = tuple(require_square(a) for a in noise_ops)
    if any(a.shape[0] != d for a in ops):
        raise ValueError("noise operators must match the Hamiltonian dimension")
    return GklsGenerator(dim=d, hamiltonian=h, noise_ops=ops)


def gkls_superop(hamiltonian, noise_ops) -> np.ndarray:
    """L = I (x) (-iH - G/2) + (iH^T - G^T/2) (x) I + sum_k conj(A_k) (x) A_k
    with G = sum_k A_k^dag A_k; :func:`build_generator` validates the inputs."""
    h = np.asarray(hamiltonian, dtype=np.complex128)
    d = h.shape[0]
    a = np.asarray(noise_ops, dtype=np.complex128).reshape(-1, d, d)
    g = np.einsum("kji,kjl->il", a.conj(), a)
    m = linalg.kronecker_sum(-1j * h - 0.5 * g, 1j * h.T - 0.5 * g.T)
    m += superop.kraus_to_superop(a)
    return m


def exponentiate(gen: GklsGenerator, t: float = 1.0) -> QuantumChannel:
    """The Markovian channel e^{tL}, validated as CPTP.

    Validation failure indicates the input was not a valid GKLS realization.
    """
    if t < 0:
        raise ValueError("semigroup parameter t must be nonnegative")
    m = scipy.linalg.expm(t * gen.superop)
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
        h = linalg.matrix_from_json(obj["hamiltonian"])
        ops = [linalg.matrix_from_json(a) for a in obj.get("noise_ops", [])]
    except KeyError as exc:
        raise ValueError(f"generator JSON is missing field {exc}") from exc
    gen = build_generator(h, ops)
    if "dim" in obj and int(obj["dim"]) != gen.dim:
        raise ValueError(f"declared dim {obj['dim']} != matrix dim {gen.dim}")
    return gen
