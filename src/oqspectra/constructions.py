"""Bound-saturating constructions and seeded random ensembles.

The deterministic constructors realize, in the computational basis, the
examples that make every structural bound tight:

* a two-level Hamiltonian H = h1 |e1><e1| + h2 (I - |e1><e1|) whose
  generator has m0 = d^2 - 2d + 2 and mP = d^2, and whose exponential is a
  unitary channel with l0 = d^2 - 2d + 2 as long as h1 - h2 is not a
  multiple of 2*pi;
* dissipative generators with diagonal noise operators
  A_k = lam1 P1 + lam2 P2 (lam1 != lam2), unital by construction, reaching
  m0 = mP = d^2 - 2d + 2;
* the phase-damping channel fixing diagonal blocks and shrinking the
  off-diagonal blocks by e^{-1}, reaching l0 = lP = d^2 - 2d + 2.

Sampling uses numpy's PCG64 streams: every subject draws from its own
``default_rng(seed)``, so campaigns are reproducible across platforms and
trivially parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Union

import numpy as np

from . import gkls
from .bounds import structural_ceiling
from .gkls import GklsGenerator, build_generator
from .superop import QuantumChannel, from_kraus, from_superop

Subject = Union[QuantumChannel, GklsGenerator]


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    dim: int
    ensemble: str
    count: int = 1
    env_dim: int | None = None  # Stinespring dilation size, default d^2

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; pick from {tuple(ENSEMBLES)}")
        check_seed(self.seed)
        check_env_dim(self.env_dim)


def check_seed(seed: int) -> None:
    """A seed is any nonnegative integer, as ``numpy.random.SeedSequence`` takes."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def check_env_dim(env_dim: int | None) -> None:
    """A Stinespring environment has dimension at least 1 (None: d^2)."""
    if env_dim is not None and env_dim < 1:
        raise ValueError(f"env_dim must be at least 1, got {env_dim}")


# ---------------------------------------------------------------------------
# deterministic saturating examples
# ---------------------------------------------------------------------------

def saturating_hamiltonian_generator(d: int, h1: float = 0.0, h2: float = 1.0) -> GklsGenerator:
    """Purely Hamiltonian generator with m0 = d^2 - 2d + 2 and mP = d^2."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if h1 == h2:
        raise ValueError("h1 = h2 gives a scalar Hamiltonian, i.e. the zero generator")
    h = np.full(d, h2, dtype=np.complex128)
    h[0] = h1
    return build_generator(np.diag(h), ())


def saturating_unitary_channel(d: int, h1: float = 0.0, h2: float = 1.0) -> QuantumChannel:
    """Non-trivial unitary channel e^{L_H} with l0 = d^2 - 2d + 2, lP = d^2."""
    if math.isclose((h1 - h2) % (2 * math.pi), 0.0, abs_tol=1e-12) or \
            math.isclose((h1 - h2) % (2 * math.pi), 2 * math.pi, abs_tol=1e-12):
        raise ValueError("h1 - h2 must not be a multiple of 2*pi (trivial channel)")
    l_h = saturating_hamiltonian_generator(d, h1, h2).superop  # diagonal, as H is
    return from_superop(np.diag(np.exp(np.diag(l_h))),  # what expm returns for it
                        tp_tol=gkls.EXP_VALIDATION_TOL, cp_tol=gkls.EXP_VALIDATION_TOL)


def saturating_dissipative_generator(
    d: int, eigenpairs=((1.0, 0.0),)
) -> GklsGenerator:
    """Unital dissipative generator with m0 = mP = d^2 - 2d + 2.

    Each (lam1, lam2) pair contributes the diagonal noise operator
    lam1 P1 + lam2 P2 with P1 = |e1><e1|; the eigenvalues must differ.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    pairs = tuple(eigenpairs)
    if not pairs:
        raise ValueError("at least one eigenvalue pair is required")
    for lam1, lam2 in pairs:
        if lam1 == lam2:
            raise ValueError(f"degenerate eigenvalue pair ({lam1}, {lam2})")
    ops = np.zeros((len(pairs), d, d), dtype=np.complex128)
    ops[:, np.arange(d), np.arange(d)] = [[lam1] + [lam2] * (d - 1) for lam1, lam2 in pairs]
    return build_generator(np.zeros((d, d)), ops)


def phase_damping_channel(d: int) -> QuantumChannel:
    """e^L for the dephasing generator: off-diagonal blocks scaled by e^{-1}.

    Built in exact block form (the superoperator is diagonal on matrix
    units); agreement with the matrix exponential is part of the test suite.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    factors = np.ones((d, d))
    factors[0, 1:] = math.exp(-1.0)
    factors[1:, 0] = math.exp(-1.0)
    # Column stacking: superoperator entry for matrix unit E_ij sits at
    # diagonal position j*d + i.
    m = np.diag(factors.flatten(order="F")).astype(np.complex128)
    return from_superop(m)


# The saturating examples by name: a builder of (d, (h1, h2), eigenpairs),
# which reads the parameters its example takes, and whether the example
# advertises lP = d^2 (every eigenvalue peripheral) or lP = l0 = the ceiling.
SATURATING = {
    "unitary": (lambda d, h, pairs: saturating_unitary_channel(d, *h), True),
    "phase-damping": (lambda d, h, pairs: phase_damping_channel(d), False),
    "hamiltonian": (lambda d, h, pairs: saturating_hamiltonian_generator(d, *h), True),
    "dissipative": (lambda d, h, pairs: saturating_dissipative_generator(d, pairs), False),
}


def saturating(name: str, d: int, h: tuple[float, float] = (0.0, 1.0),
               eigenpairs=((1.0, 0.0),)) -> tuple[Subject, tuple[int, int]]:
    """The saturating example ``name`` at dimension d and the (l0, lP) it
    advertises; l0 is always the ceiling d^2 - 2d + 2."""
    build, all_peripheral = SATURATING[name]
    ceiling = structural_ceiling(d)
    return build(d, h, eigenpairs), (ceiling, d * d if all_peripheral else ceiling)


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

def ginibre(rows: int, cols: int, rng: np.random.Generator, count: int = 0) -> np.ndarray:
    """A Ginibre matrix or, with ``count``, the stack of ``count`` of them
    from one draw: the same PCG64 stream as ``count`` single draws."""
    g = rng.standard_normal((max(count, 1), 2, rows, cols))
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    return g if count else g[0]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(d, d, rng))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(d: int, rng: np.random.Generator, count: int = 0) -> np.ndarray:
    """A GUE matrix or, with ``count``, the stack of ``count`` of them, as :func:`ginibre`."""
    g = ginibre(d, d, rng, count)
    return (g + np.swapaxes(g, -1, -2).conj()) / 2.0


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    return from_kraus([u])


def stinespring_channel(d: int, rng: np.random.Generator,
                        env_dim: int | None = None) -> QuantumChannel:
    """Generic CPTP map: Haar isometry into system x environment, traced out.

    The Kraus operators are the environment slices of a QR-orthonormalized
    Ginibre matrix of shape (d * env_dim, d).
    """
    env = env_dim if env_dim is not None else d * d
    q, _ = np.linalg.qr(ginibre(d * env, d, rng))
    return from_kraus(q.reshape(d, env, d).transpose(1, 0, 2))


def _normalized_generator(h: np.ndarray, ops: np.ndarray | tuple) -> GklsGenerator:
    # Rescale so the superoperator has spectral radius ~1, keeping tolerances
    # scale-appropriate; H scales linearly, noise operators by sqrt, so L and
    # its eigenvalues scale by 1 / r and the eigenvectors stay.
    gen = build_generator(h, ops)
    spectrum = gen.spectrum
    radius = float(np.max(np.abs(spectrum.values)))
    if radius < 1e-12:
        return gen
    scaled = GklsGenerator(dim=gen.dim, hamiltonian=gen.hamiltonian / radius,
                           noise_ops=gen.noise_ops / np.sqrt(radius),
                           _superop=gen.superop / radius)
    scaled.spectrum = replace(spectrum, values=spectrum.values / radius,
                              real=spectrum.real / radius)
    return scaled


def generic_gkls(d: int, rng: np.random.Generator) -> GklsGenerator:
    """GUE Hamiltonian plus d Ginibre noise operators, spectral radius ~1."""
    h = random_hermitian(d, rng)
    return _normalized_generator(h, ginibre(d, d, rng, count=d))


def unital_gkls(d: int, rng: np.random.Generator) -> GklsGenerator:
    """Unital ensemble: d Hermitian noise operators make the dissipator
    annihilate the identity, the regime where the CKKS bound is proved."""
    h = random_hermitian(d, rng)
    return _normalized_generator(h, random_hermitian(d, rng, count=d))


def hamiltonian_gkls(d: int, rng: np.random.Generator) -> GklsGenerator:
    return _normalized_generator(random_hermitian(d, rng), ())


@dataclass(frozen=True)
class Ensemble:
    """What a random ensemble draws and promises."""

    draw: Callable[[int, np.random.Generator, int | None], Subject]  # (d, rng, env_dim)
    advertised: tuple[str, ...]  # the classes a draw must land in
    ckks_proved: bool  # CKKS is a theorem here, so a violation is a failure


# The ensembles in campaign order: seed keys hold each one's position.
ENSEMBLES = {
    "haar-unitary": Ensemble(lambda d, rng, env: unitary_channel(haar_unitary(d, rng)),
                             ("unitary", "non-unitary"), False),
    "cptp-stinespring": Ensemble(stinespring_channel, ("non-unitary",), False),
    "gkls-generic": Ensemble(lambda d, rng, env: generic_gkls(d, rng),
                             ("non-hamiltonian",), False),
    "gkls-unital": Ensemble(lambda d, rng, env: unital_gkls(d, rng),
                            ("non-hamiltonian",), True),
    "gkls-hamiltonian": Ensemble(lambda d, rng, env: hamiltonian_gkls(d, rng),
                                 ("hamiltonian",), False),
}


def sample(config: SamplerConfig) -> Iterator[Subject]:
    """Deterministic stream of channels or generators.

    Each item is drawn from ``default_rng((seed, index))``, so any single
    subject can be regenerated from its (seed, index) pair without replaying
    the stream.
    """
    for index in range(config.count):
        yield draw(config.ensemble, config.dim, np.random.default_rng((config.seed, index)),
                   config.env_dim)


def draw(ensemble: str, d: int, rng: np.random.Generator,
         env_dim: int | None = None) -> Subject:
    """One subject of ``ensemble`` at dimension d, drawn from ``rng``."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    return ENSEMBLES[ensemble].draw(d, rng, env_dim)
