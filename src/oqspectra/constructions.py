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
trivially parallelizable.  :func:`draw`, the one sampler of a single subject,
takes its raw draw from that stream (:func:`normals`), then builds a stack of
one: a campaign stacks a chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Union

import numpy as np

from . import gkls, linalg
from .bounds import structural_ceiling
from .gkls import GklsGenerator, build_generator
from .superop import QuantumChannel, from_superop, kraus_channels

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
    """The saturating example ``name`` at dimension d and its :func:`advertised` counts."""
    return SATURATING[name][0](d, h, eigenpairs), advertised(name, d)


def advertised(name: str, d: int) -> tuple[int, int]:
    """The (l0, lP) of the saturating example ``name``; l0 is the ceiling d^2 - 2d + 2."""
    ceiling = structural_ceiling(d)
    return ceiling, d * d if SATURATING[name][1] else ceiling


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

def _gaussian(normals: np.ndarray) -> np.ndarray:
    return (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)


def _haar(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries via phase-fixed QR of Ginibre matrices."""
    q, r = np.linalg.qr(_gaussian(normals))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _stinespring(normals: np.ndarray) -> list:
    """Generic CPTP maps: Kraus operators the environment slices of Haar
    isometries (QR of Ginibre matrices of shape (d * env_dim, d))."""
    k, _, _, rows, d = normals.shape
    q, _ = np.linalg.qr(_gaussian(normals))
    return kraus_channels(q.reshape(k, d, rows // d, d).transpose(0, 2, 1, 3))


def _gkls(normals: np.ndarray, unital: bool) -> list:
    """The generators of (k, 1 + K, 2, d, d) normals: GUE H and K Ginibre (GUE
    if ``unital``) A_k each, as H / r and A_k / sqrt r, so that L / r has
    spectral radius 1 (unless r < 1e-12) for scale-appropriate tolerances."""
    g = _gaussian(normals)
    x = g if unital else g[:, :1]
    h = (x + linalg.dagger(x)) / 2.0

    def rescaled(gens):
        values = np.stack([gen.spectrum.values for gen in gens])
        radius = np.abs(values).max(axis=1)
        r = np.where(radius < 1e-12, 1.0, radius)[:, None, None]  # x / 1 is x, bit for bit
        h, values = np.stack([gen.hamiltonian for gen in gens]) / r, values / r[:, 0]
        ops = np.stack([gen.noise_ops for gen in gens]) / np.sqrt(r)[..., None]
        superops = np.stack([gen.superop for gen in gens]) / r
        real = np.stack([gen.spectrum.real for gen in gens]) / r
        scaled = [GklsGenerator(dim=gen.dim, hamiltonian=hk, noise_ops=a, _superop=m)
                  for gen, hk, a, m in zip(gens, h, ops, superops)]
        for new, gen, w, x in zip(scaled, gens, values, real):
            new.spectrum = replace(gen.spectrum, values=w, real=x)
        return scaled

    gens = gkls.generators(h[:, 0], (h if unital else g)[:, 1:])
    return linalg.over_stack(rescaled, linalg.decompose(gens))


@dataclass(frozen=True)
class Ensemble:
    """What a random ensemble draws and promises."""

    shape: Callable[[int, int | None], tuple]  # (d, env_dim) -> (rows, cols, *counts)
    build: Callable[[np.ndarray], list]  # the subjects of a stack of normals, or errors
    advertised: tuple[str, ...]  # the classes a draw must land in
    ckks_proved: bool  # CKKS is a theorem here, so a violation is a failure


# The ensembles in campaign order: seed keys hold each one's position.
# Hermitian noise operators make the dissipator unital: CKKS is proved there.
ENSEMBLES = {
    "haar-unitary": Ensemble(lambda d, env: (d, d, 1),
                             lambda normals: kraus_channels(_haar(normals)),
                             ("unitary", "non-unitary"), False),
    "cptp-stinespring": Ensemble(lambda d, env: (d * (d * d if env is None else env), d, 1),
                                 _stinespring, ("non-unitary",), False),
    "gkls-generic": Ensemble(lambda d, env: (d, d, 1, d), lambda normals: _gkls(normals, False),
                             ("non-hamiltonian",), False),
    "gkls-unital": Ensemble(lambda d, env: (d, d, 1, d), lambda normals: _gkls(normals, True),
                            ("non-hamiltonian",), True),
    "gkls-hamiltonian": Ensemble(lambda d, env: (d, d, 1), lambda normals: _gkls(normals, False),
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


def normals(ensemble: str, d: int, rng: np.random.Generator,
            env_dim: int | None = None) -> np.ndarray:
    """One subject's raw draw: one standard_normal call per stack of Ginibre
    matrices that ``ensemble`` takes from ``rng``, (re, im) on axis -3."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    rows, cols, *counts = ENSEMBLES[ensemble].shape(d, env_dim)
    return np.concatenate([rng.standard_normal((count, 2, rows, cols)) for count in counts])


def draw(ensemble: str, d: int, rng: np.random.Generator,
         env_dim: int | None = None) -> Subject:
    """One subject of ``ensemble`` at dimension d, drawn from ``rng``."""
    return linalg.one(ENSEMBLES[ensemble].build(normals(ensemble, d, rng, env_dim)[None]))
