"""Spectral analysis of finite-dimensional quantum evolutions.

Quantum channels and GKLS generators, their spectra and asymptotic
structure: steady and asymptotic state counts, the sharp universal ceiling
d^2 - 2d + 2 on both, the constructions that saturate it, and the CKKS
relaxation-rate inequalities on sampled ensembles.
"""

from .analysis import AnalysisReport, analyze
from .asymptotics import (
    FaithfulReduction,
    SubspaceBasis,
    attractor,
    faithful_reduce,
    fixed_space,
    peripheral_projection,
)
from .bounds import (
    BoundReport,
    check_bounds,
    ckks_channel,
    ckks_derived_bounds,
    ckks_generator,
    classify,
    structural_ceiling,
)
from .commutants import (
    JordanProfile,
    commutant,
    commutant_dim_from_jordan,
    weyr_profile,
)
from .constructions import (
    SamplerConfig,
    draw,
    phase_damping_channel,
    sample,
    saturating_dissipative_generator,
    saturating_hamiltonian_generator,
    saturating_unitary_channel,
)
from .gkls import GklsGenerator, build_generator, exponentiate
from .spectra import CHANNEL, GENERATOR, Kind, SpectralSummary, cluster, summarize
from .superop import (
    QuantumChannel,
    ValidationError,
    choi_is_cp,
    compose,
    dual,
    from_kraus,
    from_superop,
    power,
)

__version__ = "0.1.0"
