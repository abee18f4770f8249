"""Universal bound checks on steady/asymptotic state counts, plus the CKKS
relaxation-rate inequalities.

The structural bounds, all with the same d-dependent ceiling d^2 - 2d + 2:

* non-trivial unitary channel:   l0 <= d^2 - 2d + 2,  lP = d^2
* non-unitary channel:           l0 <= lP <= d^2 - 2d + 2
* non-zero Hamiltonian generator: m0 <= d^2 - 2d + 2, mP = d^2
* non-Hamiltonian generator:      m0 <= mP <= d^2 - 2d + 2

Peripheral multiplicity therefore jumps across a gap of 2(d - 1) when any
dissipation is switched on, leaving 2(d - 1) - 1 forbidden values.

The CKKS conjecture caps every relaxation rate by the multiplicity-weighted
mean rate, Gamma_alpha <= (1/d) sum_beta m_beta Gamma_beta, and implies the
looser ceilings m0, mP, l0 <= d^2 - d handled by
:func:`ckks_derived_bounds`.  It is proved for unital semigroups; on other
ensembles a violation is conjecture-relevant data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .spectra import SpectralSummary

CKKS_NUM_TOL = 1e-8


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: int
    observed: int
    margin: int
    satisfied: bool


@dataclass(frozen=True, eq=False)
class CkksMargins:
    """The CKKS inequality at each distinct eigenvalue in ``alpha``: one
    entry per eigenvalue in each array."""

    alpha: np.ndarray  # complex
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    satisfied: np.ndarray  # bool


@dataclass(frozen=True)
class BoundReport:
    checks: tuple[BoundCheck, ...]
    gap: int  # peripheral-multiplicity jump 2(d-1)
    forbidden: int  # forbidden values for the peripheral multiplicity, 2(d-1)-1
    ckks: CkksMargins

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)


def structural_ceiling(d: int) -> int:
    return d * d - 2 * d + 2


def _le(name: str, observed: int, bound: int) -> BoundCheck:
    margin = bound - observed
    return BoundCheck(name=name, bound=bound, observed=observed,
                      margin=margin, satisfied=margin >= 0)


def _eq(name: str, observed: int, bound: int) -> BoundCheck:
    margin = -abs(observed - bound)
    return BoundCheck(name=name, bound=bound, observed=observed,
                      margin=margin, satisfied=margin >= 0)


def classify(subject, summary: SpectralSummary | None = None) -> str:
    """The trivial map (identity channel, zero generator), all peripheral
    (unitary, hamiltonian) or neither (non-unitary, non-hamiltonian).

    Classification is spectral: all eigenvalues peripheral means unitary or
    Hamiltonian, regardless of the representation that produced the subject.
    """
    kind, m = subject.kind, subject.superop
    trivial, all_peripheral, other = kind.classes
    if float(np.linalg.norm(m - kind.anchor * np.eye(m.shape[0]))) <= kind.trivial_tol:
        return trivial
    if summary is None:
        summary = spectra.summarize(subject)
    return all_peripheral if summary.lP_or_mP == summary.dim ** 2 else other


def check_bounds(summary: SpectralSummary, classification: str, derived=()) -> BoundReport:
    """Integer-margin report for the proved bounds, then the ``derived``
    checks (``analyze`` adds :func:`ckks_derived_bounds`), with the CKKS margins.

    The trivial map (identity channel, zero generator) is excluded from the
    inequalities (l0 = lP = d^2 there) and gets no check of its own.
    """
    kind = summary.kind
    if classification not in kind.classes:
        raise ValueError(f"unknown {kind.name} classification {classification!r}")
    d = summary.dim
    ceiling = structural_ceiling(d)
    l0, lp = summary.l0_or_m0, summary.lP_or_mP
    name0, name_p = kind.counts  # l0, lP or m0, mP
    trivial, all_peripheral, _ = kind.classes
    checks: tuple[BoundCheck, ...]
    if classification == trivial:
        checks = ()
    elif classification == all_peripheral:
        checks = (
            _le(f"{name0} <= d^2-2d+2", l0, ceiling),
            _eq(f"{name_p} == d^2", lp, d * d),
        )
    else:
        checks = (
            _le(f"{name0} <= {name_p}", l0, lp),
            _le(f"{name_p} <= d^2-2d+2", lp, ceiling),
        )
    ckks = ckks_channel if kind == spectra.CHANNEL else ckks_generator
    return BoundReport(checks=(*checks, *derived), gap=2 * (d - 1), forbidden=2 * (d - 1) - 1,
                       ckks=ckks(summary))


def _running_sum(terms: np.ndarray) -> float:
    """The sum of ``terms`` in order, bit for bit Python's ``sum`` from int 0:
    ``np.sum`` adds pairwise, and ``+ 0.0`` makes a sum of -0.0 terms +0.0."""
    return float(np.add.accumulate(terms)[-1]) + 0.0 if terms.size else 0.0


def _margins(alpha, lhs, rhs, scale: float) -> CkksMargins:
    margin = rhs - lhs
    return CkksMargins(alpha, lhs, rhs, margin, margin >= -CKKS_NUM_TOL * scale)


def ckks_generator(summary: SpectralSummary) -> CkksMargins:
    """Per-eigenvalue margins of Gamma_alpha <= (1/d) sum m_beta Gamma_beta.

    The sum runs over the distinct nonzero eigenvalues; the zero cluster is
    excluded on both sides (its rate vanishes anyway).
    """
    if summary.kind != spectra.GENERATOR:
        raise ValueError("ckks_generator needs a generator summary")
    nonzero = np.arange(summary.values.size) != summary.anchor_index
    lhs = summary.rates[nonzero]
    rhs = _running_sum(summary.multiplicities[nonzero] * lhs) / summary.dim
    return _margins(summary.values[nonzero], lhs, np.full(lhs.size, rhs), max(1.0, rhs))


def ckks_channel(summary: SpectralSummary) -> CkksMargins:
    """Margins of sum_beta l_beta x_beta <= d(d-1) + d x_alpha.

    The inequality is stated for the eigenvalues other than mu_0 = 1; the
    margin at the unit cluster (trivially nonnegative) is emitted too so the
    report covers every distinct eigenvalue.
    """
    if summary.kind != spectra.CHANNEL:
        raise ValueError("ckks_channel needs a channel summary")
    d, re = summary.dim, summary.values.real
    total = _running_sum(summary.multiplicities * re)
    rhs = d * (d - 1) + d * re
    return _margins(summary.values, np.full(re.size, total), rhs, float(d * d))


def ckks_derived_bounds(summary: SpectralSummary, classification: str,
                        markovian: bool = False) -> list[BoundCheck]:
    """The integer ceilings implied by the CKKS bound, plus, for d >= 2, the
    comparison check that the structural ceiling implies them."""
    d = summary.dim
    loose = d * d - d
    checks = []
    if summary.kind == spectra.CHANNEL:
        if classification != "trivial":
            checks.append(_le("ckks: l0 <= d^2-d", summary.l0_or_m0, loose))
        if markovian and classification == "non-unitary":
            checks.append(_le("ckks: lP <= d^2-d (markovian)", summary.lP_or_mP, loose))
    else:
        if classification == "non-hamiltonian":
            checks.append(_le("ckks: m0 <= d^2-d", summary.l0_or_m0, loose))
            checks.append(_le("ckks: mP <= d^2-d", summary.lP_or_mP, loose))
    if d >= 2:  # d^2-2d+2 <= d^2-d; at d = 1, left by a faithful reduction, 1 <= 0
        checks.append(_le("structural ceiling <= ckks ceiling", structural_ceiling(d), loose))
    return checks


def report_to_json(report: BoundReport) -> dict:
    """The checks, gap, forbidden count and CKKS margins; the subject's kind,
    dim and classification are the caller's to add."""
    return {
        "checks": [dict(vars(c)) for c in report.checks],  # the fields in order
        "gap": report.gap,
        "forbidden": report.forbidden,
        "ckks": [
            {"alpha": [alpha.real, alpha.imag], "lhs": lhs, "rhs": rhs, "margin": margin,
             "satisfied": satisfied}
            for alpha, lhs, rhs, margin, satisfied in zip(
                *(a.tolist() for a in vars(report.ckks).values()))  # the fields in order
        ],
    }
