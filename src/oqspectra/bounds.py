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


@dataclass(frozen=True)
class CkksMargin:
    alpha: complex  # the distinct eigenvalue the inequality is anchored at
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    kind: spectra.Kind
    dim: int
    classification: str
    checks: tuple[BoundCheck, ...]
    gap: int  # peripheral-multiplicity jump 2(d-1)
    forbidden: int  # forbidden values for the peripheral multiplicity, 2(d-1)-1
    ckks: tuple[CkksMargin, ...]

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


def check_bounds(summary: SpectralSummary, classification: str) -> BoundReport:
    """Integer-margin report for the proved bounds, with the CKKS margins.

    The trivial map (identity channel, zero generator) is excluded from the
    inequalities (l0 = lP = d^2 there) and gets an empty check list.
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
    return BoundReport(kind=kind, dim=d, classification=classification,
                       checks=checks, gap=2 * (d - 1), forbidden=2 * (d - 1) - 1,
                       ckks=tuple(ckks(summary)))


def ckks_generator(summary: SpectralSummary) -> list[CkksMargin]:
    """Per-eigenvalue margins of Gamma_alpha <= (1/d) sum m_beta Gamma_beta.

    The sum runs over the distinct nonzero eigenvalues; the zero cluster is
    excluded on both sides (its rate vanishes anyway).
    """
    if summary.kind != spectra.GENERATOR:
        raise ValueError("ckks_generator needs a generator summary")
    d = summary.dim
    zero_idx = summary.anchor_index
    rhs = sum(item.multiplicity * (item.rate or 0.0)
              for k, item in enumerate(summary.distinct) if k != zero_idx) / d
    scale = max(1.0, rhs)
    out = []
    for k, item in enumerate(summary.distinct):
        if k == zero_idx:
            continue
        lhs = item.rate or 0.0
        margin = rhs - lhs
        out.append(CkksMargin(alpha=item.value, lhs=lhs, rhs=rhs,
                              margin=margin, satisfied=margin >= -CKKS_NUM_TOL * scale))
    return out


def ckks_channel(summary: SpectralSummary) -> list[CkksMargin]:
    """Margins of sum_beta l_beta x_beta <= d(d-1) + d x_alpha.

    The inequality is stated for the eigenvalues other than mu_0 = 1; the
    margin at the unit cluster (trivially nonnegative) is emitted too so the
    report covers every distinct eigenvalue.
    """
    if summary.kind != spectra.CHANNEL:
        raise ValueError("ckks_channel needs a channel summary")
    d = summary.dim
    total = sum(item.multiplicity * item.real_part for item in summary.distinct)
    scale = float(d * d)
    out = []
    for item in summary.distinct:
        rhs = d * (d - 1) + d * item.real_part
        margin = rhs - total
        out.append(CkksMargin(alpha=item.value, lhs=total, rhs=rhs,
                              margin=margin, satisfied=margin >= -CKKS_NUM_TOL * scale))
    return out


def ckks_derived_bounds(summary: SpectralSummary, classification: str,
                        markovian: bool = False) -> list[BoundCheck]:
    """The integer ceilings implied by the CKKS bound, plus the comparison
    check that the structural ceiling implies them (strictly for d >= 3)."""
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
    # d^2-2d+2 <= d^2-d for every d >= 2, strictly for d >= 3.
    implies = _le("structural ceiling <= ckks ceiling", structural_ceiling(d), loose)
    if d >= 3 and implies.margin <= 0:
        implies = BoundCheck(name=implies.name, bound=implies.bound,
                             observed=implies.observed, margin=implies.margin,
                             satisfied=False)
    checks.append(implies)
    return checks


def report_to_json(report: BoundReport) -> dict:
    return {
        "kind": report.kind.name,
        "dim": report.dim,
        "classification": report.classification,
        "checks": [
            {
                "name": c.name,
                "bound": c.bound,
                "observed": c.observed,
                "margin": c.margin,
                "satisfied": c.satisfied,
            }
            for c in report.checks
        ],
        "gap": report.gap,
        "forbidden": report.forbidden,
        "ckks": [
            {
                "alpha": [m.alpha.real, m.alpha.imag],
                "lhs": m.lhs,
                "rhs": m.rhs,
                "margin": m.margin,
                "satisfied": m.satisfied,
            }
            for m in report.ckks
        ],
    }
