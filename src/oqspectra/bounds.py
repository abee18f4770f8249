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
looser ceilings m0, mP, l0 <= d^2 - d.  It is proved for unital semigroups;
on other ensembles a violation is conjecture-relevant data, not an error.

Channels and generators differ here only in one table keyed by
:class:`~oqspectra.spectra.Kind`: each kind's CKKS margin formula and its
CKKS-derived rows.  :func:`check_bounds` builds the whole report from it,
and :func:`ckks` gives the margins alone.
"""

from __future__ import annotations

import functools
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
    if summary is None:
        summary = spectra.summarize(subject)
    diff = m.copy()  # M - anchor I, then over the scale: exact, a power of two
    diff.flat[::m.shape[0] + 1] -= kind.anchor
    diff /= summary.scale
    # The largest |Re| or |Im| bounds ||diff|| from below, and the norm cannot
    # overflow once that is within trivial_tol.
    if (np.abs(diff.view(np.float64)).max() <= kind.trivial_tol
            and float(np.linalg.norm(diff)) <= kind.trivial_tol):
        return trivial
    return all_peripheral if summary.lP_or_mP == summary.dim ** 2 else other


def check_bounds(summary: SpectralSummary, classification: str,
                 markovian: bool = False) -> BoundReport:
    """Integer-margin report: the proved bounds, the CKKS-derived ceilings of
    :data:`_TABLE` (``markovian`` adds the Markovian-only rows), for d >= 2
    the comparison of the two ceilings, and the CKKS margins.

    The trivial map (identity channel, zero generator) is excluded from the
    inequalities (l0 = lP = d^2 there) and gets the comparison row alone.
    """
    d = summary.dim
    checks = _checks(summary.kind, d, classification, summary.l0_or_m0, summary.lP_or_mP,
                     markovian)
    return BoundReport(checks=checks, gap=2 * (d - 1), forbidden=2 * (d - 1) - 1,
                       ckks=_TABLE[summary.kind][0](summary))


@functools.cache
def _checks(kind: spectra.Kind, d: int, classification: str, l0: int, lp: int,
            markovian: bool) -> tuple[BoundCheck, ...]:
    """The rows of :func:`check_bounds`, built once per key and shared: they are frozen."""
    if classification not in kind.classes:
        raise ValueError(f"unknown {kind.name} classification {classification!r}")
    ceiling, loose = structural_ceiling(d), d * d - d
    counts = (l0, lp)
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
    checks += tuple(_le(f"ckks: {kind.counts[k]} <= d^2-d{suffix}", counts[k], loose)
                    for k, classes, suffix in _TABLE[kind][1]
                    if classification in classes and (markovian or not suffix))
    if d >= 2:  # d^2-2d+2 <= d^2-d; at d = 1, left by a faithful reduction, 1 <= 0
        checks += (_le("structural ceiling <= ckks ceiling", ceiling, loose),)
    return checks


def ckks(summary: SpectralSummary) -> CkksMargins:
    """The CKKS inequality at each distinct eigenvalue of a channel's or a
    generator's summary."""
    return _TABLE[summary.kind][0](summary)


def _running_sum(terms: np.ndarray) -> float:
    """The sum of ``terms`` in order, bit for bit Python's ``sum`` from int 0:
    ``np.sum`` adds pairwise, and ``+ 0.0`` makes a sum of -0.0 terms +0.0."""
    return float(np.add.accumulate(terms)[-1]) + 0.0 if terms.size else 0.0


def _margins(alpha, lhs, rhs, scale: float) -> CkksMargins:
    margin = rhs - lhs
    return CkksMargins(alpha, lhs, rhs, margin, margin >= -CKKS_NUM_TOL * scale)


def _ckks_generator(summary: SpectralSummary) -> CkksMargins:
    """Per-eigenvalue margins of Gamma_alpha <= (1/d) sum m_beta Gamma_beta.

    The sum runs over the distinct nonzero eigenvalues; the zero cluster is
    excluded on both sides (its rate vanishes anyway).
    """
    nonzero = np.arange(summary.values.size) != summary.anchor_index
    lhs = summary.rates[nonzero]
    rhs = _running_sum(summary.multiplicities[nonzero] * lhs) / summary.dim
    return _margins(summary.values[nonzero], lhs, np.full(lhs.size, rhs), max(summary.scale, rhs))


def _ckks_channel(summary: SpectralSummary) -> CkksMargins:
    """Margins of sum_beta l_beta x_beta <= d(d-1) + d x_alpha.

    The inequality is stated for the eigenvalues other than mu_0 = 1; the
    margin at the unit cluster (trivially nonnegative) is emitted too so the
    report covers every distinct eigenvalue.
    """
    d, re = summary.dim, summary.values.real
    total = _running_sum(summary.multiplicities * re)
    rhs = d * (d - 1) + d * re
    return _margins(summary.values, np.full(re.size, total), rhs, float(d * d))


# Kind -> (its CKKS margins, its CKKS-derived rows).  A row (k, classes,
# suffix) checks count k (0: l0/m0, 1: lP/mP) <= d^2-d for the classes
# named; a row with a suffix holds only for a Markovian map.
_TABLE = {
    spectra.CHANNEL: (_ckks_channel, ((0, ("unitary", "non-unitary"), ""),
                                      (1, ("non-unitary",), " (markovian)"))),
    spectra.GENERATOR: (_ckks_generator, ((0, ("non-hamiltonian",), ""),
                                          (1, ("non-hamiltonian",), ""))),
}
