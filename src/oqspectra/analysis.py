"""Full analysis pipeline: validate -> spectra -> asymptotics -> bounds.

An apparent bound violation is never recorded straight away: the clustered
multiplicity is first cross-checked against the nullspace dimension, then
the whole summary is recomputed at 10x tighter tolerances.  Only a
violation that survives both steps lands in the report, flagged so callers
(CLI exit codes, campaign counters) can react.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics, bounds, commutants, spectra
from .bounds import BoundReport
from .spectra import SpectralSummary

SCHEMA = "oqs/1"


@dataclass(frozen=True)
class AnalysisReport:
    classification: str
    summary: SpectralSummary
    fixed_dim: int  # nullspace dimension of (M - I) or L
    attractor_dim: int
    commutant_dim: int | None
    bound_report: BoundReport
    timings: dict
    discrepancy: str | None = None  # cross-check mismatch, if any survived
    rechecked: bool = False

    @property
    def bounds_satisfied(self) -> bool:
        return self.bound_report.all_satisfied and self.discrepancy is None


def analyze(subject,
            cluster_tol: float | None = None,
            peripheral_tol: float = spectra.DEFAULT_PERIPHERAL_TOL,
            markovian: bool = False,
            with_commutant: bool = True) -> AnalysisReport:
    """Analyze a channel or a generator: one summary and one classification
    at the given tolerances, a second of each only when the re-analysis
    protocol runs.  ``markovian`` adds the Markovian-only CKKS-derived
    channel bound."""
    timings: dict = {}
    t0 = time.perf_counter()
    summary = spectra.summarize(subject, cluster_tol, peripheral_tol)
    timings["spectra"] = time.perf_counter() - t0

    classification = bounds.classify(subject, summary)
    fixed_dim, discrepancy = _nullspace_dim(subject, summary)
    report = _bound_report(summary, classification, markovian)
    rechecked = False

    if discrepancy is not None or not report.all_satisfied:
        # Re-analysis protocol: 10x tighter tolerances before recording.
        rechecked = True
        summary = spectra.summarize(subject, summary.cluster_tol / 10.0,
                                    peripheral_tol / 10.0)
        classification = bounds.classify(subject, summary)
        fixed_dim, discrepancy = _nullspace_dim(subject, summary)
        report = _bound_report(summary, classification, markovian)

    t1 = time.perf_counter()
    try:
        attractor_dim = asymptotics.attractor(subject, summary=summary).dimension
    except asymptotics.ConsistencyError as exc:
        attractor_dim = -1
        discrepancy = discrepancy or str(exc)
    timings["asymptotics"] = time.perf_counter() - t1

    commutant_dim = None
    if with_commutant:
        t2 = time.perf_counter()
        commutant_dim = _commutant_dim(subject)
        timings["commutant"] = time.perf_counter() - t2

    return AnalysisReport(
        classification=classification,
        summary=summary,
        fixed_dim=fixed_dim,
        attractor_dim=attractor_dim,
        commutant_dim=commutant_dim,
        bound_report=report,
        timings=timings,
        discrepancy=discrepancy,
        rechecked=rechecked,
    )


def _nullspace_dim(subject, summary) -> tuple[int, str | None]:
    """Dimension of Null(M - I) or Null(L); mismatch message if it disagrees
    with the clustered multiplicity."""
    try:
        return asymptotics.fixed_space(subject, summary=summary).dimension, None
    except asymptotics.ConsistencyError as exc:
        return -1, str(exc)


def _bound_report(summary, classification, markovian) -> BoundReport:
    derived = bounds.ckks_derived_bounds(summary, classification, markovian)
    return bounds.check_bounds(summary, classification, derived)


def _commutant_dim(subject) -> int:
    """Commutant of the Kraus set (with adjoints) or of {H, A_k, A_k^dag}."""
    a = subject.kraus_operators() if subject.kind == spectra.CHANNEL else subject.noise_ops
    ops = np.concatenate([a, a.conj().transpose(0, 2, 1)])
    if subject.kind == spectra.GENERATOR:
        ops = np.concatenate([subject.hamiltonian[None], ops])
    return commutants.commutant_dimension(ops)


def report_to_json(report: AnalysisReport) -> dict:
    summary = spectra.summary_to_json(report.summary)
    return {
        "schema": SCHEMA,
        "kind": report.summary.kind.name,
        "dim": report.summary.dim,
        "classification": report.classification,
        "summary": summary,
        "subspaces": {
            "fixed_dim": report.fixed_dim,
            "attractor_dim": report.attractor_dim,
            "commutant_dim": report.commutant_dim,
        },
        "bounds": bounds.report_to_json(report.bound_report),
        "tolerances": summary["tolerances"],
        "timings": report.timings,
        "discrepancy": report.discrepancy,
        "rechecked": report.rechecked,
    }


def report_to_table(report: AnalysisReport) -> str:
    """Human-readable rendering with the same numeric content as the JSON."""
    lines = [
        f"kind            {report.summary.kind.name}",
        f"dim             {report.summary.dim}",
        f"classification  {report.classification}",
        f"l0/m0           {report.summary.l0_or_m0}",
        f"lP/mP           {report.summary.lP_or_mP}",
        f"bulk            {report.summary.bulk_multiplicity}",
        f"fixed dim       {report.fixed_dim}",
        f"attractor dim   {report.attractor_dim}",
        f"commutant dim   {report.commutant_dim}",
        f"gap / forbidden {report.bound_report.gap} / {report.bound_report.forbidden}",
        "distinct eigenvalues (value, multiplicity, peripheral):",
    ]
    summary = report.summary
    for value, mult, peripheral in zip(summary.values.tolist(), summary.multiplicities.tolist(),
                                       summary.peripheral.tolist()):
        lines.append(f"  {value.real:+.9f}{value.imag:+.9f}j"
                     f"  x{mult}  {'peripheral' if peripheral else 'bulk'}")
    lines.append("bound checks:")
    for c in report.bound_report.checks:
        status = "ok " if c.satisfied else "VIOLATED"
        lines.append(f"  [{status}] {c.name}: observed {c.observed}, "
                     f"bound {c.bound}, margin {c.margin}")
    margins = report.bound_report.ckks.margin
    if margins.size:
        lines.append(f"ckks margins    min {margins.min():.6g} over {margins.size} eigenvalues")
    lines.append(f"tolerances      cluster {report.summary.cluster_tol:.3g}, "
                 f"peripheral {report.summary.peripheral_tol:.3g}")
    if report.discrepancy:
        lines.append(f"DISCREPANCY     {report.discrepancy}")
    return "\n".join(lines)
