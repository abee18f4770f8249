"""Full analysis pipeline: validate -> spectra -> asymptotics -> bounds.

One pass: one summary, one classification, one nullspace cross-check and
one bound check, every default tolerance in units of the subject's scale
(:func:`spectra.scale`).  The clustered multiplicity is cross-checked
against the nullspace dimension; a mismatch is the report's
``discrepancy``: the numerics failed, not a theorem, and callers count it
apart from a violation by consistent counts (CLI exit 1, not 3; the
campaign's ``numerical`` rows).  :func:`report_to_json` alone writes the
``oqs/1`` record, whose ``rechecked`` field is always false.

:func:`stages`, the one pipeline, yields after each stage.  :func:`analyze` runs
one; :func:`run_phases` runs a chunk phase by phase through :func:`linalg.each`,
so a subject whose stage raises one of ``ERRORS`` skips its later stages alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import GeneratorType

import numpy as np

from . import asymptotics, bounds, commutants, linalg, spectra
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
    discrepancy: str | None = None  # cross-check mismatch, if any

    @property
    def bounds_satisfied(self) -> bool:
        return self.bound_report.all_satisfied and self.discrepancy is None


def analyze(subject, cluster_tol: float | None = None, peripheral_tol: float | None = None,
            markovian: bool = False, with_commutant: bool = True) -> AnalysisReport:
    """Analyze a channel or a generator in one pass; a tolerance left None is
    the default.  ``markovian`` adds the Markovian-only CKKS-derived channel bound."""
    pipeline = stages(subject, cluster_tol, peripheral_tol, markovian, with_commutant)
    while True:
        try:
            next(pipeline)
        except StopIteration as stop:
            return stop.value


def stages(subject, cluster_tol: float | None = None, peripheral_tol: float | None = None,
           markovian: bool = False, with_commutant: bool = True):
    """:func:`analyze` as a generator that yields after each stage: the
    decomposition, summary, classification, fixed-space cross-check, bound
    check, attractor and, if asked, commutant.  Returns the report."""
    timings: dict = {}

    def timed(key, stage, *args):
        t = time.perf_counter()
        value = stage(*args)
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t
        yield
        return value

    yield from timed("spectra", getattr, subject, "spectrum")  # the one eigendecomposition
    summary = yield from timed("spectra", spectra.summarize, subject, cluster_tol, peripheral_tol)
    classification = yield from timed("spectra", bounds.classify, subject, summary)
    # Null(M - I) or Null(L), cross-checked against the clustered multiplicity
    fixed_dim, discrepancy = yield from timed("spectra", _certified, asymptotics.fixed_space,
                                              subject, summary)
    report = yield from timed("spectra", bounds.check_bounds, summary, classification, markovian)
    attractor_dim, failure = yield from timed("asymptotics", _certified, asymptotics.attractor,
                                              subject, summary)
    commutant_dim = None
    if with_commutant:
        commutant_dim = yield from timed("commutant", _commutant_dim, subject)
    return AnalysisReport(classification=classification, summary=summary, fixed_dim=fixed_dim,
                          attractor_dim=attractor_dim, commutant_dim=commutant_dim,
                          bound_report=report, timings=timings,
                          discrepancy=discrepancy or failure)


def _certified(stage, subject, summary) -> tuple[int, str | None]:
    """The dimension ``stage`` certifies, or -1 and its ConsistencyError's message."""
    try:
        return stage(subject, summary).dimension, None
    except asymptotics.ConsistencyError as exc:
        return -1, str(exc)


def run_phases(pipelines) -> list:
    """Run generators such as :func:`stages` phase by phase: every one takes
    its step up to its next ``yield``, in order, before any takes the next.
    Returns each one's return value, or the exception that ended it
    (:func:`linalg.each`) or was given in its place."""
    outcomes = list(pipelines)
    while any(isinstance(outcome, GeneratorType) for outcome in outcomes):
        outcomes = linalg.each(_step, outcomes)
    return outcomes


def _step(pipeline):
    """A generator after its next step, or its return value once it ends; else as it is."""
    if isinstance(pipeline, GeneratorType):
        try:
            next(pipeline)
        except StopIteration as stop:
            return stop.value
    return pipeline


def _commutant_dim(subject) -> int:
    """Commutant of the Kraus set (with adjoints) or of {H, A_k, A_k^dag}."""
    a = subject.kraus_operators() if subject.kind == spectra.CHANNEL else subject.noise_ops
    ops = np.concatenate([a, a.conj().transpose(0, 2, 1)])
    if subject.kind == spectra.GENERATOR:
        ops = np.concatenate([subject.hamiltonian[None], ops])
    return commutants.commutant_dimension(ops)


def report_to_json(report: AnalysisReport) -> dict:
    """The ``oqs/1`` record of a report, every field in schema order."""
    s, b = report.summary, report.bound_report
    kind_dim = {"kind": s.kind.name, "dim": s.dim}
    subject = {**kind_dim, "classification": report.classification}  # oqs/1 repeats it
    rates = s.rates.tolist() if s.kind == spectra.GENERATOR else None
    distinct = [{"value": [v.real, v.imag], "multiplicity": m, "peripheral": p, "real_part": v.real,
                 **({"rate": rates[k]} if rates is not None else {})}
                for k, (v, m, p) in enumerate(zip(s.values.tolist(), s.multiplicities.tolist(),
                                                  s.peripheral.tolist()))]
    ckks = [{"alpha": [alpha.real, alpha.imag], "lhs": lhs, "rhs": rhs, "margin": margin,
             "satisfied": ok}
            for alpha, lhs, rhs, margin, ok in zip(*(a.tolist() for a in vars(b.ckks).values()))]
    tolerances = {"cluster": s.cluster_tol, "peripheral": s.peripheral_tol}
    return {
        "schema": SCHEMA, **subject,
        "summary": {**kind_dim, "distinct": distinct, "l0_or_m0": s.l0_or_m0,
                    "lP_or_mP": s.lP_or_mP, "bulk_multiplicity": s.bulk_multiplicity,
                    "tolerances": tolerances},
        "subspaces": {"fixed_dim": report.fixed_dim, "attractor_dim": report.attractor_dim,
                      "commutant_dim": report.commutant_dim},
        "bounds": {**subject, "checks": [dict(vars(c)) for c in b.checks],  # fields in order
                   "gap": b.gap, "forbidden": b.forbidden, "ckks": ckks},
        "tolerances": tolerances, "timings": report.timings,
        "discrepancy": report.discrepancy, "rechecked": False,
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
