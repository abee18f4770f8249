"""Full analysis pipeline: validate -> spectra -> asymptotics -> bounds.

One pass: one summary, one classification, one nullspace cross-check and
one bound check, every default tolerance in units of the subject's scale
(:func:`spectra.scale`).  The clustered multiplicity is cross-checked
against the nullspace dimension; a mismatch is the report's
``discrepancy``: the numerics failed, not a theorem, and callers count it
apart from a violation by consistent counts (CLI exit 1, not 3; the
campaign's ``numerical`` rows).  :func:`report_to_json` alone writes the
``oqs/1`` record, whose ``rechecked`` field is always false.

:func:`analyze_stack`, the one pipeline, runs a list of subjects stage by stage:
one stacked summary (:func:`spectra.summaries`), then one plain pass per later
stage through :func:`linalg.each`, so a subject whose stage raises one of
``ERRORS`` skips its later stages alone.  :func:`analyze` is its stack of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    """Analyze a channel or a generator in one pass, the stack of one of
    :func:`analyze_stack`; a tolerance left None is the default.  ``markovian``
    adds the Markovian-only CKKS-derived channel bound."""
    return linalg.one(analyze_stack([subject], cluster_tol, peripheral_tol, [markovian],
                                    with_commutant))


def analyze_stack(subjects: list, cluster_tol: float | None = None,
                  peripheral_tol: float | None = None, markovian: list | None = None,
                  with_commutant: bool = True) -> list:
    """:func:`analyze` of each subject, all of one dimension (``markovian`` flags each
    Markovian one), stage by stage: the decomposition, the summary (one stack), the
    classification, the fixed-space cross-check, the bound check, the attractor and, if
    asked, the commutant each run over every live subject before the next starts.  Each
    entry is a report, or the ``ERRORS`` exception that a stage raised for it, or that
    was given in its place (:func:`linalg.each`).  A report's ``timings`` hold its
    stages' time over the whole stack."""
    start = time.perf_counter()
    subjects = linalg.each(_decomposed, subjects)  # the one eigendecomposition
    summaries = linalg.over_stack(lambda live: spectra.summaries(
        live, cluster_tol, peripheral_tol), subjects)
    classes = linalg.each(bounds.classify, subjects, summaries)
    # Null(M - I) or Null(L), cross-checked against the clustered multiplicity
    fixed = linalg.each(_certified(asymptotics.fixed_space), subjects, summaries, classes)
    checked = linalg.each(lambda summary, classification, markovian, _: bounds.check_bounds(
        summary, classification, markovian), summaries, classes,
        markovian or [False] * len(subjects), fixed)
    split = time.perf_counter()
    attractors = linalg.each(_certified(asymptotics.attractor), subjects, summaries, checked)
    end = time.perf_counter()
    timings, commutants = {"spectra": split - start, "asymptotics": end - split}, []
    if with_commutant:
        commutants = [linalg.each(lambda s, _: _commutant_dim(s), subjects, attractors)]
        timings["commutant"] = time.perf_counter() - end

    def report(summary, classification, fixed, bound_report, attractor, commutant_dim=None):
        (fixed_dim, discrepancy), (attractor_dim, failure) = fixed, attractor
        return AnalysisReport(classification=classification, summary=summary,
                              fixed_dim=fixed_dim, attractor_dim=attractor_dim,
                              commutant_dim=commutant_dim, bound_report=bound_report,
                              timings=dict(timings), discrepancy=discrepancy or failure)

    return linalg.each(report, summaries, classes, fixed, checked, attractors, *commutants)


def _decomposed(subject):
    """``subject`` after its one eigendecomposition, cached on it."""
    subject.spectrum
    return subject


def _certified(stage):
    """``stage(subject, summary)``'s certified dimension and None, or -1 and its
    ConsistencyError's message."""
    def certified(subject, summary, _):
        try:
            return stage(subject, summary).dimension, None
        except asymptotics.ConsistencyError as exc:
            return -1, str(exc)

    return certified


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
