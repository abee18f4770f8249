"""Seeded verification campaigns over constructors and random ensembles.

One CSV row per analyzed subject.  Identical seeds give byte-identical CSV
files: every subject draws from its own ``default_rng((seed, dim-block,
index))`` stream and floats are written with a fixed 12-significant-digit
format.  A sampled subject is decomposed, summarized and classified once:
the default-tolerance summary and classification that accept it are the
ones the analysis reads.  A subject whose analysis raises (``ValueError``,
``LinAlgError``, ``ConsistencyError``) becomes a row with an empty report
and ``note=error:<type>``, counted as an oracle mismatch; it never aborts
the campaign.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import analysis, asymptotics, bounds, constructions, spectra
from .constructions import ENSEMBLES
from .spectra import SpectralSummary
from .superop import ValidationError

CONSTRUCTORS = "constructors"
ALL_SOURCES = (CONSTRUCTORS,) + tuple(ENSEMBLES)
MAX_RESAMPLES = 64
CKKS_NOTE = "ckks violated on unital sample"  # only where CKKS is proved

CSV_COLUMNS = (
    "source", "dim", "index", "seed", "kind", "classification",
    "l0_or_m0", "lP_or_mP", "margin_steady", "margin_peripheral",
    "ckks_min_margin", "ckks_satisfied", "rejects", "rechecked",
    "violation", "note",
)


@dataclass(frozen=True)
class CampaignConfig:
    dims: tuple[int, ...]
    per_dim: int
    sources: tuple[str, ...] = ALL_SOURCES
    seed: int = 0
    env_dim: int | None = None

    def __post_init__(self):
        if not self.dims:
            raise ValueError("no dimensions to verify")
        if not self.sources:
            raise ValueError("no sources to verify")
        unknown = set(self.sources) - set(ALL_SOURCES)
        if unknown:
            raise ValueError(f"unknown sources {sorted(unknown)}; pick from {ALL_SOURCES}")
        for what, items in (("dimension", self.dims), ("source", self.sources)):
            if len(set(items)) < len(items):  # one (source, dim, index) twice
                raise ValueError(f"repeated {what} {[x for x in items if items.count(x) > 1][0]!r}")
        if any(d < 2 for d in self.dims):
            raise ValueError("dimensions must be at least 2")
        if self.per_dim < 1:
            raise ValueError("per_dim must be at least 1")
        constructions.check_seed(self.seed)
        constructions.check_env_dim(self.env_dim)
        if self.env_dim == 1 and "cptp-stinespring" in self.sources:  # one Kraus operator: unitary
            raise ValueError("env_dim must be at least 2 for cptp-stinespring, got 1")


@dataclass(frozen=True)
class CampaignRow:
    source: str
    dim: int
    index: int
    seed: str
    report: analysis.AnalysisReport
    rejects: int = 0
    violation: bool = False
    note: str = ""


@dataclass
class CampaignResult:
    rows: list[CampaignRow] = field(default_factory=list)
    structural_violations: int = 0
    oracle_mismatches: int = 0
    ckks_unital_failures: int = 0

    @property
    def clean(self) -> bool:
        return (self.structural_violations == 0 and self.oracle_mismatches == 0
                and self.ckks_unital_failures == 0)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    rows = [_run_task(t) for t in _subject_tasks(config)]
    result = CampaignResult(rows=rows)
    for row in rows:
        if row.violation:
            if row.note == CKKS_NOTE:
                result.ckks_unital_failures += 1
            elif row.note.startswith(("oracle", "error:")):
                result.oracle_mismatches += 1
            else:
                result.structural_violations += 1
    return result


@dataclass(frozen=True)
class _Task:
    source: str
    dim: int
    index: int
    seed_key: tuple[int, ...] | None  # None for deterministic constructors
    env_dim: int | None


def _subject_tasks(config: CampaignConfig):
    for source in config.sources:
        for dim_i, d in enumerate(config.dims):
            count = len(constructions.SATURATING) if source == CONSTRUCTORS else config.per_dim
            for index in range(count):
                key = None
                if source != CONSTRUCTORS:
                    key = (config.seed, ALL_SOURCES.index(source), dim_i, index)
                yield _Task(source=source, dim=d, index=index,
                            seed_key=key, env_dim=config.env_dim)


def _run_task(task: _Task) -> CampaignRow:
    try:
        if task.source == CONSTRUCTORS:
            return _run_constructor(task)
        return _run_sampled(task)
    except (ValueError, np.linalg.LinAlgError, asymptotics.ConsistencyError) as exc:
        seed = "" if task.seed_key is None else "-".join(map(str, task.seed_key))
        return CampaignRow(source=task.source, dim=task.dim, index=task.index, seed=seed,
                           report=None, violation=True, note=f"error:{type(exc).__name__}")


def _run_constructor(task: _Task) -> CampaignRow:
    d = task.dim
    name = list(constructions.SATURATING)[task.index]
    subject, expected = constructions.saturating(name, d)
    report = analysis.analyze(subject, markovian=name == "phase-damping",
                              with_commutant=False)
    observed = (report.summary.l0_or_m0, report.summary.lP_or_mP)
    note, violation = f"constructor:{name}", True
    if observed != expected:
        note = f"oracle mismatch {name}: counts {observed} != advertised {expected}"
    elif not report.bounds_satisfied:
        note = f"constructor:{name} bound check failed"
    else:
        violation = False
    return CampaignRow(source=task.source, dim=d, index=task.index, seed="",
                       report=report, violation=violation, note=note)


def _run_sampled(task: _Task) -> CampaignRow:
    rng_key = task.seed_key
    rejects = 0
    note = ""
    subject = None
    for attempt in range(MAX_RESAMPLES):
        rng = np.random.default_rng(rng_key + (attempt,))
        try:
            subject = constructions.draw(task.source, task.dim, rng, task.env_dim)
        except ValidationError:
            rejects += 1
            continue
        accepted = _acceptable(task.source, subject)
        if accepted is not None:
            break
        rejects += 1
        subject = None
    if subject is None:
        return CampaignRow(source=task.source, dim=task.dim, index=task.index,
                           seed="-".join(map(str, rng_key)), report=None, rejects=rejects,
                           violation=True, note="oracle: resampling exhausted")

    summary, classification = accepted
    report = analysis.analyze(subject, with_commutant=False, summary=summary,
                              classification=classification)
    violation = not report.bounds_satisfied
    if violation:
        note = "bound violation" if report.discrepancy is None else report.discrepancy
    if ENSEMBLES[task.source].ckks_proved and not report.bound_report.ckks.satisfied.all():
        violation = True
        note = CKKS_NOTE
    return CampaignRow(source=task.source, dim=task.dim, index=task.index,
                       seed="-".join(map(str, rng_key)), report=report, rejects=rejects,
                       violation=violation, note=note)


def _acceptable(source: str, subject) -> tuple[SpectralSummary, str] | None:
    """The default-tolerance summary and classification if the subject lands
    in a classification its generic ensemble advertises, else None."""
    summary = spectra.summarize(subject)
    classification = bounds.classify(subject, summary)
    if classification not in ENSEMBLES[source].advertised:
        return None
    return summary, classification


def rows_to_csv(rows: list[CampaignRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        rep = row.report
        if rep is None:
            writer.writerow([row.source, row.dim, row.index, row.seed,
                             "", "", "", "", "", "", "", "", row.rejects,
                             "", int(row.violation), row.note])
            continue
        steady = next((c.margin for c in rep.bound_report.checks
                       if c.name.startswith(("l0", "m0"))), "")
        periph = next((c.margin for c in rep.bound_report.checks
                       if c.name.startswith(("lP", "mP"))), "")
        ckks = rep.bound_report.ckks
        ckks_min = ckks_ok = ""
        if ckks.margin.size:
            ckks_min, ckks_ok = f"{ckks.margin.min():.12g}", int(ckks.satisfied.all())
        writer.writerow([
            row.source, row.dim, row.index, row.seed, rep.kind.name,
            rep.classification, rep.summary.l0_or_m0, rep.summary.lP_or_mP,
            steady, periph, ckks_min, ckks_ok, row.rejects,
            int(rep.rechecked), int(row.violation), row.note,
        ])
    return buf.getvalue()
