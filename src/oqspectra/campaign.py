"""Seeded verification campaigns over constructors and random ensembles.

One CSV row per analyzed subject.  Identical seeds give byte-identical CSV
files: every subject draws from its own ``default_rng((seed, source,
dim-block, index, 0))`` stream and floats are written with a fixed
12-significant-digit format.  A sampled subject is drawn once and analyzed
once, and each ensemble's advertised classes make the campaign an oracle: a
draw classified outside them is an oracle mismatch row with its full report.
A report with a cross-check ``discrepancy`` is a ``numerical`` row, counted
as an oracle mismatch: only consistent counts make a bound violation.
A subject whose draw or analysis raises (``ValueError``, ``LinAlgError``,
``ConsistencyError``) becomes a row with an empty report and
``note=error:<type>``, counted as an oracle mismatch; it never aborts the
campaign.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import analysis, asymptotics, constructions
from .constructions import ENSEMBLES

CONSTRUCTORS = "constructors"
ALL_SOURCES = (CONSTRUCTORS,) + tuple(ENSEMBLES)

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
    failure: str  # "", "structural", "oracle", "numerical" or "ckks"
    note: str

    @property
    def violation(self) -> bool:
        return bool(self.failure)


@dataclass
class CampaignResult:
    rows: list[CampaignRow]
    structural_violations: int
    oracle_mismatches: int
    ckks_unital_failures: int


def run_campaign(config: CampaignConfig) -> CampaignResult:
    rows = [_run_task(t) for t in _subject_tasks(config)]
    counts = Counter(row.failure for row in rows)
    return CampaignResult(rows=rows, structural_violations=counts["structural"],
                          oracle_mismatches=counts["oracle"] + counts["numerical"],
                          ckks_unital_failures=counts["ckks"])


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
                           report=None, failure="oracle", note=f"error:{type(exc).__name__}")


def _run_constructor(task: _Task) -> CampaignRow:
    d = task.dim
    name = list(constructions.SATURATING)[task.index]
    subject, expected = constructions.saturating(name, d)
    report = analysis.analyze(subject, markovian=name == "phase-damping",
                              with_commutant=False)
    observed = (report.summary.l0_or_m0, report.summary.lP_or_mP)
    failure, note = "", f"constructor:{name}"
    if observed != expected:
        failure = "oracle"
        note = f"oracle mismatch {name}: counts {observed} != advertised {expected}"
    elif report.discrepancy is not None:
        failure, note = "numerical", f"constructor:{name} {report.discrepancy}"
    elif not report.bounds_satisfied:
        failure, note = "structural", f"constructor:{name} bound check failed"
    return CampaignRow(source=task.source, dim=d, index=task.index, seed="",
                       report=report, failure=failure, note=note)


def _run_sampled(task: _Task) -> CampaignRow:
    """One draw, one analysis.  An unadvertised class outranks a
    discrepancy, then a CKKS failure, then a bound violation."""
    ensemble = ENSEMBLES[task.source]
    rng = np.random.default_rng(task.seed_key + (0,))
    subject = constructions.draw(task.source, task.dim, rng, task.env_dim)
    report = analysis.analyze(subject, with_commutant=False)
    failure = note = ""
    if report.classification not in ensemble.advertised:
        failure = "oracle"
        note = f"oracle: {report.classification} not advertised by {task.source}"
    elif report.discrepancy is not None:
        failure, note = "numerical", report.discrepancy
    elif ensemble.ckks_proved and not report.bound_report.ckks.satisfied.all():
        failure, note = "ckks", "ckks violated on unital sample"
    elif not report.bounds_satisfied:
        failure, note = "structural", "bound violation"
    return CampaignRow(source=task.source, dim=task.dim, index=task.index,
                       seed="-".join(map(str, task.seed_key)), report=report,
                       failure=failure, note=note)


def rows_to_csv(rows: list[CampaignRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        rep = row.report
        if rep is None:
            writer.writerow([row.source, row.dim, row.index, row.seed,
                             "", "", "", "", "", "", "", "", 0,
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
            row.source, row.dim, row.index, row.seed, rep.summary.kind.name,
            rep.classification, rep.summary.l0_or_m0, rep.summary.lP_or_mP,
            steady, periph, ckks_min, ckks_ok, 0, 0,  # rejects, rechecked: one draw, one pass
            int(row.violation), row.note,
        ])
    return buf.getvalue()
