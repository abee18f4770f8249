"""Seeded verification campaigns over constructors and random ensembles.

One CSV row per analyzed subject.  Identical seeds give byte-identical CSV
files: every subject draws from its own ``default_rng((seed, source,
dim-block, index, 0))`` stream and floats are written with a fixed
12-significant-digit format.  Each (source, d) cell runs in task order as
chunks of at most :func:`chunk_size` subjects, phase by phase: the raw
draws one subject at a time, a stacked build, a stacked decomposition
(``dgeev`` once per matrix), each stage of ``analysis.analyze_stack`` (one
stacked summary, then one pass per stage), then the rows, a plain function
of each report.  A row is its CSV record: no report outlives its chunk.  A sampled
subject is drawn once and analyzed once, and each ensemble's advertised
classes make the campaign an oracle: a draw classified outside them is an
oracle mismatch row.  A report with a cross-check ``discrepancy`` is a
``numerical`` row, counted as an oracle mismatch: only consistent counts
make a bound violation.  A subject whose draw, build or stage raises
(``ValueError``, ``LinAlgError``, ``ConsistencyError``) goes on as that
exception (``linalg.each``) to :func:`run_campaign`, which alone makes it a
row with empty columns and ``note=error:<type>``, counted as an oracle
mismatch; no other subject is affected.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import analysis, constructions, linalg
from .constructions import ENSEMBLES

CONSTRUCTORS = "constructors"
ALL_SOURCES = (CONSTRUCTORS,) + tuple(ENSEMBLES)

CSV_COLUMNS = (
    "source", "dim", "index", "seed", "kind", "classification",
    "l0_or_m0", "lP_or_mP", "margin_steady", "margin_peripheral",
    "ckks_min_margin", "ckks_satisfied", "rejects", "rechecked",
    "violation", "note",
)
# The columns kind ... rechecked of a subject that has no report
ERROR_FIELDS = ("",) * 8 + (0, "")


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
    failure: str  # "", "structural", "oracle", "numerical" or "ckks"
    note: str
    fields: tuple = ERROR_FIELDS  # the CSV columns kind ... rechecked

    @property
    def violation(self) -> bool:
        return bool(self.failure)


@dataclass
class CampaignResult:
    rows: list[CampaignRow]
    structural_violations: int
    oracle_mismatches: int
    ckks_unital_failures: int


# Most subjects a chunk holds at dimension d: whole cells at --per-dim 100 for
# d <= 4 and at --per-dim 10 for d <= 8, and 8 from d = 10.  A full chunk of an
# ensemble peaks (tracemalloc, over a chunk of one, seed 1) at 6.7-8.9 MB at
# d = 3, 5.8-7.7 MB at d = 4, 4.9-6.7 MB at d = 8 and 10.8-15.2 MB at d = 12,
# as before the stacked summary, whose (k, n, n) label array (0.5 MB at d = 4,
# 1.3 MB at d = 12) stays under the stacked decomposition's peak.  A subject
# holds about 5 KB at d = 2, where 4096 would hold 20 MB: the cap keeps every
# chunk under 16 MB.
def chunk_size(d: int) -> int:
    return min(1024, max(8, 65536 // d**4))


def run_campaign(config: CampaignConfig) -> CampaignResult:
    rows = []
    for chunk in _chunks(config):
        for task, outcome in zip(chunk, linalg.each(_row, chunk, _reports(chunk))):
            if isinstance(outcome, Exception):
                outcome = ("oracle", f"error:{type(outcome).__name__}")
            rows.append(CampaignRow(task.source, task.dim, task.index,
                                    "-".join(map(str, task.seed_key or ())), *outcome))
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


def _chunks(config: CampaignConfig):
    """Each (source, d) cell's tasks, in task order, in chunks of ``chunk_size(d)``,
    each chunk built when it is reached."""
    for source in config.sources:
        for dim_i, d in enumerate(config.dims):
            count = len(constructions.SATURATING) if source == CONSTRUCTORS else config.per_dim
            size = chunk_size(d)
            for start in range(0, count, size):
                yield [_Task(source=source, dim=d, index=index, env_dim=config.env_dim,
                             seed_key=None if source == CONSTRUCTORS
                             else (config.seed, ALL_SOURCES.index(source), dim_i, index))
                       for index in range(start, min(count, start + size))]


def _reports(chunk: list[_Task]) -> list:
    """Each task's report (``analysis.analyze_stack``) on its decomposed subject, or the
    exception it raised."""
    source, d = chunk[0].source, chunk[0].dim
    names = list(constructions.SATURATING)
    if source == CONSTRUCTORS:
        subjects = linalg.each(lambda task: constructions.saturating(names[task.index], d)[0],
                               chunk)
    else:
        draws = linalg.each(lambda task: constructions.normals(
            source, d, np.random.default_rng(task.seed_key + (0,)), task.env_dim), chunk)
        subjects = linalg.over_stack(lambda raw: ENSEMBLES[source].build(np.stack(raw)), draws)
    subjects = linalg.over_stack(linalg.anchored_svds, linalg.decompose(subjects))
    markovian = [source == CONSTRUCTORS and names[task.index] == "phase-damping"
                 for task in chunk]
    return analysis.analyze_stack(subjects, markovian=markovian, with_commutant=False)


def _row(task: _Task, report) -> tuple:
    """A row's failure, note and CSV columns kind ... rechecked, read from its report
    before it is dropped.  A sampled subject's unadvertised class outranks a
    discrepancy, then a CKKS failure, then a bound violation."""
    name = list(constructions.SATURATING)[task.index] if task.source == CONSTRUCTORS else None
    failure = note = ""
    if name is not None:
        expected = constructions.advertised(name, task.dim)
        observed, note = (report.summary.l0_or_m0, report.summary.lP_or_mP), f"constructor:{name}"
        if observed != expected:
            failure = "oracle"
            note = f"oracle mismatch {name}: counts {observed} != advertised {expected}"
        elif report.discrepancy is not None:
            failure, note = "numerical", f"{note} {report.discrepancy}"
        elif not report.bounds_satisfied:
            failure, note = "structural", f"{note} bound check failed"
    elif report.classification not in ENSEMBLES[task.source].advertised:
        failure = "oracle"
        note = f"oracle: {report.classification} not advertised by {task.source}"
    elif report.discrepancy is not None:
        failure, note = "numerical", report.discrepancy
    elif ENSEMBLES[task.source].ckks_proved and not report.bound_report.ckks.satisfied.all():
        failure, note = "ckks", "ckks violated on unital sample"
    elif not report.bounds_satisfied:
        failure, note = "structural", "bound violation"
    checks, ckks = report.bound_report.checks, report.bound_report.ckks
    steady = next((c.margin for c in checks if c.name.startswith(("l0", "m0"))), "")
    periph = next((c.margin for c in checks if c.name.startswith(("lP", "mP"))), "")
    ckks_min = ckks_ok = ""
    if ckks.margin.size:
        ckks_min, ckks_ok = f"{ckks.margin.min():.12g}", int(ckks.satisfied.all())
    return failure, note, (report.summary.kind.name, report.classification,
                           report.summary.l0_or_m0, report.summary.lP_or_mP, steady, periph,
                           ckks_min, ckks_ok, 0, 0)  # rejects, rechecked: one draw, one pass


def rows_to_csv(rows: list[CampaignRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows((row.source, row.dim, row.index, row.seed, *row.fields,
                      int(row.violation), row.note) for row in rows)
    return buf.getvalue()
