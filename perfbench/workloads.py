"""The benchmark's workloads: their inputs, the CLI calls they time, and
the checks every call's output must pass.

A workload builds a list of ``Call``s.  Each call is one in-process
``oqspectra.cli.main(argv)`` invocation; its check turns the exit code,
stdout and stderr into an ``Outcome`` (subjects that failed, a digest of
the integer results for the determinism check, and counters).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

SOURCES = ("constructors", "haar-unitary", "cptp-stinespring", "gkls-generic",
           "gkls-unital", "gkls-hamiltonian")
ENSEMBLES = SOURCES[1:]

# CSV columns compared across repeated runs of one seed: everything except
# the float CKKS margin and the free-text note.
INTEGER_COLUMNS = ("source", "dim", "index", "seed", "kind", "classification",
                   "l0_or_m0", "lP_or_mP", "margin_steady", "margin_peripheral",
                   "ckks_satisfied", "rejects", "rechecked", "violation")
PERIPHERAL_ALL = ("unitary", "hamiltonian")


def ceiling(d: int) -> int:
    return d * d - 2 * d + 2


@dataclass
class Outcome:
    failed: int
    digest: tuple = ()
    counters: dict = field(default_factory=dict)


@dataclass
class Call:
    key: str
    argv: list[str]
    subjects: int
    check: Callable[[int, str, str], Outcome]


# -- verify ------------------------------------------------------------------

def _stderr_counters(err: str) -> dict:
    counters = {}
    for line in err.splitlines():
        key, _, value = line.rpartition(":")
        if key and value.strip().isdigit():
            counters[key.strip()] = int(value)
    return counters


def check_verify(expected_rows: int, rc: int, out: str, err: str) -> Outcome:
    """Exit 0, zero violation/mismatch/CKKS counters, every row inside the
    proved bounds, and the expected number of rows."""
    counters = _stderr_counters(err)
    flagged = sum(counters.get(k, 0) for k in (
        "structural violations", "oracle mismatches", "ckks unital failures"))
    rows = list(csv.DictReader(io.StringIO(out)))
    failed = max(0, expected_rows - len(rows))
    digest = []
    sampled = rejects = rechecked = 0
    for row in rows:
        try:
            d, l0, lp = int(row["dim"]), int(row["l0_or_m0"]), int(row["lP_or_mP"])
            in_bounds = (lp == d * d if row["classification"] in PERIPHERAL_ALL
                         else lp <= ceiling(d))
            ok = row["violation"] == "0" and l0 <= lp and l0 <= ceiling(d) and in_bounds
            rechecked += int(row["rechecked"])
            if row["seed"]:
                sampled += 1
                rejects += int(row["rejects"])
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
        digest.append(tuple(row.get(c) for c in INTEGER_COLUMNS))
    if (rc != 0 or flagged) and failed == 0:
        failed = expected_rows  # exit code or counters disagree with the rows
    return Outcome(failed=min(failed, expected_rows), digest=tuple(digest),
                   counters={"rechecked": rechecked, "sampled": sampled,
                             "draws": sampled + rejects})


def verify_workload(dims: tuple[int, ...], per_dim: int):
    """One ``verify`` call per source and dimension."""

    def build(cli_main, seed: int, workdir: str) -> list[Call]:
        calls = []
        for source in SOURCES:
            rows = 4 if source == "constructors" else per_dim
            for d in dims:
                argv = ["verify", "--dims", str(d), "--per-dim", str(per_dim),
                        "--ensembles", source, "--seed", str(seed)]
                calls.append(Call(f"{source}-d{d}", argv, rows,
                                  functools.partial(check_verify, rows)))
        return calls

    return build


# -- analyze-files -------------------------------------------------------------

# Constructor -> (l0, lP) it advertises at dimension d.
CONSTRUCTORS = {
    "unitary": lambda d: (ceiling(d), d * d),
    "phase-damping": lambda d: (ceiling(d), ceiling(d)),
    "hamiltonian": lambda d: (ceiling(d), d * d),
    "dissipative": lambda d: (ceiling(d), ceiling(d)),
}
# d -> seeds per ensemble.  Sized so that a 30-s run samples most files
# about three times: with 5 seeds at d <= 6, or d = 12 on top, calls that
# vary 2x from one run to the next get only one or two samples.
ANALYZE_DIMS = {3: 3, 4: 3, 5: 3, 6: 3, 8: 1, 10: 1}
# Default cptp-stinespring (K = d^2 Kraus operators) is kept out of the
# commutant at d >= 8: there it needs 1.1 GB at d = 8 and >= 6.4 GB at
# d >= 10 (ROADMAP item 2).  Those subjects use --env-dim d instead.
STINESPRING_FULL_ENV_MAX_DIM = 6


def check_analyze(expected: tuple[int, int] | None, rc: int, out: str, err: str) -> Outcome:
    """Exit 0, nullspace dimensions equal the clustered counts, and each
    constructor hits the ceiling and its advertised lP."""
    try:
        report = json.loads(out)
        summary, sub = report["summary"], report["subspaces"]
        counts = (summary["l0_or_m0"], summary["lP_or_mP"])
        ok = (rc == 0 and sub["fixed_dim"] == counts[0]
              and sub["attractor_dim"] == counts[1]
              and (expected is None or counts == tuple(expected)))
        digest = (report["classification"], *counts, sub["fixed_dim"],
                  sub["attractor_dim"], sub["commutant_dim"])
        rechecked = int(bool(report.get("rechecked")))
    except (ValueError, KeyError, TypeError):
        return Outcome(failed=1)
    return Outcome(failed=int(not ok), digest=digest, counters={"rechecked": rechecked})


def _build_analyze(cli_main, seed: int, workdir: str) -> list[Call]:
    files = os.path.join(workdir, "files")
    os.makedirs(files, exist_ok=True)
    calls = []

    def emit(key: str, argv: list[str], expected) -> None:
        path = os.path.join(files, key + ".json")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = cli_main(argv + ["--out", path])
        if rc != 0:
            raise RuntimeError(f"input generation failed: {' '.join(argv)} -> exit {rc}")
        calls.append(Call(key, ["analyze", path, "--json"], 1,
                          functools.partial(check_analyze, expected)))

    for d, seeds in ANALYZE_DIMS.items():
        for kind, advertised in CONSTRUCTORS.items():
            emit(f"{kind}-d{d}", ["construct", kind, "--dim", str(d)], advertised(d))
        for ensemble in ENSEMBLES:
            for s in range(seeds):
                argv = ["sample", "--ensemble", ensemble, "--dim", str(d),
                        "--seed", str(seed * 16 + s)]
                if ensemble == "cptp-stinespring" and d > STINESPRING_FULL_ENV_MAX_DIM:
                    argv += ["--env-dim", str(d)]
                emit(f"{ensemble}-d{d}-s{s}", argv, None)
    return calls


# Workload name -> build(cli_main, seed, workdir) -> calls.  Input sizes and
# the reasons for each workload are recorded in BENCHMARK.json.
WORKLOADS = {
    "verify-small": verify_workload((2, 3, 4), 100),
    "verify-large": verify_workload((6, 7, 8), 10),
    "analyze-files": _build_analyze,
}
