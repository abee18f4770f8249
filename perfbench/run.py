#!/usr/bin/env python3
"""Benchmark of the oqspectra command line: ``verify`` throughput and
``analyze`` latency, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every run imports ``oqspectra`` from ``src/`` of the checkout and drives
``oqspectra.cli.main`` in this process, one call after another (a closed
loop with one client).  OQS_THREADS, the BLAS thread count and every
tolerance stay at the user's defaults; the host record printed with each
result says what they were.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced calls.  The last line of
standard output is the JSON result.  perfbench/README.md defines every
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
SUBPROCESS_TIMEOUT_S = 170

from workloads import WORKLOADS  # noqa: E402  (stdlib only; keeps numpy out of setup_s)


def execute(cli_main, call):
    """Run one CLI call; return (seconds, outcome).  Never raises."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(call.argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    outcome = call.check(rc, out.getvalue(), err.getvalue())
    if outcome.failed:
        print(f"FAILED {call.key} (exit {rc}): {err.getvalue().strip()[-500:]}",
              file=sys.stderr)
    return seconds, outcome


def setup(workload: str, seed: int, workdir: str):
    """Import oqspectra, write the inputs and warm up; return the timing."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from oqspectra import cli

    calls = WORKLOADS[workload](cli.main, seed, workdir)
    execute(cli.main, calls[0])  # first-call costs belong to set-up
    return cli.main, calls, time.perf_counter() - start


def setup_in_subprocess(workload: str, seed: int) -> float:
    """Wall seconds of set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def shuffled(calls, seed: int, k: int) -> list:
    order = list(calls)
    random.Random(f"{seed}/{k}").shuffle(order)
    return order


def fill(calls, seed: int, seconds: float, wall: dict):
    """Yield calls pass after pass, in a fresh seeded order each pass, until
    ``seconds`` are spent.  The first pass runs every call.  After it a
    call runs only while its median time so far (from ``wall``) fits in the
    time left, so cheap calls gather more samples than the longest ones."""
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        ran = False
        for call in shuffled(calls, seed, k):
            if k and statistics.median(wall[call.key]) > deadline - time.perf_counter():
                continue
            ran = True
            yield call
        if not ran:
            return
        k += 1


# A shared 2-core host can run code up to 1.8x slower for tens of seconds
# at a time, CPU time included.  A fixed probe timed between calls tracks
# that state; reported call times are wall times rescaled to the host speed
# at which the probe takes PROBE_NOMINAL_S (the fast state of such a host).
PROBE_NOMINAL_S = 0.004


class Probe:
    """Times fixed work (a Python loop and ten 24x24 complex ``eigvals``)."""

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._matrix = np.random.default_rng(0).standard_normal((24, 24)) * (1 + 1j)
        self._eigvals = scipy.linalg.eigvals  # bound now, so tracing never sees it
        self.samples = []
        self._last = self.run()

    def run(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        for _ in range(10):
            self._eigvals(self._matrix)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def nominal(self, seconds: float) -> float:
        """Rescale a wall time that ended just now by the probes on either side."""
        before, self._last = self._last, self.run()
        return seconds * PROBE_NOMINAL_S / ((before + self._last) / 2)


class Tally:
    """Subjects attempted and failed; a repeat of a call whose integer
    results differ from its first run fails all of its subjects."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.digests: dict = {}

    def record(self, call, outcome) -> None:
        self.attempted += call.subjects
        first = self.digests.setdefault(call.key, outcome.digest)
        if outcome.digest != first:
            print(f"FAILED {call.key}: results differ between repeats", file=sys.stderr)
            self.failed += call.subjects
        else:
            self.failed += outcome.failed


def measure(cli_main, calls, seed: int, seconds: float, tally: Tally, probe: Probe):
    """End-to-end metrics from each call's median nominal time."""
    nominal = {call.key: [] for call in calls}
    wall = {call.key: [] for call in calls}
    for call in fill(calls, seed, seconds, wall):
        sec, outcome = execute(cli_main, call)
        tally.record(call, outcome)
        wall[call.key].append(sec)
        nominal[call.key].append(probe.nominal(sec))
    typical = [statistics.median(nominal[call.key]) for call in calls]
    subjects = sum(call.subjects for call in calls)
    raw_pass_s = sum(statistics.median(wall[call.key]) for call in calls)
    return {
        "subjects_per_s": (subjects / sum(typical), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(typical), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        # Printed, not bounded: on a 2-core host it spreads 20-38% between runs.
        "call_p90_ms": 1e3 * statistics.quantiles(typical, n=10)[-1],
        "wall_subjects_per_s": subjects / raw_pass_s,
        "wall_s": wall,
        "nominal_s": nominal,
    }


def measure_traced(cli_main, calls, seed: int, tally: Tally, probe: Probe, spans_path: str):
    """One pass over the calls, each run three ways in rotating order:
    plain, traced, and plain with BLAS limited to one thread.  Per-layer
    metrics come from the traced calls; the other two give the tracing
    overhead and the single-threaded BLAS reference on the same inputs."""
    import host
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.deactivate()
    busy = Counter()  # nominal seconds per mode
    traced_wall = 0.0
    subjects = 0
    counters = Counter()
    modes = ("plain", "traced", "blas1")
    for j, call in enumerate(shuffled(calls, seed, 0)):
        for mode in modes[j % 3:] + modes[:j % 3]:
            if mode == "traced":
                tracer.activate()
                try:
                    sec, outcome = execute(cli_main, call)
                finally:
                    tracer.deactivate()
                counters.update(outcome.counters)
                traced_wall += sec
            elif mode == "blas1":
                with host.blas_threads(1):
                    sec, outcome = execute(cli_main, call)
            else:
                sec, outcome = execute(cli_main, call)
            tally.record(call, outcome)
            busy[mode] += probe.nominal(sec)
        subjects += call.subjects
    spans = tracer.write(spans_path)
    table = tracer.summary()
    to_nominal_ms = 1e3 * busy["traced"] / traced_wall / subjects

    def per_subject(names):
        return sum(table.get(n, {}).get("calls", 0) for n in names) / subjects

    def self_s(pred):
        return sum(v["self_s"] for n, v in table.items() if pred(n, v))

    def pct(seconds_):
        return 100.0 * seconds_ / traced_wall

    lapack = [v for v in table.values() if v["layer"] == "lapack"]
    decomps = Counter()
    for v in lapack:
        decomps[v["kind"]] += v["outer"]
    metrics = {
        "linalg.as_complex_matrix_calls_per_subject": (per_subject(["linalg.as_complex_matrix"]), "count"),
        "linalg.kron_calls_per_subject": (per_subject(["linalg.kron"]), "count"),
        "linalg.decomps_per_subject": (sum(decomps.values()) / subjects, "count"),
        "linalg.eig_calls_per_subject": (decomps["eig"] / subjects, "count"),
        "linalg.svd_calls_per_subject": (decomps["svd"] / subjects, "count"),
        "linalg.eigh_calls_per_subject": (decomps["eigh"] / subjects, "count"),
        "linalg.qr_calls_per_subject": (decomps["qr"] / subjects, "count"),
        "linalg.lapack_self_ms_per_subject": (to_nominal_ms * sum(v["self_s"] for v in lapack), "ms"),
        "linalg.svd_factor_mb_max": (tracer.svd_factor_bytes_max / 2**20, "MB_computed"),
        "spectra.summaries_per_subject": (per_subject(["spectra.summarize_channel", "spectra.summarize_generator"]), "count"),
        "spectra.cluster_self_ms_per_subject": (to_nominal_ms * self_s(lambda n, v: n == "spectra.cluster"), "ms"),
        "bounds.classify_calls_per_subject": (per_subject(["bounds.classify_channel", "bounds.classify_generator"]), "count"),
        "asymptotics.attractor_total_ms_per_subject": (to_nominal_ms * table.get("asymptotics.attractor", {}).get("total_s", 0.0), "ms"),
        "commutants.total_pct": (pct(table.get("commutants.commutant", {}).get("total_s", 0.0)), "%"),
        "commutants.stack_rows_max": (tracer.commutant_stack_rows_max, "count"),
        "campaign.accept_ratio": (counters["sampled"] / counters["draws"] if counters["draws"] else 1.0, "ratio"),
        "campaign.csv_self_pct": (pct(self_s(lambda n, v: n == "campaign.rows_to_csv")), "%"),
        "cli.json_io_self_pct": (pct(self_s(lambda n, v: "json" in n)), "%"),
        "analysis.recheck_ratio": (counters["rechecked"] / subjects, "ratio"),
        "lapack.self_pct": (pct(sum(v["self_s"] for v in lapack)), "%"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (pct(self_s(lambda n, v: v["layer"] == layer)), "%")
    metrics["trace.overhead_ratio"] = (busy["traced"] / busy["plain"], "ratio")
    metrics["reference.subjects_per_s"] = (subjects / busy["plain"], "1/s")
    metrics["reference.blas1_subjects_per_s"] = (subjects / busy["blas1"], "1/s")
    extra = {"spans": spans, "traced_subjects": subjects, "nominal_busy_s": dict(busy),
             "traced_wall_s": traced_wall, "table": table}
    return metrics, extra


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oqspectra", "__init__.py")):
        print(f"error: no oqspectra sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cli_main, calls, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        return report(args, cli_main, calls, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def report(args, cli_main, calls, setup_s: float) -> int:
    import host

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tally = Tally()
    probe = Probe()
    if args.trace:
        metrics, extra = measure_traced(cli_main, calls, args.seed, tally, probe,
                                        stem + ".spans.npz")
    else:
        metrics, extra = measure(cli_main, calls, args.seed, args.seconds, tally, probe)
        # Not rescaled: in fresh interpreters set-up kept its wall time
        # while the probe in this process moved by 2x.
        setups = [setup_in_subprocess(args.workload, args.seed) for _ in range(SETUP_REPS)]
        metrics["setup_s"] = (statistics.median(setups), "s")
        extra.update(setup_wall_s=setups, setup_in_process_s=setup_s)
    extra["probe_s"] = probe.samples
    host_record = host.describe()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "host": host_record, "result": result, **extra}, fh, indent=1)
    print("host: " + json.dumps(host_record, sort_keys=True))
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} subjects)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:  # the same numbers under per-command names
        rate = metrics["subjects_per_s"][0]
        if args.workload == "analyze-files":
            print(f"analyze_wall_s = {len(calls) / rate:.6g} s")
            print(f"analyze_p50_ms = {metrics['call_p50_ms'][0]:.6g} ms")
            print(f"analyze_p90_ms = {extra['call_p90_ms']:.6g} ms (not bounded)")
        else:
            print(f"verify_subjects_per_s = {rate:.6g} 1/s")
        print(f"wall-clock subjects_per_s, not rescaled = {extra['wall_subjects_per_s']:.6g} 1/s")
    print(f"probe median {1e3 * statistics.median(probe.samples):.3f} ms, "
          f"nominal {1e3 * PROBE_NOMINAL_S:.3f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
