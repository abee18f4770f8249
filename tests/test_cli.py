import collections
import csv
import ctypes
import dataclasses
import functools
import gc
import inspect
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import helpers
from oqspectra import (analysis, asymptotics, bounds, campaign, cli, constructions, gkls,
                       linalg, spectra, superop)
from oqspectra.cli import main
from oqspectra.constructions import (
    phase_damping_channel,
    saturating_dissipative_generator,
    saturating_hamiltonian_generator,
)
from oqspectra.superop import from_kraus

# verify --dims 2,3,4,6 --per-dim 3 --seed 1, as the code wrote it when
# channels and generators still had twin summarize/classify/analyze paths
GOLDEN_CSV = pathlib.Path(__file__).parent / "data" / "verify-golden.csv"
# analyze --json without "timings", one line per subject: {"argv" that writes
# the subject file, "exit", "report"}; the 4 constructors at d = 3, 4 and
# sample of each ensemble at d = 3, seeds 0 and 1, as written when spectral
# projections still took complex SVDs of M itself
GOLDEN_ANALYZE = pathlib.Path(__file__).parent / "data" / "analyze-golden.jsonl"


def openblas_threads() -> dict:
    """``{path: (get, set)}``: the thread-count functions of every OpenBLAS
    in /proc/self/maps, whichever module loaded it; empty off Linux."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    return {path: tuple(linalg.openblas_symbol(ctypes.CDLL(path), f"openblas_{op}_num_threads")
                        for op in ("get", "set")) for path in paths}


def assert_json_close(got, want, where="report"):
    """Integers, strings, booleans and nulls exact; floats to within
    1e-11 * max(1, |x|)."""
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (x, y) in enumerate(zip(got, want)):
            assert_json_close(x, y, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_json_bits_equal(got, want, where="report"):
    """Same types and structure everywhere, and every float bit for bit."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_json_bits_equal(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (x, y) in enumerate(zip(got, want)):
            assert_json_bits_equal(x, y, f"{where}[{k}]")
    elif isinstance(want, float):
        same = np.float64(got).tobytes() == np.float64(want).tobytes()
        assert same, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


class TestAnalysisPipeline:
    def test_phase_damping_report(self):
        rep = analysis.analyze(phase_damping_channel(3))
        assert rep.classification == "non-unitary"
        assert rep.summary.l0_or_m0 == rep.fixed_dim == 5
        assert rep.attractor_dim == 5
        assert rep.bounds_satisfied

    def test_generator_report_includes_commutant(self):
        rep = analysis.analyze(saturating_hamiltonian_generator(3))
        # {H}' for the two-level Hamiltonian is the saturating commutant
        assert rep.commutant_dim == 5
        assert rep.classification == "hamiltonian"

    def test_json_schema(self):
        rep = analysis.analyze(phase_damping_channel(2))
        obj = analysis.report_to_json(rep)
        assert obj["schema"] == "oqs/1"
        assert obj["subspaces"]["fixed_dim"] == 2
        json.dumps(obj)  # serializable

    def test_table_and_json_agree(self):
        rep = analysis.analyze(phase_damping_channel(3))
        obj = analysis.report_to_json(rep)
        table = analysis.report_to_table(rep)
        assert f"l0/m0           {obj['summary']['l0_or_m0']}" in table
        assert f"lP/mP           {obj['summary']['lP_or_mP']}" in table
        assert obj["classification"] in table

    def test_one_pass_separates_near_degenerate_unitary(self, rng):
        # eigenvalues 2e-8 apart stay apart at the default tolerance, with
        # no second pass at tighter ones
        u = np.diag([1.0, np.exp(2e-8j)])
        rep = analysis.analyze(from_kraus([u]))
        assert rep.bounds_satisfied
        assert rep.summary.l0_or_m0 == 2

    def test_one_eigendecomposition_per_subject(self, monkeypatch, rng):
        # Haar unitary at d = 4: 13 peripheral clusters, 12 of them
        # singletons read off the one eig; SVDs only for the fixed-space
        # cross-check, which also gives the multiple cluster at 1, and the
        # attractor's rank certificate.  Every decomposition runs in real
        # Hermitian coordinates.
        ch = from_kraus([helpers.haar(4, rng)])
        calls, dtypes = helpers.count_decompositions(monkeypatch)
        rep = analysis.analyze(ch, with_commutant=False)
        assert rep.attractor_dim == 16 and rep.fixed_dim == 4
        assert calls["real_eig"] + calls["eig"] + calls["eigvals"] == 1
        assert [dtype for name, dtype in dtypes if "eig" in name] == [np.float64]
        assert calls["svd"] + calls["svdvals"] <= 2
        assert calls["eig"] + calls["svdvals"] == 0
        assert all(dtype == np.float64 for _, dtype in dtypes)

    def test_one_svd_per_generic_generator(self, monkeypatch):
        # A simple kernel and lP = 1: the values-only cross-check is the one
        # SVD, of the real matrix in Hermitian coordinates, on the kernel
        config = constructions.SamplerConfig(seed=5, dim=5, ensemble="gkls-generic")
        gen = next(constructions.sample(config))
        calls, dtypes = helpers.count_decompositions(monkeypatch)
        rep = analysis.analyze(gen, with_commutant=False)
        assert rep.fixed_dim == rep.attractor_dim == 1
        assert [dtype for name, dtype in dtypes if "svd" in name] == [np.float64]
        assert calls["svd"] == 1 and calls["svdvals"] == 0

    @pytest.mark.parametrize("rate", [1e-8, 1e-10])
    def test_small_rate_generator_counts(self, rate):
        # H = 0 with the saturating dissipator scaled by rate: m0 = mP = 5 at
        # every rate, since the tolerances scale with the noise operators
        ops = constructions.saturating_dissipative_generator(3).noise_ops
        gen = gkls.build_generator(np.zeros((3, 3)), [np.sqrt(rate) * a for a in ops])
        rep = analysis.analyze(gen)
        assert (rep.summary.l0_or_m0, rep.summary.lP_or_mP) == (5, 5)
        assert rep.discrepancy is None and rep.bounds_satisfied

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the absolute cluster tolerance merges "
                              "eigenvalues 1 - O(1e-9) into the cluster at 1, which the "
                              "relative nullspace cut keeps apart")
    def test_near_identity_channel_counts(self):
        # e^{tL} of the saturating dissipator at t = 1e-9: l0 = lP = 5;
        # reported as "trivial" with a fixed-space discrepancy
        ch = gkls.exponentiate(constructions.saturating_dissipative_generator(3), 1e-9)
        rep = analysis.analyze(ch)
        assert (rep.summary.l0_or_m0, rep.summary.lP_or_mP) == (5, 5)
        assert rep.discrepancy is None and rep.bounds_satisfied


class TestCliAnalyze:
    def test_channel_file_table(self, tmp_path, capsys):
        path = tmp_path / "pd.json"
        path.write_text(json.dumps(superop.channel_to_json(phase_damping_channel(3))))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "classification  non-unitary" in out

    def test_channel_file_json(self, tmp_path, capsys):
        path = tmp_path / "pd.json"
        path.write_text(json.dumps(superop.channel_to_json(phase_damping_channel(3))))
        assert main(["analyze", str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == "oqs/1"
        assert obj["summary"]["l0_or_m0"] == 5

    @pytest.mark.parametrize("source", ["unitary", "cptp-stinespring", "gkls-unital"])
    def test_json_is_one_line_of_the_report(self, tmp_path, capsys, source):
        # one compact line from the C encoder, carrying report_to_json exactly
        if source == "unitary":
            subject, _ = constructions.saturating(source, 3)
        else:
            config = constructions.SamplerConfig(seed=6, dim=3, ensemble=source)
            subject = next(constructions.sample(config))
        path = tmp_path / "subject.json"
        path.write_text(cli._to_json(subject))
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        got = json.loads(out)
        obj = json.loads(path.read_text())
        subject = (gkls.generator_from_json(obj) if subject.kind == spectra.GENERATOR
                   else superop.channel_from_json(obj))
        want = analysis.report_to_json(analysis.analyze(subject))
        assert got.pop("timings").keys() == want.pop("timings").keys()
        assert_json_bits_equal(got, want)

    @pytest.mark.parametrize("dim", [2.9, "2", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("kind", ["channel", "generator"])
    def test_declared_dim_must_be_an_integer(self, tmp_path, capsys, kind, dim):
        # int() read 2.9 and "2" as the 2 of a 2 x 2 subject
        obj = (superop.channel_to_json(phase_damping_channel(2)) if kind == "channel"
               else gkls.generator_to_json(saturating_hamiltonian_generator(2)))
        obj["dim"] = dim
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 2
        assert "declared dim" in capsys.readouterr().err

    def test_generator_kind_inferred(self, tmp_path, capsys):
        from oqspectra import gkls
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(
            gkls.generator_to_json(saturating_hamiltonian_generator(3))))
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "generator"

    @pytest.mark.parametrize("lapack", ["ctypes", "scipy"])
    def test_matches_golden_json(self, tmp_path, capsys, monkeypatch, lapack):
        # "scipy": a numpy without the bundled OpenBLAS, with scipy's dgeev
        if lapack == "scipy":
            monkeypatch.setattr(linalg, "_LAPACK", None)
        lines = GOLDEN_ANALYZE.read_text().splitlines()
        assert len(lines) == 18
        for line in lines:
            case = json.loads(line)
            path = tmp_path / "subject.json"
            assert main(case["argv"] + ["--out", str(path)]) == 0
            capsys.readouterr()
            assert main(["analyze", str(path), "--json"]) == case["exit"], case["argv"]
            report = json.loads(capsys.readouterr().out)
            report.pop("timings")
            assert_json_close(report, case["report"], " ".join(case["argv"]))

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_subject_exit_2(self, tmp_path, capsys):
        # nesting deeper than the JSON decoder's recursion limit is a parse
        # error (exit 2), not a failed numerical cross-check (exit 1)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: maximum recursion depth exceeded")

    def test_validation_error_exit_2(self, tmp_path, capsys):
        # non-trace-preserving Kraus list
        bad = {"dim": 2, "kraus": [
            {"rows": 2, "cols": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["analyze", str(path)]) == 2

    def test_surviving_violation_exit_3(self, monkeypatch, capsys):
        # a forged map that fixes a 3-dimensional space (R = diag(1, 1, 1,
        # 1/2) in Hermitian coordinates, not CP): its counts l0 = lP = 3
        # agree with the nullspace, and break the channel ceiling 2 at d = 2
        forged = helpers.forged_channel(np.diag([1.0, 1.0, 1.0, 0.5]))
        monkeypatch.setattr(cli, "_load_subject", lambda path: forged)
        assert main(["analyze", "forged.json"]) == 3
        assert capsys.readouterr().err == ""
        rep = analysis.analyze(forged)
        assert (rep.fixed_dim, rep.attractor_dim, rep.summary.l0_or_m0) == (3, 3, 3)
        assert rep.discrepancy is None and not rep.bounds_satisfied

    @pytest.mark.parametrize("make, counts", [
        # the chain 1 ~ e^{i delta} at the default tolerance
        (lambda: from_kraus([np.diag([1.0, np.exp(9.9e-9j)])]), None),
        # the default tolerances scale with the rates: the right counts, exit 0
        (lambda: gkls.build_generator(np.zeros((3, 3)), np.sqrt(1e-8) * np.asarray(
            saturating_dissipative_generator(3).noise_ops)), (5, 5)),
        (lambda: gkls.exponentiate(saturating_dissipative_generator(3), 1e-9), None),
    ], ids=["adversarial-unitary", "small-rate-generator", "near-identity-channel"])
    def test_discrepancy_exit_1(self, tmp_path, capsys, make, counts):
        # the clustered count disagrees with the nullspace: the numerics
        # failed, which is no bound violation, and stderr names the mismatch
        subject = make()
        path = tmp_path / "subject.json"
        path.write_text(cli._to_json(subject))
        rep = analysis.analyze(subject)
        if counts is not None:
            assert main(["analyze", str(path)]) == 0 and capsys.readouterr().err == ""
            assert (rep.summary.l0_or_m0, rep.summary.lP_or_mP) == counts
            assert rep.discrepancy is None
            return
        assert main(["analyze", str(path)]) == 1
        assert rep.discrepancy and "!= clustered multiplicity" in rep.discrepancy
        assert capsys.readouterr().err == f"discrepancy: {rep.discrepancy}\n"

    @pytest.mark.parametrize("subject", [
        {"kraus": [{"rows": 2, "cols": 2, "entries": [["a", 0], [0, 0], [0, 0], [1, 0]]}]},
        {"kraus": [{"rows": 2, "cols": 2, "entries": [None, [0, 0], [0, 0], [1, 0]]}]},
        {"kraus": [{"rows": 2, "cols": 2, "entries": [[1, None], [0, 0], [0, 0], [1, 0]]}]},
        {"kraus": [{"rows": 2, "cols": 2, "entries": [[1, 0, 0], [0, 0], [0, 0], [1, 0]]}]},
        {"kraus": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0], [0, 0], [1, 0]]}]},
        {"kraus": [{"rows": 2, "cols": 2, "entries": 5}]},
        {"kraus": [{"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]}]},
        {"kraus": 5},
        {"hamiltonian": {"rows": 1, "cols": 1, "entries": [[0, 0]]}, "noise_ops": 3},
        [1, 2],
        {"kraus": [{"rows": 2, "cols": 2, "entries": [[1, 0]] * 4},
                   {"rows": 1, "cols": 1, "entries": [[0, 0]]}]},
        {"kraus": [{"rows": 1, "cols": 1, "entries": [[1, 0]]},
                   {"rows": 1.0, "cols": 1, "entries": [[0, 0]]}]},
        {"kraus": [{"rows": 1, "cols": 1, "entries": [[1, 0]]},
                   {"rows": 1, "cols": 1, "entries": [[float("nan"), 0]]}]},
        {"hamiltonian": {"rows": 2, "cols": 2, "entries": [[0, 0]] * 4},
         "noise_ops": [{"rows": 2, "cols": 2, "entries": [[0, 0]] * 3 + [[0, "a"]]}]},
        {"kraus": []},
    ], ids=["string", "null-entry", "null-part", "triple", "ragged", "scalar",
            "overflow", "kraus-number", "noise-number", "top-level-list", "mixed-shapes",
            "float-shape-in-list", "nan-in-list", "string-in-noise", "no-kraus"])
    def test_malformed_json_exit_2(self, tmp_path, capsys, subject):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(subject))
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("subject", [
        {"kraus": [{"rows": 1, "cols": 1, "entries": [[1, 0]]}]},
        {"superop": {"rows": 1, "cols": 1, "entries": [[1, 0]]}},
        {"hamiltonian": {"rows": 1, "cols": 1, "entries": [[0, 0]]}},
    ], ids=["kraus", "superop", "hamiltonian"])
    def test_one_dimensional_subject_exit_2(self, tmp_path, capsys, subject):
        # at d = 1 the ceiling comparison d^2-2d+2 <= d^2-d reads 1 <= 0:
        # such a subject is rejected on input, never reported as a violation
        path = tmp_path / "d1.json"
        path.write_text(json.dumps(subject))
        assert main(["analyze", str(path)]) == 2
        assert "dimension must be at least 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["analyze", "/nonexistent/file.json"]) == 2

    @pytest.mark.parametrize("subject", ["channel", "generator"])
    @pytest.mark.parametrize("option, value, name", [
        ("--tol-cluster", "nan", "cluster_tol"),
        ("--tol-cluster", "inf", "cluster_tol"),
        ("--tol-cluster", "0", "cluster_tol"),
        ("--tol-peripheral", "-1", "peripheral_tol"),
        ("--tol-peripheral", "nan", "peripheral_tol"),
        ("--tol-peripheral", "inf", "peripheral_tol"),
    ])
    def test_invalid_tolerance_exit_2(self, tmp_path, capsys, subject, option, value, name):
        obj = (superop.channel_to_json(phase_damping_channel(3)) if subject == "channel"
               else gkls.generator_to_json(saturating_dissipative_generator(3)))
        path = tmp_path / "subject.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path), option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["1", "2"])
    def test_channel_peripheral_tol_below_one(self, tmp_path, capsys, value):
        # from 1 on every eigenvalue is peripheral: phase damping would be unitary
        path = tmp_path / "pd.json"
        path.write_text(json.dumps(superop.channel_to_json(phase_damping_channel(3))))
        assert main(["analyze", str(path), "--tol-peripheral", value]) == 2
        assert "channel peripheral_tol must lie in [0, 1)" in capsys.readouterr().err

    def test_generator_peripheral_tol_below_scale(self, tmp_path, capsys):
        # the dissipator's scale is 1: at 2 its one rate, 0.5, would count as
        # peripheral and the generator as hamiltonian
        path = tmp_path / "diss.json"
        assert main(["construct", "dissipative", "--dim", "3", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--tol-peripheral", "2"]) == 2
        assert "generator peripheral_tol must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("source, d, seed, h, a, code, counts", [
        # rates at 8.0e-9 (a complex pair) and 1.1e-8 once straddled a
        # tightened peripheral_tol: mP = 3 > 2, a false violation (exit 3)
        ("gkls-generic", 2, 0, 1.0, 1e-4, 0, (1, 1)),
        # the kernel cluster, merged with rates near -2.8e-8 at its center
        # -1.9e-8, once fell outside a tightened peripheral_tol: no peripheral
        # cluster at all, and the attractor crashed (exit 2)
        ("gkls-unital", 3, 1, 4.0, 2e-4, 1, None),
    ], ids=["weak-dissipation-d2", "kernel-outside-peripheral"])
    def test_weak_dissipation_reproducers(self, tmp_path, capsys, source, d, seed, h, a,
                                          code, counts):
        g = constructions.draw(source, d, np.random.default_rng((seed, d)))
        path = tmp_path / "subject.json"
        path.write_text(cli._to_json(gkls.build_generator(h * g.hamiltonian, a * g.noise_ops)))
        assert main(["analyze", str(path), "--json"]) == code
        obj = json.loads(capsys.readouterr().out)
        assert obj["rechecked"] is False
        if counts is not None:
            assert (obj["summary"]["l0_or_m0"], obj["summary"]["lP_or_mP"]) == counts


class TestCliVerify:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify", "--dims", "2..3", "--per-dim", "5",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("source,dim,index,seed")
        # constructors rows + 5 per ensemble per dim
        assert len(text.splitlines()) == 1 + 2 * 4 + 2 * 5 * 5

    def test_campaign_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["verify", "--dims", "2", "--per-dim", "4",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constructors_only(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["verify", "--dims", "2..4", "--per-dim", "1",
                     "--ensembles", "constructors", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 4
        # every saturation margin exactly 0
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[8] == "0" and cells[9] == "0"

    def test_dims_list_syntax(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["verify", "--dims", "2,3", "--per-dim", "2",
                     "--ensembles", "haar-unitary", "--out", str(out)]) == 0
        dims = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
        assert dims == {"2", "3"}

    def test_dims_mixed_ranges_and_integers(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["verify", "--dims", "2..3,5", "--per-dim", "1",
                     "--ensembles", "haar-unitary", "--out", str(out)]) == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == [
            "2", "3", "5"]

    @pytest.mark.parametrize("value, item", [("2,x", "x"), ("2..", "2.."), ("..3", "..3"),
                                             ("2..3..4", "2..3..4")])
    def test_malformed_dims_exit_2(self, tmp_path, capsys, value, item):
        out = tmp_path / "d.csv"
        assert main(["verify", "--dims", value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --dims: {item!r} is neither an integer "
                                "nor a range a..b\n")
        assert captured.out == "" and not out.exists()

    def test_unknown_ensemble_exit_2(self, capsys):
        assert main(["verify", "--ensembles", "bogus"]) == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--dims", "5..2", "no dimensions to verify"),
        ("--ensembles", ",", "no sources to verify"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
        ("--env-dim", "0", "env_dim must be at least 1, got 0"),
        ("--env-dim", "-2", "env_dim must be at least 1, got -2"),
        ("--env-dim", "1", "env_dim must be at least 2 for cptp-stinespring, got 1"),
    ], ids=["empty-dims", "empty-sources", "negative-seed", "zero-env-dim", "negative-env-dim",
            "stinespring-unit-env-dim"])
    def test_empty_campaign_exit_2(self, capsys, option, value, message):
        # a campaign that checks nothing, or cannot draw its subjects, must
        # be rejected as input, not reported as success or as numerics
        assert main(["verify", option, value]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--dims", "2", "--ensembles", "haar-unitary,haar-unitary"],
         "repeated source 'haar-unitary'"),
        (["--dims", "3,3", "--ensembles", "constructors"], "repeated dimension 3"),
        (["--dims", "2,4,2", "--ensembles", "haar-unitary"], "repeated dimension 2"),
        (["--dims", "2..3,3", "--ensembles", "haar-unitary"], "repeated dimension 3"),
    ], ids=["repeated-source", "repeated-dim", "repeated-dim-apart", "repeated-dim-in-range"])
    def test_repeated_campaign_key_exit_2(self, tmp_path, capsys, argv, message):
        # each (source, dim, index) is one CSV row: a repeat would write the
        # same subject twice or two subjects under one key
        out = tmp_path / "campaign.csv"
        assert main(["verify", *argv, "--per-dim", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("ensemble, option, value, message", [
        ("cptp-stinespring", "--env-dim", "0", "env_dim must be at least 1, got 0"),
        ("gkls-generic", "--env-dim", "0", "env_dim must be at least 1, got 0"),
        ("gkls-generic", "--seed", "-1", "seed must be nonnegative, got -1"),
    ], ids=["stinespring-env-dim", "generator-env-dim", "negative-seed"])
    def test_sample_invalid_input_exit_2(self, capsys, ensemble, option, value, message):
        # the same checks as verify, whether or not the ensemble reads env_dim
        assert main(["sample", "--ensemble", ensemble, "--dim", "2", option, value]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err and captured.out == ""

    def test_sample_seed_beyond_64_bits(self, capsys):
        # any nonnegative seed is valid, for sample as for verify
        assert main(["sample", "--ensemble", "gkls-generic", "--dim", "2",
                     "--seed", str(2 ** 64)]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "--dims", "2", "--per-dim", "1", "--out", "{missing}/x.csv"],
        ["construct", "unitary", "--dim", "2", "--out", "{directory}"],
        ["sample", "--ensemble", "haar-unitary", "--dim", "2", "--out", "{missing}/y.json"],
    ], ids=["verify-missing-dir", "construct-directory", "sample-missing-dir"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # one error line and no traceback; verify fails before its campaign
        monkeypatch.setattr(campaign, "run_campaign", lambda config: pytest.fail("campaign ran"))
        argv = [a.format(missing=tmp_path / "missing", directory=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lapack", ["ctypes", "scipy"])
    def test_matches_golden_csv(self, tmp_path, monkeypatch, lapack):
        # every column exact; the float CKKS margin may drift at rounding level.
        # "scipy": a numpy without the bundled OpenBLAS, with scipy's dgeev
        if lapack == "scipy":
            monkeypatch.setattr(linalg, "_LAPACK", None)
        out = tmp_path / "golden.csv"
        assert main(["verify", "--dims", "2,3,4,6", "--per-dim", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        got_text, want_text = out.read_text(), GOLDEN_CSV.read_text()
        assert got_text.splitlines()[0] == want_text.splitlines()[0]
        got = list(csv.DictReader(got_text.splitlines()))
        want = list(csv.DictReader(want_text.splitlines()))
        assert len(got) == len(want) == 76
        for g, w in zip(got, want):
            x, y = g.pop("ckks_min_margin"), w.pop("ckks_min_margin")
            assert g == w
            assert x == y or abs(float(x) - float(y)) <= 1e-11 * max(1.0, abs(float(y))), g


class TestCliConstructAndSample:
    def test_construct_phase_damping_reanalyzed(self, tmp_path, capsys):
        path = tmp_path / "pd4.json"
        assert main(["construct", "phase-damping", "--dim", "4",
                     "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["l0_or_m0"] == 10

    def test_construct_hamiltonian(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        assert main(["construct", "hamiltonian", "--dim", "3", "--h", "0,1",
                     "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["l0_or_m0"] == 5

    def test_hamiltonian_report_has_no_negative_zero(self, tmp_path, capsys):
        # rates and CKKS sides are max(0, -Re lambda): +0.0 at Re lambda = 0,
        # which the golden compare, tolerance-based, would not tell from -0.0
        path = tmp_path / "h.json"
        assert main(["construct", "hamiltonian", "--dim", "3", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"rate": 0.0' in out and "-0.0" not in out

    def test_construct_dissipative_d2(self, tmp_path, capsys):
        path = tmp_path / "diss.json"
        assert main(["construct", "dissipative", "--dim", "2",
                     "--eigenpairs", "1,0", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["l0_or_m0"] == 2

    def test_construct_invalid_params_exit_2(self, capsys):
        assert main(["construct", "hamiltonian", "--dim", "3", "--h", "1,1"]) == 2

    @pytest.mark.parametrize("option, value, item, numbers", [
        ("--eigenpairs", "1", "1", "complex"),
        ("--eigenpairs", "1,0;1j", "1j", "complex"),
        ("--eigenpairs", "1,0;x,1", "x,1", "complex"),
        ("--h", "1", "1", "float"),
        ("--h", "1,2,3", "1,2,3", "float"),
        ("--h", "a,b", "a,b", "float"),
    ], ids=["one-eigenvalue", "second-pair-short", "not-complex", "one-h", "three-h",
            "not-float"])
    def test_construct_malformed_pair_exit_2(self, capsys, option, value, item, numbers):
        # the error names the flag and the item it could not read as two numbers
        kind = "dissipative" if option == "--eigenpairs" else "hamiltonian"
        assert main(["construct", kind, "--dim", "2", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {option}: {item!r} is not a pair a,b of {numbers} numbers\n"
        assert captured.out == ""

    def test_sample_streams_its_subjects(self, tmp_path):
        # each subject's line is written as it is drawn: the peak of 64
        # cptp-stinespring subjects at d = 6 is that of 4, not 16 times it
        def peak(count):
            argv = ["sample", "--ensemble", "cptp-stinespring", "--dim", "6", "--count",
                    str(count), "--seed", "2", "--out", str(tmp_path / f"s{count}.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # per-d caches
        small, large = peak(4), peak(64)
        assert len((tmp_path / "s64.jsonl").read_text().splitlines()) == 64
        assert large <= 1.5 * small, (small, large)

    def test_sample_unwritable_out_draws_nothing(self, tmp_path, capsys, monkeypatch):
        calls = helpers.count_calls(monkeypatch, constructions, ("normals",))
        assert main(["sample", "--ensemble", "haar-unitary", "--dim", "3", "--count", "50",
                     "--out", str(tmp_path / "missing" / "s.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert calls["normals"] == 0

    def test_sample_single_json(self, tmp_path):
        path = tmp_path / "s.json"
        assert main(["sample", "--ensemble", "cptp-stinespring", "--dim", "2",
                     "--seed", "9", "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        ch = superop.channel_from_json(obj)
        assert ch.dim == 2

    def test_sample_jsonl_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["sample", "--ensemble", "gkls-unital", "--dim", "2",
                         "--count", "3", "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 3

    def test_files_match_per_entry_writer(self, tmp_path, capsys):
        # entries written with one tolist() per matrix, byte for byte as
        # converting each entry with float() wrote them
        for name in constructions.SATURATING:
            assert main(["construct", name, "--dim", "3"]) == 0
            subject, _ = constructions.saturating(name, 3)
            assert capsys.readouterr().out == helpers.reference_subject_json(subject), name
        for ensemble in constructions.ENSEMBLES:
            assert main(["sample", "--ensemble", ensemble, "--dim", "3", "--count", "2",
                         "--seed", "5"]) == 0
            config = constructions.SamplerConfig(seed=5, dim=3, ensemble=ensemble, count=2)
            want = "".join(map(helpers.reference_subject_json, constructions.sample(config)))
            assert capsys.readouterr().out == want, ensemble

    def test_sampled_generator_analyzable(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["sample", "--ensemble", "gkls-generic", "--dim", "3",
                     "--seed", "13", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "generator"
        assert obj["summary"]["l0_or_m0"] == 1  # generic kernel is simple


class TestCampaignWork:
    """One decomposition and one summary per sampled subject."""

    CONFIG = campaign.CampaignConfig(dims=(3,), per_dim=5, sources=("gkls-generic",))

    def test_one_eig_per_sampled_generator(self, monkeypatch):
        calls, _ = helpers.count_decompositions(monkeypatch)
        result = campaign.run_campaign(self.CONFIG)
        rows = list(csv.DictReader(campaign.rows_to_csv(result.rows).splitlines()))
        assert [(row["rejects"], row["rechecked"]) for row in rows] == [("0", "0")] * 5
        assert calls["real_eig"] + calls["eig"] + calls["eigvals"] == 5
        assert calls["eig"] == 0

    def test_one_summary_per_sampled_subject(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, spectra, ("summarize",))
        cfg = campaign.CampaignConfig(dims=(2, 3), per_dim=3, seed=4,
                                      sources=campaign.ENSEMBLES)
        result = campaign.run_campaign(cfg)
        draws = len(result.rows)
        assert calls["summarize"] == draws

    def test_decompositions_per_subject(self, monkeypatch):
        # Every source at d = 6: one eig per drawn subject, one SVD of n rows
        # for each (the cross-check) and one for each multiple peripheral
        # cluster above the real axis, the one complex kind of n rows; the
        # rank certificate takes one block SVD per multiple peripheral cluster
        # of a subject with several peripheral clusters, complex where a
        # member is off the real axis
        calls, dtypes = helpers.count_decompositions(monkeypatch)
        reads = helpers.count_eigenvector_reads(monkeypatch)
        summaries, summarize = [], spectra.summarize

        def spy(*args, **kwargs):
            summaries.append(summarize(*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(spectra, "summarize", spy)
        dgeevs, dgeev = [], linalg._dgeev

        def spy(a, out):
            dgeevs.append(np.array(a))
            return dgeev(a, out)

        monkeypatch.setattr(linalg, "_dgeev", spy)
        cfg = campaign.CampaignConfig(dims=(6,), per_dim=2, sources=campaign.ALL_SOURCES)
        result = campaign.run_campaign(cfg)
        draws = len(result.rows)
        assert calls["real_eig"] == draws == len(summaries) == len(dgeevs)
        assert calls["eig"] == calls["eigvals"] == 0
        off_axis = sum(int(np.sum(s.peripheral & (s.multiplicities > 1)
                                  & (2 * s.values.imag > s.cluster_tol)))
                       for s in summaries)
        blocks = sum(int(np.sum(s.peripheral & (s.multiplicities > 1)
                                & (2 * s.values.imag >= -s.cluster_tol)))
                     for s in summaries if np.count_nonzero(s.peripheral) > 1)
        assert calls["svd", 36] == draws + off_axis
        assert calls["svd"] == calls["svd", 36] + blocks and calls["svdvals"] == 0
        svds = [dtype for name, dtype in dtypes if name in ("svd", "svdvals")]
        complex_blocks = sum(bool(read.imag.any()) for read in reads)
        assert off_axis > 0 and len(reads) == blocks and complex_blocks >= off_axis
        assert ([dtype for dtype in svds if dtype != np.float64]
                == [np.complex128] * (off_axis + complex_blocks))
        # one dgeev per subject, in task order: the matrix that each subject
        # hands dgeev when it is drawn and decomposed alone, and no other
        for row, matrix in zip(result.rows, list(dgeevs), strict=True):
            before = len(dgeevs)
            if row.source == campaign.CONSTRUCTORS:
                subject = constructions.saturating(list(constructions.SATURATING)[row.index],
                                                   row.dim)[0]
            else:
                rng = np.random.default_rng(tuple(map(int, row.seed.split("-"))) + (0,))
                subject = constructions.draw(row.source, row.dim, rng)
            subject.spectrum
            assert len(dgeevs) == before + 1, row
            assert dgeevs.pop().tobytes() == matrix.tobytes(), row

    @pytest.mark.parametrize("dims, per_dim, n_rows, blocks", [((2, 3, 4), 100, 1516, 610),
                                                               ((6, 7, 8), 10, 168, 72)],
                             ids=["verify-small", "verify-large"])
    def test_svds_per_subject(self, monkeypatch, dims, per_dim, n_rows, blocks):
        # the benchmark's verify workloads at seed 101, one campaign per source
        # and d, each one chunk: one eig per subject, one overlap pass and one
        # stacked cross-check SVD per campaign, and an SVD of n = d^2 rows per
        # subject (stacked ones counted by matrix), plus one for each of the 4
        # and 6 multiple peripheral clusters away from the anchor (constructors):
        # 1.003 and 1.037 per subject, where the rank SVD made 1.403 and 1.444.
        # The rank certificate adds one block SVD, of at most d^2 - 2d + 2 rows,
        # per multiple peripheral cluster of a subject with several peripheral
        # clusters (610 and 72), each the one read of that cluster's
        # eigenvectors, and never falls back to the whole peripheral set's
        calls, _ = helpers.count_decompositions(monkeypatch)
        passes = helpers.count_calls(monkeypatch, linalg, ("_overlaps", "anchored_svds"))
        reads = helpers.count_eigenvector_reads(monkeypatch)
        rows, by_source = 0, collections.Counter()
        for source in campaign.ALL_SOURCES:
            for d in dims:
                before = calls["svd", d * d]
                rows += len(campaign.run_campaign(campaign.CampaignConfig(
                    dims=(d,), per_dim=per_dim, sources=(source,), seed=101)).rows)
                by_source[source] += calls["svd", d * d] - before
        assert calls["real_eig"] == rows
        assert passes["_overlaps"] == passes["anchored_svds"] == len(campaign.ALL_SOURCES) * len(dims)
        assert sum(by_source.values()) == n_rows and calls["svd"] == n_rows + blocks
        assert round(n_rows / rows, 3) == {1512: 1.003, 162: 1.037}[rows]
        for source in ("haar-unitary", "gkls-hamiltonian"):
            assert by_source[source] == per_dim * len(dims)
        assert len(reads) == blocks

    def test_columns_only_when_a_basis_is_read(self, monkeypatch):
        # every source at d = 2, 3: the campaign reads no eigenvectors of the
        # whole peripheral set, whether the anchor cluster alone is peripheral
        # or the overlaps certify several clusters' rank; only the certificate
        # reads each multiple cluster's block
        summaries, summarize = [], spectra.summarize

        def spy(*args, **kwargs):
            summaries.append(summarize(*args, **kwargs))
            return summaries[-1]

        monkeypatch.setattr(spectra, "summarize", spy)
        reads = helpers.count_eigenvector_reads(monkeypatch)
        cfg = campaign.CampaignConfig(dims=(2, 3), per_dim=5, sources=campaign.ALL_SOURCES)
        assert len(campaign.run_campaign(cfg).rows) == len(summaries)
        several = [s for s in summaries if np.count_nonzero(s.peripheral) > 1]
        assert 0 < len(several) < len(summaries)
        blocks = sum(int(np.sum(s.peripheral & (s.multiplicities > 1)
                                & (2 * s.values.imag >= -s.cluster_tol))) for s in several)
        assert 0 < len(reads) == blocks

    def test_no_python_loop_over_clusters_or_kraus_operators(self):
        # a loop over the clusters (d^2 - d + 1 for a unitary), the d^2 Kraus
        # operators or a generator's d noise operators adds at least 4 frames
        # from d = 4 to d = 8 for each frame it enters per item; the noise
        # operators are drawn and validated as one stack, so nothing may grow
        root = pathlib.Path(spectra.__file__).parent

        def frames(source, d):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call" and pathlib.Path(frame.f_code.co_filename).parent == root

            for tracing in (False, True):  # the first run fills the per-d caches
                sys.setprofile(profile if tracing else None)
                try:
                    subject = constructions.draw(source, d, np.random.default_rng(3))
                    analysis.analyze(subject, with_commutant=False)
                finally:
                    sys.setprofile(None)
            return count

        for source in constructions.ENSEMBLES:
            small, large = frames(source, 4), frames(source, 8)
            assert large <= small, (source, small, large)

    def test_one_classification_per_sampled_subject(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, bounds, ("classify",))
        cfg = campaign.CampaignConfig(dims=(2, 3), per_dim=3, seed=4,
                                      sources=campaign.ENSEMBLES)
        result = campaign.run_campaign(cfg)
        draws = len(result.rows)
        assert calls["classify"] == draws

    def test_unadvertised_draw_is_one_oracle_mismatch_row(self, monkeypatch, tmp_path, capsys):
        # every gkls-generic draw is non-hamiltonian: with only "hamiltonian"
        # advertised, each one is an oracle mismatch row with its full CSV
        # record, from one draw and one summary, never a redraw
        ensemble = campaign.ENSEMBLES["gkls-generic"]
        monkeypatch.setitem(campaign.ENSEMBLES, "gkls-generic",
                            dataclasses.replace(ensemble, advertised=("hamiltonian",)))
        calls = helpers.count_calls(monkeypatch, spectra, ("summarize",))
        result = campaign.run_campaign(self.CONFIG)
        assert calls["summarize"] == len(result.rows) == 5
        assert result.oracle_mismatches == len(result.rows)
        assert result.structural_violations == result.ckks_unital_failures == 0
        for row in result.rows:
            assert row.failure == "oracle" and row.violation
            assert row.note == "oracle: non-hamiltonian not advertised by gkls-generic"
        rows = list(csv.DictReader(campaign.rows_to_csv(result.rows).splitlines()))
        assert [row["classification"] for row in rows] == ["non-hamiltonian"] * 5
        assert [(row["rejects"], row["rechecked"]) for row in rows] == [("0", "0")] * 5
        assert all(row["l0_or_m0"] == "1" and row["violation"] == "1" for row in rows)
        out = tmp_path / "c.csv"
        assert main(["verify", "--dims", "3", "--per-dim", "2", "--ensembles", "gkls-generic",
                     "--out", str(out)]) == 1
        assert "oracle mismatches:     2" in capsys.readouterr().err


class TestCampaignPhases:
    """A campaign runs each (source, d) cell as chunks, phase by phase."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_csv_does_not_depend_on_the_chunks(self, monkeypatch, seed):
        configs = [campaign.CampaignConfig(dims=(2, 3, 4), per_dim=20, seed=seed),
                   campaign.CampaignConfig(dims=(6,), per_dim=10, seed=seed)]
        default = [campaign.rows_to_csv(campaign.run_campaign(c).rows) for c in configs]
        for size in (1, 7):  # single subjects, and uneven cuts
            monkeypatch.setattr(campaign, "chunk_size", lambda d, size=size: size)
            assert [campaign.rows_to_csv(campaign.run_campaign(c).rows)
                    for c in configs] == default, size

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_analyze_is_the_chunk_of_one(self, d):
        def reports(outcomes):
            return [{k: v for k, v in analysis.report_to_json(r).items() if k != "timings"}
                    for r in outcomes]

        alone = reports(analysis.analyze(s) for _, s in helpers.oracle_subjects(d))
        chunk = analysis.run_phases(analysis.stages(s) for _, s in helpers.oracle_subjects(d))
        assert reports(chunk) == alone

    def test_exception_in_place_of_a_generator_passes_through(self):
        # run_phases returns an exception given in place of a generator as it
        # is, and the generators around it run on to their reports
        def reports(outcomes):
            return [{k: v for k, v in analysis.report_to_json(r).items() if k != "timings"}
                    for r in outcomes]

        planted = ValueError("planted")
        subjects = [s for _, s in helpers.oracle_subjects(2, seeds=1)][:2]
        outcomes = analysis.run_phases([analysis.stages(subjects[0]), planted,
                                        analysis.stages(subjects[1])])
        assert outcomes[1] is planted
        assert reports(outcomes[::2]) == reports(map(analysis.analyze, subjects))

    def test_memory_bounded_by_the_chunk(self):
        # A cell of 32 subjects at d = 10 runs as chunks of 8: its tracemalloc
        # peak exceeds that of 8 subjects by the rows kept, under two
        # subjects' decompositions, never by the 24 more subjects of a whole cell
        def peak(per_dim):
            config = campaign.CampaignConfig(dims=(10,), per_dim=per_dim, seed=2,
                                             sources=("haar-unitary",))
            tracemalloc.start()
            try:
                campaign.run_campaign(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # per-d caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            subject = constructions.draw("haar-unitary", 10, np.random.default_rng(2))
            subject.spectrum
            one = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert campaign.chunk_size(10) == 8
        assert one > 100_000
        assert peak(32) - peak(8) < 2 * one

    @pytest.mark.parametrize("source", ["haar-unitary", "gkls-generic"])
    def test_row_keeps_its_csv_record_alone(self, source):
        # A row keeps about 0.4 KB whatever d is, and no array: the memory the
        # rows free, once the per-d caches are filled, grows by at most a
        # quarter from d = 2 to d = 10 (rows holding their reports free
        # 2.5 -> 7.5 KB for haar-unitary).  Measured as what dropping the
        # result frees, so caches a run fills in passing do not count
        def kept_per_row(d):
            config = campaign.CampaignConfig(dims=(d,), per_dim=16, seed=3, sources=(source,))
            campaign.run_campaign(config)  # per-d caches
            tracemalloc.start()
            try:
                result = campaign.run_campaign(config)
                gc.collect()
                held, rows = tracemalloc.get_traced_memory()[0], len(result.rows)
                assert not any(isinstance(v, np.ndarray) for row in result.rows
                               for v in (*vars(row).values(), *row.fields))
                del result
                gc.collect()
                return (held - tracemalloc.get_traced_memory()[0]) / rows
            finally:
                tracemalloc.stop()

        small, large = kept_per_row(2), kept_per_row(10)
        assert 0 < large <= 1.25 * small, (small, large)

    def test_chunk_is_built_when_reached(self):
        # 100000 d = 2 tasks take about 22 MB as one list; the first chunk
        # holds chunk_size(2) = 1024 of them
        config = campaign.CampaignConfig(dims=(2,), per_dim=100_000, sources=("haar-unitary",))
        tracemalloc.start()
        try:
            first = next(campaign._chunks(config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [task.index for task in first] == list(range(campaign.chunk_size(2)))
        assert peak < 1_000_000, peak

    def test_each_phase_runs_over_the_chunk_before_the_next(self, monkeypatch):
        # one cell of 5 gkls-generic subjects is one chunk: every raw draw
        # comes before the stacked build, whose superoperators are one stack,
        # decomposed once as it normalizes and never again, with one pass for
        # every overlap and then one SVD for every cross-check, of the
        # rescaled matrices; then every summary comes before every attractor,
        # and no stage takes another SVD
        events = []
        for module, name in ((constructions, "normals"), (superop, "kraus_to_superop"),
                             (linalg, "eig_stack"), (linalg, "_overlaps"), (np.linalg, "svd"),
                             (spectra, "summarize"), (asymptotics, "attractor")):
            def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        config = campaign.CampaignConfig(dims=(3,), per_dim=5, sources=("gkls-generic",))
        assert len(campaign.run_campaign(config).rows) == 5
        assert events == (["normals"] * 5 + ["kraus_to_superop", "eig_stack", "_overlaps", "svd"]
                          + ["summarize"] * 5
                          + ["attractor"] * 5)


class TestParserReuse:
    """``main`` builds its parser once; each call still parses on its own."""

    def test_calls_parse_independently(self, monkeypatch, tmp_path, capsys):
        cli._parser.cache_clear()
        builds = helpers.count_calls(monkeypatch, cli, ("build_parser",))
        path = tmp_path / "pd.json"
        assert main(["construct", "phase-damping", "--dim", "3", "--out", str(path)]) == 0
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["l0_or_m0"] == 5
        assert main(["analyze", str(path)]) == 0  # --json does not carry over
        assert capsys.readouterr().out.startswith("kind            channel")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--json", "--table"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:  # the kind is inferred, never forced
            main(["analyze", str(path), "--kind", "channel", "--json"])
        assert exc.value.code == 2
        assert builds["build_parser"] == 1
        cli._parser.cache_clear()


class TestModuleEntryPoint:
    """``python -m oqspectra`` runs ``cli.main`` and exits with its code."""

    @staticmethod
    def run(*argv):
        src = pathlib.Path(cli.__file__).parents[1]  # the directory holding oqspectra/
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "oqspectra", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_verify_exits_0(self):
        done = self.run("verify", "--dims", "2", "--per-dim", "1", "--ensembles", "constructors")
        assert done.returncode == 0, done.stderr
        rows = list(csv.DictReader(done.stdout.splitlines()))
        assert [row["note"] for row in rows] == [
            "constructor:unitary", "constructor:phase-damping",
            "constructor:hamiltonian", "constructor:dissipative"]
        assert "subjects analyzed:     4" in done.stderr

    def test_invalid_input_exits_2(self):
        done = self.run("verify", "--dims", "3,3", "--ensembles", "constructors")
        assert done.returncode == 2 and done.stdout == ""
        assert "error: repeated dimension 3" in done.stderr


class TestNoScipy:
    """No command imports scipy, whose import costs more than a small analyze."""

    SCRIPT = """
import contextlib, io, json, sys
from oqspectra import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()

run("construct", "unitary", "--dim", "3", "--out", "u.json")
run("sample", "--ensemble", "cptp-stinespring", "--dim", "3", "--out", "c.json")
run("sample", "--ensemble", "gkls-unital", "--dim", "3", "--seed", "2", "--out", "g.json")
for path in ("u.json", "c.json", "g.json"):
    assert json.loads(run("analyze", "--json", path))["subspaces"]["commutant_dim"] >= 1
run("verify", "--dims", "2..3", "--per-dim", "2")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

    def test_commands_import_no_scipy(self, tmp_path):
        src = pathlib.Path(cli.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    BLOCKED = """
import sys
sys.modules["scipy"] = None  # import scipy raises ImportError, as where it is not installed
""" + SCRIPT + """
import numpy as np
from oqspectra import constructions, gkls, linalg
for call in (lambda: gkls.exponentiate(constructions.saturating_dissipative_generator(2)),
             lambda: (setattr(linalg, "_LAPACK", None), linalg.real_eig(np.eye(2)))):
    try:
        call()
    except ImportError as exc:
        assert "needs scipy" in str(exc), exc
    else:
        raise AssertionError("no ImportError without scipy")
"""

    def test_commands_run_without_scipy(self, tmp_path):
        # scipy is only a test extra: every command runs where it cannot be
        # imported, and its two lazy users say that they need it
        src = pathlib.Path(cli.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", self.BLOCKED], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestCampaignErrors:
    """A subject whose draw, decomposition or analysis stage raises is one
    error row, never an abort, whichever phase and place in its chunk."""

    CONFIG = campaign.CampaignConfig(dims=(2, 3), per_dim=2, seed=3,
                                     sources=("constructors", "gkls-generic", "haar-unitary"))
    ARGV = ["--dims", "2,3", "--per-dim", "2", "--seed", "3",
            "--ensembles", "constructors,gkls-generic,haar-unitary"]
    # Every phase after the raw draw, by the function that runs it.  Each is
    # called once per subject, in task order: the gkls builds decompose
    # their stacks when they normalize, and the chunk's stacked
    # decomposition every other subject.
    PHASES = ((linalg, "_dgeev"), (spectra, "summarize"), (bounds, "classify"),
              (asymptotics, "fixed_space"), (bounds, "check_bounds"),
              (asymptotics, "attractor"))

    def verify_with_failure(self, monkeypatch, tmp_path, capsys, argv, phase, call, error):
        """Exit code, CSV lines and stderr counters of ``verify argv`` where
        the call-th call of ``phase`` (a module and a name) raises ``error``."""
        with monkeypatch.context() as patch:
            if phase is not None:
                module, name = phase
                original, count = getattr(module, name), [0]

                def failing(*args, **kwargs):
                    count[0] += 1
                    if count[0] == call:
                        raise error("planted failure")
                    return original(*args, **kwargs)

                patch.setattr(module, name, failing)
            out = tmp_path / "c.csv"
            code = main(["verify", *argv, "--out", str(out)])
        return code, out.read_text().splitlines(), capsys.readouterr().err

    def assert_one_error_row(self, monkeypatch, tmp_path, capsys, argv, victim, phases, error):
        """Each phase's failure at the victim row changes that CSV line alone,
        to an error row (a discrepancy row where the fixed-space or attractor
        stage raises ConsistencyError), counted as one oracle mismatch: exit 1."""
        _, clean, _ = self.verify_with_failure(monkeypatch, tmp_path, capsys, argv,
                                               None, 0, error)
        for phase, call in phases:
            code, lines, err = self.verify_with_failure(monkeypatch, tmp_path, capsys, argv,
                                                        phase, call, error)
            fields = clean[victim + 1].split(",")
            if error is asymptotics.ConsistencyError and phase[1] in ("fixed_space",
                                                                      "attractor"):
                # a constructor's note is its name, a clean sampled row's empty
                note = " ".join(filter(None, (fields[-1], "planted failure")))
                want = ",".join(fields[:-2] + ["1", note])
            else:
                want = ",".join(fields[:4] + [""] * 8 + ["0", "", "1", f"error:{error.__name__}"])
            assert len(lines) == len(clean), phase
            assert [k for k, (a, b) in enumerate(zip(lines, clean)) if a != b] == [victim + 1]
            assert lines[victim + 1] == want, phase
            assert code == 1, phase
            assert f"subjects analyzed:     {len(clean) - 1}" in err
            assert "structural violations: 0" in err and "ckks unital failures:  0" in err
            assert "oracle mismatches:     1" in err

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError,
                                       asymptotics.ConsistencyError])
    @pytest.mark.parametrize("victim", [1, 9])  # a constructor, a sampled subject
    def test_error_row_leaves_other_rows_unchanged(self, monkeypatch, tmp_path, capsys, error,
                                                   victim):
        # rows 0-7 are the constructors, 8-11 gkls-generic and 12-15 haar-unitary
        draw = (constructions, "saturating") if victim < 8 else (constructions, "normals")
        phases = [(draw, victim % 8 + 1)] + [(phase, victim + 1) for phase in self.PHASES]
        self.assert_one_error_row(monkeypatch, tmp_path, capsys, self.ARGV, victim, phases,
                                  error)

    @pytest.mark.parametrize("victim", [0, 1, 2])  # first, middle and last of one chunk
    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError,
                                       asymptotics.ConsistencyError])
    def test_error_row_anywhere_in_a_chunk(self, monkeypatch, tmp_path, capsys, error, victim):
        argv = ["--dims", "3", "--per-dim", "3", "--seed", "5", "--ensembles", "haar-unitary"]
        assert campaign.chunk_size(3) >= 3
        phases = [((constructions, "normals"), victim + 1)]
        phases += [(phase, victim + 1) for phase in self.PHASES]
        self.assert_one_error_row(monkeypatch, tmp_path, capsys, argv, victim, phases, error)

    def test_non_hermiticity_preserving_middle_matrix_is_one_error_row(self, monkeypatch,
                                                                        tmp_path, capsys):
        # the Hermiticity test of the chunk's stacked eig fails for its middle
        # matrix alone: that row reads error:ValueError, every other row keeps
        # its bytes, and the campaign counts one oracle mismatch (exit 1)
        argv = ["--dims", "3", "--per-dim", "3", "--seed", "5", "--ensembles", "haar-unitary"]
        _, clean, _ = self.verify_with_failure(monkeypatch, tmp_path, capsys, argv, None, 0,
                                               ValueError)
        eig_stack, stacks = linalg.eig_stack, []

        def planted(stack):
            stack = np.array(stack)
            stacks.append(len(stack))
            stack[1, 0, 1] += 1.0  # E_10 -> E_00 without E_01 -> E_00
            return eig_stack(stack)

        monkeypatch.setattr(linalg, "eig_stack", planted)
        code, lines, err = self.verify_with_failure(monkeypatch, tmp_path, capsys, argv, None,
                                                    0, ValueError)
        assert stacks == [3]
        assert len(lines) == len(clean) == 4
        assert [k for k, (a, b) in enumerate(zip(lines, clean)) if a != b] == [2]
        fields = clean[2].split(",")
        assert lines[2] == ",".join(fields[:4] + [""] * 8 + ["0", "", "1", "error:ValueError"])
        assert code == 1
        assert "oracle mismatches:     1" in err and "structural violations: 0" in err

    def test_unconverged_lapack_is_one_error_row(self, monkeypatch):
        # LAPACK info > 0 in one subject's eig: that row reads
        # error:LinAlgError, and the campaign goes on to the same other rows
        clean = campaign.rows_to_csv(campaign.run_campaign(self.CONFIG).rows).splitlines()
        dgeev, count = linalg._dgeev, [0]

        def failing(*args, **kwargs):
            count[0] += 1
            *out, info = dgeev(*args, **kwargs)
            return (*out, 1 if count[0] == 10 else info)

        monkeypatch.setattr(linalg, "_dgeev", failing)
        result = campaign.run_campaign(self.CONFIG)
        lines = campaign.rows_to_csv(result.rows).splitlines()
        changed = [k for k, (a, b) in enumerate(zip(lines, clean)) if a != b]
        assert len(lines) == len(clean) and len(changed) == 1
        bad = result.rows[changed[0] - 1]
        assert bad.fields == campaign.ERROR_FIELDS == ("",) * 8 + (0, "")
        assert bad.note == "error:LinAlgError"
        assert result.oracle_mismatches == 1 and result.structural_violations == 0

    def test_discrepancy_is_a_numerical_row(self, monkeypatch, tmp_path, capsys):
        # every haar-unitary draw replaced by the adversarial unitary, whose
        # count l0 = 4 disagrees with its fixed space: a numerical row with
        # the discrepancy as its note, counted as an oracle mismatch (exit 1)
        adversarial = np.diag([1.0, np.exp(9.9e-9j)])
        ensemble = campaign.ENSEMBLES["haar-unitary"]
        monkeypatch.setitem(campaign.ENSEMBLES, "haar-unitary", dataclasses.replace(
            ensemble, build=lambda stack: [from_kraus([adversarial]) for _ in stack]))
        config = campaign.CampaignConfig(dims=(2,), per_dim=2, sources=("haar-unitary",))
        result = campaign.run_campaign(config)
        discrepancy = analysis.analyze(from_kraus([adversarial])).discrepancy
        assert [row.failure for row in result.rows] == ["numerical"] * 2
        assert all(row.violation and row.note == discrepancy
                   and row.note.startswith("fixed-space dimension 2") for row in result.rows)
        assert result.oracle_mismatches == 2
        assert result.structural_violations == result.ckks_unital_failures == 0
        out = tmp_path / "c.csv"
        assert main(["verify", "--dims", "2", "--per-dim", "2", "--ensembles", "haar-unitary",
                     "--out", str(out)]) == 1
        assert "oracle mismatches:     2" in capsys.readouterr().err

    def test_error_row_exits_1(self, monkeypatch, tmp_path, capsys):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("planted failure")

        monkeypatch.setattr(spectra, "summarize", failing)
        out = tmp_path / "c.csv"
        assert main(["verify", "--dims", "2", "--per-dim", "1", "--ensembles",
                     "gkls-generic", "--out", str(out)]) == 1
        assert out.read_text().splitlines()[1].endswith(",1,error:LinAlgError")
        assert "oracle mismatches:     1" in capsys.readouterr().err


class TestOneBlasThread:
    """Every CLI command runs on one BLAS thread and restores the counts."""

    @pytest.fixture
    def controls(self):
        controls = list(openblas_threads().values())
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        yield controls
        for (_, set_), count in zip(controls, before):
            set_(count)

    @pytest.mark.parametrize("outcome", [0, 2, 3])
    def test_one_thread_inside_and_restored_after(self, monkeypatch, capsys, controls, outcome):
        seen = []

        def command(args):
            seen.append([get() for get, _ in controls])
            if outcome == 2:
                raise ValueError("planted")
            return outcome

        monkeypatch.setattr(cli, "_cmd_construct", command)
        assert main(["construct", "unitary", "--dim", "2"]) == outcome
        assert seen == [[1] * len(controls)]
        assert [get() for get, _ in controls] == [2] * len(controls)

    def test_restored_after_unexpected_exception(self, monkeypatch, controls):
        def command(args):
            raise RuntimeError("planted")

        monkeypatch.setattr(cli, "_cmd_construct", command)
        with pytest.raises(RuntimeError):
            main(["construct", "unitary", "--dim", "2"])
        assert [get() for get, _ in controls] == [2] * len(controls)

    def test_argparse_exit_leaves_counts(self, capsys, controls):
        with pytest.raises(SystemExit):
            main(["construct", "no-such-kind", "--dim", "2"])
        assert [get() for get, _ in controls] == [2] * len(controls)

    def test_without_openblas_nothing_happens(self, monkeypatch, tmp_path):
        # a symbol lookup that finds no OpenBLAS: no thread control, and the command runs
        monkeypatch.setattr(linalg, "openblas_symbol", lambda lib, name: None)
        monkeypatch.setattr(linalg, "_blas_threads",
                            functools.cache(linalg._blas_threads.__wrapped__))
        assert linalg._blas_threads(np.linalg._umath_linalg) == (None, None)
        out = tmp_path / "u.json"
        assert main(["construct", "unitary", "--dim", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 2

    SCRIPT = """
import contextlib, ctypes, io, json
from oqspectra import analysis, cli, linalg

linalg._LAPACK = None  # a numpy without the bundled OpenBLAS: scipy's dgeev
analyze, seen = analysis.analyze, []

def spy(*args, **kwargs):
    report = analyze(*args, **kwargs)  # scipy's dgeev has run, so its OpenBLAS is loaded
    seen[-1]["inside"] = [get() for get, _ in openblas_threads().values()]
    return report

analysis.analyze = spy
for argv in (["construct", "unitary", "--dim", "3", "--out", "u.json"],
             ["analyze", "u.json"], ["analyze", "u.json"]):
    for _, set_ in openblas_threads().values():
        set_(2)
    seen.append({"before": sorted(openblas_threads())})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[-1]["after"] = {path: get() for path, (get, _) in openblas_threads().items()}
print(json.dumps(seen))
"""

    def test_scipy_fallback_limited_from_the_first_command(self, tmp_path):
        # in a fresh process, scipy's OpenBLAS loads during the commands, and
        # each analyze still runs with every loaded OpenBLAS on one thread
        if not openblas_threads():
            pytest.skip("no OpenBLAS loaded")
        src = pathlib.Path(cli.__file__).parents[1]
        script = inspect.getsource(openblas_threads) + self.SCRIPT
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        construct, *analyzes = json.loads(done.stdout)
        assert "inside" not in construct and len(analyzes) == 2
        for call in analyzes:
            assert call["inside"] == [1, 1]  # numpy's OpenBLAS and scipy's
        for call in (construct, *analyzes):
            assert {path: call["after"][path] for path in call["before"]} == dict.fromkeys(
                call["before"], 2)
