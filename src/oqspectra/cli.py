"""Command-line front end: analyze subjects, run verification campaigns,
construct the saturating examples, emit sampled subjects.

Exit codes: 0 success, 2 validation/parse failure or an unwritable
``--out``, 3 bound violation (for CI use); `verify` additionally exits 1 on
oracle mismatches that are not bound violations.  Reports and subjects are
written as compact JSON lines: Python's C encoder runs only without indent.

Each command runs with every loaded OpenBLAS limited to one thread and puts
the previous counts back on exit.  The matrices are at most 144 x 144
(d <= 12); at that size BLAS threads only add wake-up stalls.  Library
calls keep the process's own settings.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import sys

from . import analysis, campaign, constructions, gkls, spectra, superop
from .superop import ValidationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqspectra",
        description="Spectral analysis of quantum channels and GKLS generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full pipeline on a JSON subject file")
    p_analyze.add_argument("path", help="a channel, or a generator if it has a hamiltonian")
    p_analyze.add_argument("--tol-cluster", type=float, default=None)
    p_analyze.add_argument("--tol-peripheral", type=float,
                           default=spectra.DEFAULT_PERIPHERAL_TOL)
    p_analyze.add_argument("--markovian", action="store_true",
                           help="apply the Markovian-only CKKS-derived channel bound")
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", dest="as_json")
    fmt.add_argument("--table", action="store_false", dest="as_json")
    p_analyze.set_defaults(as_json=False)

    p_verify = sub.add_parser("verify", help="seeded verification campaign")
    p_verify.add_argument("--dims", default="2..4",
                          help="comma list of integers and inclusive ranges, e.g. 2..4,6")
    p_verify.add_argument("--per-dim", type=int, default=100)
    p_verify.add_argument("--ensembles", default=",".join(campaign.ALL_SOURCES),
                          help=f"comma list from {campaign.ALL_SOURCES}")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--env-dim", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="write the campaign CSV here")

    p_construct = sub.add_parser("construct", help="emit a saturating example")
    p_construct.add_argument("kind", choices=list(constructions.SATURATING))
    p_construct.add_argument("--dim", type=int, required=True)
    p_construct.add_argument("--h", default="0,1",
                             help="h1,h2 for the two-level Hamiltonian examples")
    p_construct.add_argument("--eigenpairs", default="1,0",
                             help="semicolon list of complex pairs, e.g. '1,0;1j,-1j'")
    p_construct.add_argument("--out", default=None)

    p_sample = sub.add_parser("sample", help="emit seeded random subjects")
    p_sample.add_argument("--ensemble", choices=constructions.ENSEMBLES, required=True)
    p_sample.add_argument("--dim", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--env-dim", type=int, default=None)
    p_sample.add_argument("--out", default=None,
                          help="single JSON object, or JSON lines when count > 1")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call reuses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _one_blas_thread():
            if args.command == "analyze":
                return _cmd_analyze(args)
            if args.command == "verify":
                return _cmd_verify(args)
            if args.command == "construct":
                return _cmd_construct(args)
            return _cmd_sample(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(get, set)`` thread-count functions of every OpenBLAS this process
    has loaded (numpy and scipy each bundle their own copy), looked up once.
    Empty where none is found, e.g. with MKL or off Linux."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        paths = [p for p in paths if p.startswith("/")]
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = _openblas_function(lib, "get_num_threads")
        set_ = _openblas_function(lib, "set_num_threads")
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


def _openblas_function(lib, stem: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + stem + suffix, None)
            if fn is not None:
                return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def _load_subject(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        if "hamiltonian" in obj:
            return gkls.generator_from_json(obj)
        return superop.channel_from_json(obj)
    except TypeError as exc:  # e.g. a number where a list of matrices belongs
        raise ValueError(f"{path}: malformed subject JSON: {exc}") from exc


def _cmd_analyze(args) -> int:
    report = analysis.analyze(_load_subject(args.path),
                              cluster_tol=args.tol_cluster,
                              peripheral_tol=args.tol_peripheral, markovian=args.markovian)
    if args.as_json:
        print(json.dumps(analysis.report_to_json(report)))
    else:
        print(analysis.report_to_table(report))
    return 0 if report.bounds_satisfied else 3


def _parse_dims(spec: str) -> tuple[int, ...]:
    """A comma list whose items are each an integer or an inclusive range a..b."""
    dims = []
    for item in filter(None, map(str.strip, spec.split(","))):
        lo, dots, hi = item.partition("..")
        try:
            dims += range(int(lo), int(hi) + 1) if dots else [int(lo)]
        except ValueError:
            raise ValueError(f"--dims: {item!r} is neither an integer nor a range a..b") from None
    return tuple(dims)


def _cmd_verify(args) -> int:
    config = campaign.CampaignConfig(
        dims=_parse_dims(args.dims),
        per_dim=args.per_dim,
        sources=tuple(tok.strip() for tok in args.ensembles.split(",") if tok.strip()),
        seed=args.seed,
        env_dim=args.env_dim,
    )
    with _emit(args.out) as fh:  # an unwritable --out fails before the campaign
        result = campaign.run_campaign(config)
        fh.write(campaign.rows_to_csv(result.rows))
    print(f"subjects analyzed:     {len(result.rows)}", file=sys.stderr)
    print(f"structural violations: {result.structural_violations}", file=sys.stderr)
    print(f"oracle mismatches:     {result.oracle_mismatches}", file=sys.stderr)
    print(f"ckks unital failures:  {result.ckks_unital_failures}", file=sys.stderr)
    if result.structural_violations or result.ckks_unital_failures:
        return 3
    if result.oracle_mismatches:
        return 1
    return 0


def _parse_pairs(spec: str) -> tuple[tuple[complex, complex], ...]:
    pairs = []
    for chunk in spec.split(";"):
        a, b = chunk.split(",")
        pairs.append((complex(a), complex(b)))
    return tuple(pairs)


def _cmd_construct(args) -> int:
    h1, h2 = (float(tok) for tok in args.h.split(","))
    subject, _ = constructions.saturating(args.kind, args.dim, (h1, h2),
                                          _parse_pairs(args.eigenpairs))
    with _emit(args.out) as fh:
        fh.write(_to_json(subject) + "\n")
    return 0


def _cmd_sample(args) -> int:
    config = constructions.SamplerConfig(
        seed=args.seed, dim=args.dim, ensemble=args.ensemble,
        count=args.count, env_dim=args.env_dim)
    text = "".join(_to_json(subject) + "\n" for subject in constructions.sample(config))
    with _emit(args.out) as fh:
        fh.write(text)
    return 0


def _to_json(subject) -> str:
    return json.dumps(superop.channel_to_json(subject) if subject.kind == spectra.CHANNEL
                      else gkls.generator_to_json(subject))


def _emit(out: str | None):
    """The writer of every command's output: the file ``out``, or stdout."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


if __name__ == "__main__":
    sys.exit(main())
