"""What the benchmark ran on: cores, BLAS, library versions, settings.

The BLAS thread count is read (and, for the single-threaded reference
pass only, set) through the OpenBLAS C API of every OpenBLAS library the
process has loaded; numpy and scipy each bundle their own copy.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from contextlib import contextmanager

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _loaded_blas_paths() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    paths = {line.split()[-1] for line in lines if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def _symbol(lib, stem: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, prefix + stem + suffix, None)
            if fn is not None:
                return fn
    return None


class _Blas:
    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        self.name = os.path.basename(path)
        self._get = _symbol(lib, "get_num_threads")
        self._set = _symbol(lib, "set_num_threads")
        config = _symbol(lib, "get_config")
        if config is not None:
            config.restype = ctypes.c_char_p
            self.config = config().decode(errors="replace").strip()
        else:
            self.config = "unknown"

    @property
    def threads(self) -> int | None:
        return int(self._get()) if self._get is not None else None

    def set_threads(self, n: int) -> None:
        if self._set is not None:
            self._set(int(n))


def blas_libraries() -> list[_Blas]:
    libs = []
    for path in _loaded_blas_paths():
        try:
            libs.append(_Blas(path))
        except OSError:
            continue
    return libs


@contextmanager
def blas_threads(n: int):
    """Run the body with every loaded OpenBLAS limited to ``n`` threads."""
    libs = [lib for lib in blas_libraries() if lib.threads is not None]
    before = [lib.threads for lib in libs]
    for lib in libs:
        lib.set_threads(n)
    try:
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set_threads(count)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _default_tolerances() -> dict:
    """Every module-level ``*TOL*`` constant of the loaded oqspectra modules."""
    tols = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("oqspectra.") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if attr.isupper() and "TOL" in attr and isinstance(value, float):
                tols[f"{name.split('.', 1)[1]}.{attr}"] = value
    return tols


def describe() -> dict:
    """Host record; call after oqspectra (and so numpy/scipy) is imported."""
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": [{"library": lib.name, "config": lib.config, "threads": lib.threads}
                 for lib in blas_libraries()],
        "env": {key: os.environ.get(key, "unset") for key in (
            "OQS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "tolerances": _default_tolerances(),
    }
