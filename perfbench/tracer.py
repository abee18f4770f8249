"""Span tracer that instruments oqspectra from outside the package.

``Tracer.install()`` replaces every public module-level function of the
oqspectra modules, and the LAPACK entry points of ``scipy.linalg`` and
``numpy.linalg``, with a wrapper that records one span per call: name,
start, end and parent.  Names a module imported directly
(``from .linalg import kron``, ``from .linalg import nullspace``) are
patched as well, so a call is seen whichever module makes it.
``deactivate()`` puts every original back and ``activate()`` the
wrappers again.

Spans live in per-thread arrays in memory.  ``summary()`` reduces them to
per-name counts, inclusive and self times (self = the span's duration
minus the durations of its child spans) and ``write()`` saves the raw
spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import threading
import time
import types

import numpy as np

LAYERS = ("linalg", "superop", "gkls", "spectra", "asymptotics", "commutants",
          "bounds", "constructions", "analysis", "campaign", "cli")

# Public LAPACK-backed entry points and the decomposition each one runs.
LAPACK = {
    "scipy.linalg": {
        "eig": "eig", "eigvals": "eig", "eigh": "eigh", "eigvalsh": "eigh",
        "svd": "svd", "svdvals": "svd", "null_space": "svd", "orth": "svd",
        "pinv": "svd", "lstsq": "svd", "polar": "svd",
        "qr": "qr", "rq": "qr", "schur": "schur", "hessenberg": "hess",
        "sqrtm": "schur", "logm": "schur", "lu": "lu", "lu_factor": "lu",
        "solve": "lu", "inv": "lu", "det": "lu", "cholesky": "chol",
        "expm": "expm",
    },
    "numpy.linalg": {
        "eig": "eig", "eigvals": "eig", "eigh": "eigh", "eigvalsh": "eigh",
        "svd": "svd", "matrix_rank": "svd", "pinv": "svd", "lstsq": "svd",
        "cond": "svd", "norm": "svd", "qr": "qr", "solve": "lu", "inv": "lu",
        "det": "lu", "slogdet": "lu", "cholesky": "chol",
    },
}
_SPECTRAL_ORDS = (2, -2, "nuc")
_COMPLEX_BYTES = 16
_REAL_BYTES = 8


class _Buffer:
    """Spans of one thread: parallel arrays indexed by span id."""

    __slots__ = ("name", "start", "end", "parent", "current")

    def __init__(self):
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.current = -1


def _svd_factor_bytes(entry: str, args, kwargs) -> int:
    """Bytes of the factors an SVD entry point returns, from shapes alone."""
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    shape = np.shape(a)
    if len(shape) != 2:
        return 0
    m, n = shape
    k = min(m, n)
    values_only = entry in ("svdvals", "norm", "cond", "matrix_rank")
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    if entry in ("null_space", "orth", "pinv", "lstsq", "polar"):
        full = entry == "null_space"
    elif not values_only:
        values_only = not kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if values_only:
        return k * _REAL_BYTES
    if full:
        return (m * m + n * n) * _COMPLEX_BYTES + k * _REAL_BYTES
    return (m * k + k * n) * _COMPLEX_BYTES + k * _REAL_BYTES


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.kind_of: list[str | None] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._max_lock = threading.Lock()  # OQS_THREADS > 1 calls from many threads
        self.svd_factor_bytes_max = 0
        self.commutant_stack_rows_max = 0

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str, layer: str, kind: str | None) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.kind_of.append(kind)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def span(self, fn, name: str, layer: str, kind: str | None = None, hook=None):
        """Wrap ``fn`` so every call records a span called ``name``.

        ``hook(args, kwargs)``, if given, sees each call first; a call it
        answers False for runs unrecorded."""
        name_id = self._name_id(name, layer, kind)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None and not hook(args, kwargs):
                return fn(*args, **kwargs)
            buf = self._buffer()
            i = len(buf.name)
            buf.name.append(name_id)
            buf.parent.append(buf.current)
            buf.end.append(0.0)
            buf.current = i
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                buf.current = buf.parent[i]

        return wrapper

    # -- hooks: computed sizes, recorded at the call ----------------------
    def _svd_hook(self, entry: str):
        def hook(args, kwargs):
            if entry == "norm":
                ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
                if ord_ not in _SPECTRAL_ORDS or np.ndim(args[0]) != 2:
                    return False  # elementwise norm: no decomposition, no span
            nbytes = _svd_factor_bytes(entry, args, kwargs)
            with self._max_lock:
                self.svd_factor_bytes_max = max(self.svd_factor_bytes_max, nbytes)
            return True
        return hook

    def _commutant_hook(self, args, kwargs):
        ops = args[0] if args else kwargs.get("ops")
        if isinstance(ops, (list, tuple)) and ops:  # never consume an iterator
            d = np.shape(ops[0])[0]
            with self._max_lock:
                self.commutant_stack_rows_max = max(self.commutant_stack_rows_max,
                                                    len(ops) * d * d)
        return True

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"oqspectra.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                hook = self._commutant_hook if (layer, attr) == ("commutants", "commutant") else None
                replacements[id(obj)] = self.span(obj, f"{layer}.{attr}", layer, hook=hook)
            if isinstance(vars(mod).get("json"), types.ModuleType):
                self._patch(mod, "json", self._json_shim(layer, vars(mod)["json"]))
        for modname, table in LAPACK.items():
            mod = importlib.import_module(modname)
            for entry, kind in table.items():
                fn = getattr(mod, entry, None)
                if fn is None:
                    continue
                hook = self._svd_hook(entry) if kind == "svd" else None
                wrapper = self.span(fn, f"lapack.{modname}.{entry}", "lapack", kind, hook)
                replacements[id(fn)] = wrapper
                self._patch(mod, entry, wrapper)
        # Rebind every name that refers to a wrapped function, wherever it
        # was imported, so direct imports are traced too.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "oqspectra" or name.startswith("oqspectra.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _json_shim(self, layer: str, json_mod):
        shim = types.SimpleNamespace(**{k: v for k, v in vars(json_mod).items()
                                        if not k.startswith("__")})
        for entry in ("load", "loads", "dump", "dumps"):
            setattr(shim, entry, self.span(getattr(json_mod, entry),
                                           f"{layer}.json.{entry}", layer))
        return shim

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), new))
        setattr(owner, attr, new)

    def activate(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def deactivate(self) -> None:
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)


    # -- reduction -----------------------------------------------------------
    def _arrays(self):
        for buf in self._buffers:
            n = len(buf.name)
            # Copies, so the arrays never export a buffer while growing.
            yield (np.frombuffer(buf.name, dtype=np.int32, count=n).copy(),
                   np.frombuffer(buf.start, dtype=np.float64, count=n).copy(),
                   np.frombuffer(buf.end, dtype=np.float64, count=n).copy(),
                   np.frombuffer(buf.parent, dtype=np.int32, count=n).copy())

    def summary(self) -> dict:
        """Per span name: calls, outermost calls, inclusive and self seconds.

        ``outer`` counts calls not nested in a span of the same layer (for
        LAPACK: decompositions made by oqspectra, not by another LAPACK
        entry point).
        """
        k = len(self.names)
        calls = np.zeros(k)
        outer = np.zeros(k)
        total = np.zeros(k)
        self_t = np.zeros(k)
        layer_codes = {layer: i for i, layer in enumerate(sorted(set(self.layer_of)))}
        layer_of = np.array([layer_codes[x] for x in self.layer_of], dtype=np.int64)
        for name, start, end, parent in self._arrays():
            if not len(name):
                continue
            dur = end - start
            child = np.zeros(len(name))
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            same_layer = np.zeros(len(name), dtype=bool)
            same_layer[has_parent] = (layer_of[name[parent[has_parent]]]
                                      == layer_of[name[has_parent]])
            calls += np.bincount(name, minlength=k)
            outer += np.bincount(name[~same_layer], minlength=k)
            total += np.bincount(name, weights=dur, minlength=k)
            self_t += np.bincount(name, weights=dur - child, minlength=k)
        return {
            self.names[i]: {"layer": self.layer_of[i], "kind": self.kind_of[i],
                            "calls": int(calls[i]), "outer": int(outer[i]),
                            "total_s": float(total[i]), "self_s": float(self_t[i])}
            for i in range(k) if calls[i]
        }

    def write(self, path: str) -> int:
        """Save every span (name, start, end, parent, thread) as ``.npz``."""
        parts = list(self._arrays())
        thread = [np.full(len(p[0]), t, dtype=np.int16) for t, p in enumerate(parts)]
        empty_i, empty_f = np.zeros(0, np.int32), np.zeros(0)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.concatenate([p[0] for p in parts] or [empty_i]),
            start=np.concatenate([p[1] for p in parts] or [empty_f]),
            end=np.concatenate([p[2] for p in parts] or [empty_f]),
            parent=np.concatenate([p[3] for p in parts] or [empty_i]),
            thread=np.concatenate(thread or [np.zeros(0, np.int16)]),
        )
        return sum(len(p[0]) for p in parts)
