"""Span tracer for the mubsig package, owned by the benchmark.

``Tracer.install`` replaces every public function of the mubsig modules,
under every name a mubsig module binds it to, with a wrapper that records
one span per call: (id, parent id, name, start ns, end ns, thread).  Each
thread keeps its own span stack, so spans opened on worker threads nest
under their own callers and never under spans of another thread.  Spans
stay in memory, in one flat int64 buffer per thread, until ``dump``
writes them out.  The program itself is not edited.

``aggregate`` reads a dumped trace back with the standard library only,
so run.py can summarise traces without importing numpy or mubsig.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

MODULES = ("finite_field", "quantum", "bases", "protocol", "streams",
           "harness", "report", "verify", "cli")

# lru_cache-wrapped public functions whose hit ratio the benchmark reports.
CACHED = ("bases.measurement_basis", "bases.entangled_basis",
          "protocol.pair_outcome_probs")

_FIELDS = 6  # id, parent, name index, start ns, end ns, thread index


class Tracer:
    """Collects spans in memory; install/uninstall swap module bindings."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _thread_state(self) -> tuple[list[int], array, int]:
        local = self._local
        try:
            return local.stack, local.buffer, local.thread
        except AttributeError:
            with self._buffers_lock:
                local.thread = len(self._buffers)
                local.buffer = array("q")
                self._buffers.append(local.buffer)
            local.stack = []
            return local.stack, local.buffer, local.thread

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into a layer."""
        stack, buffer, thread = self._thread_state()
        name_idx = self._index(name)
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            buffer.extend((span_id, parent, name_idx, start, end, thread))

    def _wrap(self, name: str, fn):
        name_idx = self._index(name)
        ids = self._ids
        state = self._thread_state
        clock = time.perf_counter_ns

        # The body repeats span() inline: a generator-based context manager
        # would add about a microsecond to each of ~10^6 traced calls.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buffer, thread = state()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.extend((span_id, parent, name_idx, start, end, thread))

        return traced

    def install(self) -> None:
        """Wrap each public mubsig function under every name bound to it."""
        if self._bindings:
            return
        import mubsig

        namespaces = [mubsig] + [importlib.import_module(f"mubsig.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                module = getattr(obj, "__module__", None) or ""
                if not module.startswith("mubsig."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{module.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self._originals[name] = obj
                self._bindings.append((namespace, attr, obj))
                setattr(namespace, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        """Restore the original bindings; recorded spans are kept."""
        for namespace, attr, obj in reversed(self._bindings):
            setattr(namespace, attr, obj)
        self._bindings.clear()

    def cache_info(self) -> dict[str, dict[str, int]]:
        out = {}
        for name in CACHED:
            fn = self._originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                out[name] = {"hits": info.hits, "misses": info.misses}
        return out

    def dump(self, prefix: Path) -> None:
        """Write ``<prefix>.spans`` (int64 rows) and ``<prefix>.json``."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans", "wb") as fh:
            for buffer in self._buffers:
                buffer.tofile(fh)
        meta = {"names": self.names, "cache": self.cache_info()}
        Path(f"{prefix}.json").write_text(json.dumps(meta))


def aggregate(prefix: Path) -> tuple[dict[str, dict], dict]:
    """Calls, total ns and self ns per span name for one dumped trace.

    Self time is a span's duration minus the durations of its direct
    children.  A parent always shares its children's thread, and each
    thread's buffer holds its spans in the order they ended, so every
    child comes before its parent and a span's child time is complete
    when the span itself is read.
    """
    meta = json.loads(Path(f"{prefix}.json").read_text())
    names = meta["names"]
    raw = array("q")
    raw.frombytes(Path(f"{prefix}.spans").read_bytes())
    child_ns: dict[int, int] = {}
    out: dict[str, dict] = {}
    for span_id, parent, name_idx, start, end, _ in zip(*[iter(raw)] * _FIELDS):
        duration = end - start
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + duration
        entry = out.get(names[name_idx])
        if entry is None:
            entry = out[names[name_idx]] = {"calls": 0, "total_ns": 0, "self_ns": 0}
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns.pop(span_id, 0)
    return out, meta
