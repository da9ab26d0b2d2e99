"""Spans around the program's public calls, and cProfile grouping.

Spans are kept in memory (name, start, end, parent, op id) and written
out once when the benchmark ends.  The profile grouping turns one
cProfile pass over ``Machine.run`` into per-module self-time shares and
exact call counts.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Module (path fragment, with ``/`` separators) -> share metric name.
#: Shares are self time over all self time recorded inside Machine.run.
SHARE_MODULES = (
    ("repro/sim/engine.py", "sim.engine_share"),
    ("repro/sim/cpu.py", "sim.cpu_share"),
    ("repro/coherence/memsys.py", "mem.memsys_share"),
    ("repro/coherence/cachearray.py", "mem.cachearray_share"),
    ("repro/coherence/directory.py", "mem.directory_share"),
    ("repro/interconnect/", "noc.share"),
    ("repro/core/", "core.share"),
)

#: (path fragment, function names) -> exact call-count metric.
CALL_COUNTS = (
    ("repro/coherence/memsys.py", ("access",), "mem.access_calls"),
    ("repro/core/conflict.py", ("resolve",), "core.resolve_calls"),
    ("repro/sim/cpu.py", ("_tx_step", "_tx_step_burst"),
     "sim.tx_step_calls"),
)


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[object] = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.add(name, start, time.perf_counter(), parent, op,
                     span_id)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[object] = None,
            span_id: Optional[int] = None) -> None:
        """Record a finished span (one not bound to a ``with`` block)."""
        with self._lock:
            self.spans.append({
                "id": next(self._ids) if span_id is None else span_id,
                "name": name, "start": start, "end": end,
                "parent": parent, "op": op,
            })

    def total(self, name: str) -> float:
        """Summed duration (seconds) of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def trace_store(store, tracer: Tracer) -> None:
    """Run a live store object's public get/put inside spans."""
    get, put = store.get, store.put

    def traced_get(key):
        with tracer.span("runcache.get"):
            return get(key)

    def traced_put(key, stats, meta=None):
        with tracer.span("runcache.put"):
            return put(key, stats, meta)

    store.get, store.put = traced_get, traced_put


def profile_split(raw_stats: Dict) -> Dict[str, float]:
    """Shares and exact counts from ``pstats.Stats(...).stats``.

    ``raw_stats`` maps ``(file, line, func)`` to
    ``(primitive calls, total calls, self time, cumulative, callers)``.
    """
    total = sum(v[2] for v in raw_stats.values())
    out: Dict[str, float] = {name: 0.0 for _, name in SHARE_MODULES}
    for _, _, name in CALL_COUNTS:
        out[name] = 0
    for (path, _line, func), (_cc, calls, tottime, _ct, _callers) in (
        raw_stats.items()
    ):
        path = path.replace("\\", "/")
        for fragment, name in SHARE_MODULES:
            if fragment in path:
                out[name] += tottime
                break
        for fragment, funcs, name in CALL_COUNTS:
            if fragment in path and func in funcs:
                out[name] += calls
    for _, name in SHARE_MODULES:
        out[name] = out[name] / total if total else 0.0
    return out
