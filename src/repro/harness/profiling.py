"""Profiling harness: where does the simulator's wall time go?

Two complementary views of one run:

* **cProfile** over the pure hot path (build excluded, no telemetry
  session, so every event slot is None and the numbers are the numbers
  the sweeps actually pay), reduced to a top-N table sorted by
  cumulative or internal time;
* **per-subsystem event attribution** pulled *after* the run through the
  same ``publish_telemetry`` hooks the telemetry session uses — event
  and message counts per subsystem (scheduler tiers, NoC, memory
  system, arbiters) with zero in-run instrumentation overhead.

The profiled region runs under the same collector pause as
:func:`repro.sim.runner.run_workload`, and cyclic-collector passes in it
are counted through ``gc.callbacks``: any pass means the pause was
bypassed.

This is the profiling-first loop docs/PERFORMANCE.md describes: run
``python -m repro profile <workload>`` before and after touching a hot
path, and let the attribution table say which subsystem moved.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import pstats
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.common.params import SystemParams, typical_params
from repro.harness.systems import resolve_system
from repro.sim.machine import Machine
from repro.sim.runner import collector_paused
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.registry import get_workload

#: Registry prefixes summed into the attribution table, with the
#: counter names (per prefix) that represent "events handled".
_SUBSYSTEM_COUNTERS = {
    "sim": ("events_processed", "ring_events", "heap_events",
            "heap_compactions"),
    "noc": ("messages_sent", "flits_sent", "hops_traversed",
            "link_stalls"),
    "mem": None,  # None = every integer counter under the prefix
    "dir": None,
    "htm": None,
    "lock": None,
    "lock_tx": None,
}


@dataclass
class ProfileReport:
    """One profiled run, ready to render or post-process."""

    workload: str
    system: str
    threads: int
    scale: float
    seed: int
    wall_seconds: float
    execution_cycles: int
    events_processed: int
    #: Function calls cProfile recorded over the run, summed over the
    #: profiler's own entries; 0 in reports saved before it was
    #: recorded.
    total_calls: int = 0
    #: Cyclic-collector passes during the profiled region and their
    #: wall time; 0 in reports saved before they were recorded.
    gc_passes: int = 0
    gc_ms: float = 0.0
    #: subsystem -> {counter: value} pulled from publish_telemetry.
    subsystems: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Rendered pstats table (top-N rows).
    stats_text: str = ""

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def calls_per_event(self) -> float:
        """Interpreted calls per engine event: a drift-free cost
        counter (it varies between Python versions, not between runs)."""
        if self.events_processed <= 0:
            return 0.0
        return self.total_calls / self.events_processed

    @property
    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.execution_cycles / self.wall_seconds

    def render(self) -> str:
        head = (
            f"profile: {self.workload} on {self.system} "
            f"({self.threads} threads, scale {self.scale}, "
            f"seed {self.seed})\n"
            f"wall {self.wall_seconds * 1e3:.1f} ms | "
            f"{self.execution_cycles} simulated cycles "
            f"({self.cycles_per_second:,.0f}/s) | "
            f"{self.events_processed} events "
            f"({self.events_per_second:,.0f}/s) | "
            f"{self.total_calls} calls ({self.calls_per_event:.1f}/event) | "
            f"{self.gc_passes} gc passes ({self.gc_ms:.1f} ms)"
        )
        lines = [head, "", "-- per-subsystem event counts --"]
        for name in sorted(self.subsystems):
            counters = self.subsystems[name]
            total = sum(counters.values())
            lines.append(f"{name:>10s}  total {total}")
            for key in sorted(counters):
                lines.append(f"{'':>12s}{key:<24s}{counters[key]}")
        lines += ["", "-- hottest functions --", self.stats_text.rstrip()]
        return "\n".join(lines)

    def save(self, path: str) -> None:
        """Persist the report as JSON (``profile --save``).

        Everything needed by :func:`compare_reports` round-trips; the
        pstats text is kept verbatim for human inspection.
        """
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_report(path: str) -> ProfileReport:
    """Load a report previously written by :meth:`ProfileReport.save`."""
    with open(path) as fh:
        data = json.load(fh)
    return ProfileReport(**data)


def compare_reports(before: ProfileReport, after: ProfileReport) -> str:
    """Render an attribution diff between two profile runs.

    The before/after per-subsystem counter tables are joined on
    (subsystem, counter); rows show before, after and the delta, so a
    hot-path change reads as "dir round trips -38%, everything else
    flat".  Wall-clock, throughput and calls per event move in the
    header.  Comparing runs of different cells is allowed (that is
    sometimes the point, e.g. two systems on one workload) but flagged.
    """
    lines = []
    cell_b = (before.workload, before.system, before.threads,
              before.scale, before.seed)
    cell_a = (after.workload, after.system, after.threads,
              after.scale, after.seed)
    lines.append(
        f"before: {before.workload} on {before.system} "
        f"({before.threads}t, scale {before.scale}, seed {before.seed}) "
        f"wall {before.wall_seconds * 1e3:.1f} ms"
    )
    lines.append(
        f"after:  {after.workload} on {after.system} "
        f"({after.threads}t, scale {after.scale}, seed {after.seed}) "
        f"wall {after.wall_seconds * 1e3:.1f} ms"
    )
    if cell_b != cell_a:
        lines.append("warning: comparing different cells")
    if before.wall_seconds > 0 and after.wall_seconds > 0:
        lines.append(
            f"speedup: {before.wall_seconds / after.wall_seconds:.2f}x wall"
            f" | events/s {before.events_per_second:,.0f} -> "
            f"{after.events_per_second:,.0f}"
            f" | cycles/s {before.cycles_per_second:,.0f} -> "
            f"{after.cycles_per_second:,.0f}"
        )
    lines.append(
        f"calls/event: {before.calls_per_event:.1f} -> "
        f"{after.calls_per_event:.1f} "
        f"({_delta(before.calls_per_event, after.calls_per_event)})"
    )
    lines.append(
        f"gc passes: {before.gc_passes} -> {after.gc_passes} "
        f"({_delta(before.gc_passes, after.gc_passes)}) | "
        f"gc ms: {before.gc_ms:.1f} -> {after.gc_ms:.1f} "
        f"({_delta(before.gc_ms, after.gc_ms)})"
    )
    lines += ["", "-- per-subsystem attribution diff --"]
    header = f"{'counter':<34s}{'before':>12s}{'after':>12s}{'delta':>12s}"
    lines.append(header)
    subsystems = sorted(set(before.subsystems) | set(after.subsystems))
    for name in subsystems:
        b_counters = before.subsystems.get(name, {})
        a_counters = after.subsystems.get(name, {})
        keys = sorted(set(b_counters) | set(a_counters))
        for key in keys:
            b = b_counters.get(key, 0)
            a = a_counters.get(key, 0)
            lines.append(
                f"{name + '.' + key:<34s}{b:>12}{a:>12}{_delta(b, a):>12s}"
            )
    return "\n".join(lines)


def _delta(before: float, after: float) -> str:
    """Relative change for the diff tables: ``=``, ``new`` or +-x.x%."""
    if before == after:
        return "="
    if before == 0:
        return "new"
    return f"{100.0 * (after - before) / before:+.1f}%"


def subsystem_breakdown(
    snapshot: Dict[str, object]
) -> Dict[str, Dict[str, int]]:
    """Group a registry snapshot into per-subsystem integer counters.

    Only counter-like integers are kept — gauges carrying strings,
    ratios, or per-link detail (dotted names below the second level)
    are attribution noise, not event counts.
    """
    out: Dict[str, Dict[str, int]] = {}
    for prefix, wanted in _SUBSYSTEM_COUNTERS.items():
        dotted = prefix + "."
        counters: Dict[str, int] = {}
        for name, value in snapshot.items():
            if not name.startswith(dotted):
                continue
            key = name[len(dotted):]
            # Skip per-instance detail (dir.bank.3.*, noc.link.0_1.*):
            # attribution wants subsystem totals, not fan-out.
            if any(
                part.isdigit() or part.replace("_", "").isdigit()
                for part in key.split(".")
            ):
                continue
            if wanted is not None and key not in wanted:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            if value < 0:  # id-style gauges (owner -1), not counts
                continue
            counters[key] = value
        if counters:
            out[prefix] = counters
    return out


class GcPasses:
    """``gc.callbacks`` hook counting collector passes and their time."""

    def __init__(self) -> None:
        self.passes = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.passes += 1
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0

    def __enter__(self) -> "GcPasses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def profile_run(
    workload: str,
    system: str = "LockillerTM",
    threads: int = 4,
    scale: float = 0.1,
    seed: int = 1,
    params: Optional[SystemParams] = None,
    top_n: int = 20,
    sort: str = "cumulative",
) -> ProfileReport:
    """Profile one (workload, system) cell and attribute its events.

    The workload is built *outside* the profiled region (builds are
    one-time costs amortized across sweep points); the Machine
    construction and run are inside it, with the collector paused as in
    ``run_workload``.  ``sort`` is any pstats key (``cumulative``,
    ``tottime``, ...).
    """
    spec = resolve_system(system)
    if params is None:
        params = typical_params()
    build = get_workload(workload).build(threads, scale, seed)

    profiler = cProfile.Profile()
    with collector_paused(), GcPasses() as gc_passes:
        t0 = time.perf_counter()
        profiler.enable()
        machine = Machine(params, spec, build.programs, seed=seed)
        cycles = machine.run()
        profiler.disable()
        wall = time.perf_counter() - t0

    registry = MetricsRegistry()
    machine.publish_telemetry(registry)

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top_n)
    # Drop pstats' preamble (path spam) but keep the column table.
    text_lines = stream.getvalue().splitlines()
    start = 0
    for i, line in enumerate(text_lines):
        if line.lstrip().startswith("ncalls"):
            start = i
            break
    stats_text = "\n".join(text_lines[start:])

    return ProfileReport(
        workload=workload,
        system=spec.name,
        threads=threads,
        scale=scale,
        seed=seed,
        wall_seconds=wall,
        execution_cycles=cycles,
        events_processed=machine.engine.events_processed,
        # Not pstats' total_calls: pstats keys functions by (file,
        # line, name), and functions sharing a label (every dataclass
        # __init__ is ("<string>", 2, "__init__")) collapse into one
        # row that keeps only one of them, chosen by memory layout.
        total_calls=sum(entry.callcount for entry in profiler.getstats()),
        gc_passes=gc_passes.passes,
        gc_ms=gc_passes.seconds * 1e3,
        subsystems=subsystem_breakdown(registry.snapshot()),
        stats_text=stats_text,
    )
