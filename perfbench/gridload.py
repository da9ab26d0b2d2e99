"""The two cold Table-II grids: timed rounds, optionally with layer hooks.

A round is one cold ``Sweep.run`` (fresh RunCache directory, cleared
build cache and machine pool), timing each cell as the gap between
progress callbacks.  A traced round is the same ``Sweep.run`` with
:class:`Layers` installed for its length: spans and counters around the
public calls it makes (build cache, machine pool, ``Machine.run``,
end-of-run validation, RunCache), so per-layer time and counters are
measured on the program's own path.
"""

from __future__ import annotations

import cProfile
from collections import Counter
import pstats
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from repro.coherence.memsys import MemorySystem
from repro.harness.export import fingerprint
from repro.harness.runcache import RunCache
from repro.harness.sweeps import Sweep
from repro.sim.machine import Machine
from repro.sim.pool import global_pool
from repro.workloads.base import WorkloadBuild
from repro.workloads.buildcache import shared_builds

import calibrate
import metrics
from tracing import Tracer, profile_split, trace_store

SYSTEMS = ("CGL", "Baseline", "LosaTM-SAFU", "LockillerTM")
THREADS = (8, 16)

GRIDS = {
    # Conflict-free fast path: CPU stepping, engine, memsys.access, NoC.
    "grid-low": (("genome", "kmeans-", "ssca2", "vacation-"), 0.25),
    # Conflict path: NACK/wakeup, aborts and replay, fallback, HTMLock.
    "grid-contention": (
        ("intruder", "kmeans+", "vacation+", "labyrinth", "yada"), 0.1
    ),
}


def make_sweep(name: str, seed: int) -> Sweep:
    workloads, scale = GRIDS[name]
    return Sweep(workloads=workloads, systems=SYSTEMS, threads=THREADS,
                 seeds=(seed,), scale=scale)


def _cold_start() -> None:
    shared_builds().clear()
    global_pool().clear()


class GridRun:
    """Accumulates timed rounds and the output check for one grid."""

    def __init__(self, sweep: Sweep, pins: Optional[Dict[str, str]],
                 scratch: str) -> None:
        self.sweep = sweep
        self.labels = [p.label() for p in sweep.points()]
        self.pins = pins
        self.scratch = scratch
        #: Fingerprints of the first complete round (round-to-round check).
        self.reference: Optional[List[str]] = None
        #: Raw and host-speed-normalized cell times, one list per round.
        self.rounds: List[List[float]] = []
        self.normalized: List[List[float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def close(self) -> None:
        """Nothing to release; grids keep no live resources."""

    def check(self, fps: List[str]) -> int:
        """Cells whose fingerprint misses the pin or the first round."""
        if self.reference is None:
            self.reference = fps
        bad = 0
        for label, fp, ref in zip(self.labels, fps, self.reference):
            if fp != ref or (self.pins is not None
                             and self.pins.get(label) != fp):
                bad += 1
        return bad

    def timed_round(self, layers: Optional["Layers"] = None) -> float:
        """One cold ``Sweep.run``; returns its wall time.

        After each cell's progress callback one calibration slice runs;
        its time is not charged to the next cell.  ``layers``, when
        given, is installed for the length of the ``Sweep.run``.
        """
        _cold_start()
        root = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        cache = RunCache(root)
        stamps: List[float] = []
        resumes: List[float] = []
        slices: List[float] = []

        def progress(*_) -> None:
            stamps.append(time.perf_counter())
            if layers is not None:
                layers.op += 1
            slices.append(calibrate.slice_time())
            resumes.append(time.perf_counter())

        total = len(self.labels)
        self.attempted += total
        hooks = layers.installed(cache) if layers is not None \
            else nullcontext()
        start = time.perf_counter()
        try:
            with hooks:
                results = self.sweep.run(progress=progress, jobs=1,
                                         cache=cache)
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            # The raising cell and every cell after it count as failed.
            self.failed += total - len(stamps)
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        finally:
            shutil.rmtree(root, ignore_errors=True)
        wall = time.perf_counter() - start
        stats = [r.stats for r in results.records]
        self.failed += self.check([fingerprint(st) for st in stats])
        if layers is not None:
            layers.add_stats(stats)
        gaps = metrics.cell_gaps(start, stamps, resumes)
        self.rounds.append(gaps)
        self.normalized.append(
            metrics.normalize(gaps, slices, calibrate.REF_S))
        return wall


class Layers:
    """Spans and exact counters around the calls one ``Sweep.run`` makes.

    :meth:`installed` wraps, for the length of one round, the build
    cache's ``get``, the machine pool's ``acquire`` and ``release``,
    ``Machine.run`` (which also reads the machine's counters, and runs
    under ``profiler`` when one is given), ``WorkloadBuild.verify``,
    ``MemorySystem.check_quiescent`` and the round's RunCache ``get``
    and ``put``, and undoes every wrap afterwards.  ``op`` is the number
    of cells completed so far; spans carry it as their op id.
    """

    def __init__(self, tracer: Tracer,
                 profiler: Optional[cProfile.Profile] = None) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.counters: Dict[str, int] = {}
        self.op = 0

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.tracer.span(name, op=self.op):
                return fn(*args, **kwargs)
        return wrapper

    def _machine_run(self, run):
        layers = self

        def wrapper(machine, *args, **kwargs):
            with layers.tracer.span("sim.run", op=layers.op):
                if layers.profiler is not None:
                    layers.profiler.enable()
                try:
                    cycles = run(machine, *args, **kwargs)
                finally:
                    if layers.profiler is not None:
                        layers.profiler.disable()
            layers.add_machine(machine)
            return cycles
        return wrapper

    def add_machine(self, machine: Machine) -> None:
        """Counters the machine keeps beside its RunStats (read before
        the pool's release scrubs them)."""
        engine, network = machine.engine, machine.network
        self.add("sim.events", engine.events_processed)
        self.add("sim.ring_events", engine.ring_events)
        self.add("sim.heap_events", engine.heap_events)
        self.add("noc.messages", network.messages_sent)
        self.add("noc.flits", network.flits_sent)
        self.add("noc.hops", network.hops_traversed)
        self.add("htm.signature_spills", machine.memsys.signature_spills)

    def add_stats(self, stats) -> None:
        """Counters from the RunStats records the round returned."""
        for st in stats:
            self.add("htm.attempts", st.tx_attempts)
            self.add("htm.commits", st.commits)
            for cs in st.cores:
                self.add("htm.nacks_issued", cs.rejects_issued)
                self.add("htm.wakeups", cs.wakeups_sent)
                self.add("htm.fallback_entries", cs.fallback_entries)
                self.add("htm.switch_successes", cs.switch_successes)
                self.add("mem.l1_hits", cs.l1_hits)
                self.add("mem.l1_misses", cs.l1_misses)
                for reason, n in cs.aborts.items():
                    self.add(f"htm.aborts.{reason.value}", n)

    @contextmanager
    def installed(self, cache: RunCache):
        builds, pool = shared_builds(), global_pool()
        wraps = (
            (builds, "get", self._spanned("workloads.build", builds.get)),
            (pool, "acquire", self._spanned("sim.acquire", pool.acquire)),
            (pool, "release", self._spanned("sim.release", pool.release)),
            (Machine, "run", self._machine_run(Machine.run)),
            (WorkloadBuild, "verify",
             self._spanned("sim.validate", WorkloadBuild.verify)),
            (MemorySystem, "check_quiescent",
             self._spanned("sim.validate", MemorySystem.check_quiescent)),
        )
        saved = [(obj, name, vars(obj).get(name), name in vars(obj))
                 for obj, name, _ in wraps]
        pool_builds0, pool_reuses0 = pool.builds, pool.reuses
        build_misses0 = builds.misses
        trace_store(cache, self.tracer)
        for obj, name, wrapper in wraps:
            setattr(obj, name, wrapper)
        try:
            with self.tracer.span("grid.round"):
                yield
        finally:
            for obj, name, old, had in saved:
                if had:
                    setattr(obj, name, old)
                else:
                    delattr(obj, name)
        self.add("pool.builds", pool.builds - pool_builds0)
        self.add("pool.reuses", pool.reuses - pool_reuses0)
        self.add("workloads.builds", builds.misses - build_misses0)
        self.add("runcache.hits", cache.hits)
        self.add("runcache.misses", cache.misses)
        self.add("runcache.stores", cache.stores)


def layer_report(run: GridRun, seconds_untraced: float):
    """Per-layer metrics from one span round and one profiled round.

    Both are ordinary timed rounds with :class:`Layers` installed.
    ``seconds_untraced`` is the normalized cell time of an untraced
    round.
    """
    tracer = Tracer()
    layers = Layers(tracer)
    run.timed_round(layers)
    traced_s = sum(run.normalized[-1])
    profiler = cProfile.Profile()
    run.timed_round(Layers(Tracer(), profiler))
    split = profile_split(pstats.Stats(profiler).stats)

    own = metrics.self_times(tracer.spans)
    c = Counter(layers.counters)  # a failed round leaves counters out
    ms = {name: 1e3 * own.get(name, 0.0) for name in (
        "workloads.build", "sim.acquire", "sim.release", "sim.run",
        "sim.validate", "runcache.get", "runcache.put")}
    out: Dict[str, float] = {
        "workloads.build_ms": ms["workloads.build"],
        "workloads.builds": c["workloads.builds"],
        "sim.acquire_ms": ms["sim.acquire"] + ms["sim.release"],
        "pool.builds": c["pool.builds"],
        "pool.reuses": c["pool.reuses"],
        "sim.run_ms": ms["sim.run"],
        "sim.events": c["sim.events"],
        "sim.ring_events": c["sim.ring_events"],
        "sim.heap_events": c["sim.heap_events"],
        "sim.host_ns_per_event": metrics.ratio(
            1e6 * ms["sim.run"], c["sim.events"]),
        "mem.l1_hit_ratio": metrics.ratio(
            c["mem.l1_hits"], c["mem.l1_hits"] + c["mem.l1_misses"]),
        "mem.access_per_commit": metrics.access_per_commit(
            split["mem.access_calls"], c["htm.commits"]),
        "noc.messages": c["noc.messages"],
        "noc.flits": c["noc.flits"],
        "noc.hops": c["noc.hops"],
        "htm.attempts": c["htm.attempts"],
        "htm.commit_ratio": metrics.commit_ratio(
            c["htm.commits"], c["htm.attempts"]),
        "sim.validate_ms": ms["sim.validate"],
        "runcache.get_ms": ms["runcache.get"],
        "runcache.put_ms": ms["runcache.put"],
        "runcache.hits": c["runcache.hits"],
        "runcache.misses": c["runcache.misses"],
        "runcache.stores": c["runcache.stores"],
        "trace.overhead_ms": 1e3 * (traced_s - seconds_untraced),
    }
    for name in ("htm.nacks_issued", "htm.wakeups", "htm.fallback_entries",
                 "htm.switch_successes", "htm.signature_spills"):
        out[name] = c.get(name, 0)
    for reason in ("mc", "lock", "mutex", "non_tran", "of", "fault"):
        out[f"htm.aborts.{reason}"] = c.get(f"htm.aborts.{reason}", 0)
    out.update(split)
    return out, tracer
