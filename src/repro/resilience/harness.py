"""Crash-tolerant experiment harness: timeouts, retries, quarantine.

Long sweeps and multi-seed campaigns die in the worst way: hours in, one
cell hangs or crashes and everything already computed is lost.  This
module wraps the harness drivers with

* a per-run **wall-clock timeout** (``SIGALRM``-based, main thread only;
  a no-op elsewhere) raising
  :class:`~repro.common.errors.RunTimeoutError`,
* a bounded **retry policy** per cell,
* a **quarantine** list — cells that still fail after retries are
  recorded with their full replay coordinates instead of aborting the
  campaign, and
* an atomic **JSON checkpoint** so an interrupted campaign resumes from
  the last completed cell (serialized through
  :mod:`repro.harness.export`).

Entry points: :func:`run_sweep_resilient` (also reachable as
``Sweep.run_resilient``) and :func:`resilient_seed_runs` (also
``repro.harness.multiseed.multi_seed_runs_resilient``).
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, RunTimeoutError
from repro.common.stats import RunStats
from repro.harness.export import (
    SCHEMA_VERSION,
    run_stats_from_dict,
    run_stats_to_dict,
)


def call_with_timeout(fn: Callable[[], object], timeout_s: Optional[float]):
    """Run ``fn`` under a wall-clock budget; raise RunTimeoutError late.

    Uses ``signal.setitimer`` and therefore only enforces the budget on
    the main thread of the main interpreter; elsewhere (or with no
    budget) it degrades to a plain call.
    """
    if not timeout_s or timeout_s <= 0:
        return fn()
    if threading.current_thread() is not threading.main_thread():
        return fn()  # SIGALRM cannot be delivered to worker threads

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded {timeout_s}s wall clock")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try one cell before quarantining it."""

    max_attempts: int = 2
    #: Wall-clock seconds per attempt; None disables the timeout.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")


@dataclass
class QuarantineRecord:
    """A cell that failed every attempt, with its replay coordinates."""

    label: str
    replay: Dict[str, object]
    error_type: str
    error: str
    attempts: int

    def render(self) -> str:
        return (
            f"{self.label}: {self.error_type} after {self.attempts} "
            f"attempt(s) — {self.error} | replay: {self.replay}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "replay": dict(self.replay),
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "QuarantineRecord":
        return cls(
            label=data["label"],
            replay=dict(data["replay"]),
            error_type=data["error_type"],
            error=data["error"],
            attempts=data["attempts"],
        )


class SweepCheckpoint:
    """Atomic JSON checkpoint of completed campaign cells.

    Completed cells are keyed by their point label and store the full
    serialized :class:`~repro.common.stats.RunStats`; quarantined cells
    are kept for reporting but are *retried* on resume (a transient
    failure deserves a fresh chance).  Writes go through a temp file +
    ``os.replace`` so a crash mid-save never corrupts the checkpoint.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._done: Dict[str, Dict] = {}
        self._quarantined: List[Dict] = []

    @classmethod
    def load(cls, path: str) -> "SweepCheckpoint":
        ckpt = cls(path)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("schema") != SCHEMA_VERSION:
                raise ConfigError(
                    f"checkpoint schema {data.get('schema')!r} unsupported"
                )
            ckpt._done = dict(data.get("done", {}))
            ckpt._quarantined = list(data.get("quarantined", []))
        return ckpt

    def __len__(self) -> int:
        return len(self._done)

    def has(self, label: str) -> bool:
        return label in self._done

    def get(self, label: str) -> RunStats:
        return run_stats_from_dict(self._done[label])

    def put(
        self, label: str, stats: RunStats, meta: Optional[Dict] = None
    ) -> None:
        self._done[label] = run_stats_to_dict(stats, meta)

    def quarantine(self, record: QuarantineRecord) -> None:
        self._quarantined.append(record.to_dict())

    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [QuarantineRecord.from_dict(d) for d in self._quarantined]

    def save(self) -> None:
        payload = {
            "schema": SCHEMA_VERSION,
            "done": self._done,
            "quarantined": self._quarantined,
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, self.path)


def _attempt_cell(
    label: str,
    replay: Dict[str, object],
    run: Callable[[], RunStats],
    retry: RetryPolicy,
) -> "tuple[Optional[RunStats], Optional[QuarantineRecord]]":
    """Run one cell under the retry policy; (stats, None) on success."""
    last_exc: Optional[BaseException] = None
    for attempt in range(retry.max_attempts):
        try:
            return call_with_timeout(run, retry.timeout_s), None
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            last_exc = exc
    return None, QuarantineRecord(
        label=label,
        replay=replay,
        error_type=type(last_exc).__name__,
        error=str(last_exc),
        attempts=retry.max_attempts,
    )


@dataclass
class ResilientSweepReport:
    """Outcome of a crash-tolerant campaign."""

    results: "object"  # SweepResults (typed loosely: no harness import)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Cells served from the checkpoint instead of being re-run.
    resumed: int = 0
    executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def render(self) -> str:
        lines = [
            f"resilient sweep: {len(self.results)} cell(s) complete "
            f"({self.resumed} resumed, {self.executed} executed), "
            f"{len(self.quarantined)} quarantined"
        ]
        lines.extend(f"  {q.render()}" for q in self.quarantined[:10])
        return "\n".join(lines)


def run_sweep_resilient(
    sweep,
    checkpoint_path: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable] = None,
    fault_plan=None,
    watchdog=None,
    cache=None,
) -> ResilientSweepReport:
    """Crash-tolerant version of :meth:`repro.harness.sweeps.Sweep.run`.

    Every cell runs under the retry policy; failures are quarantined
    with full replay coordinates instead of killing the campaign, and —
    with ``checkpoint_path`` — completed cells are persisted after each
    run so an interrupted campaign resumes where it stopped.  ``cache``
    additionally consults/fills the global run cache
    (:mod:`repro.harness.runcache`); it composes with the checkpoint —
    the checkpoint is this campaign's resume journal, the cache a memo
    shared across campaigns.  Fault-injected cells bypass the cache
    entirely: a chaos run is not the cell's true result.
    """
    from repro.harness.runcache import cell_keyer, cell_meta, coerce_cache
    from repro.harness.sweeps import SweepRecord, SweepResults
    from repro.sim.runner import RunConfig, run_workload
    from repro.workloads.registry import get_workload

    retry = retry or RetryPolicy()
    ckpt = (
        SweepCheckpoint.load(checkpoint_path) if checkpoint_path else None
    )
    rc = coerce_cache(cache) if fault_plan is None else None
    key_of = cell_keyer()
    records: List[SweepRecord] = []
    report = ResilientSweepReport(results=None)
    total = sweep.size()
    for i, point in enumerate(sweep.points()):
        label = point.label()
        if ckpt is not None and ckpt.has(label):
            records.append(SweepRecord(point, ckpt.get(label)))
            report.resumed += 1
            if progress is not None:
                progress(point, i + 1, total)
            continue
        if rc is not None:
            spec = sweep.spec_resolver(point.system)
            key = key_of(
                point.workload,
                spec,
                sweep.params_by_tag[point.params_tag],
                point.threads,
                sweep.scale,
                point.seed,
            )
            hit = rc.get(key)
            if hit is not None:
                records.append(SweepRecord(point, hit))
                report.resumed += 1
                if ckpt is not None:
                    ckpt.put(label, hit)
                    ckpt.save()
                if progress is not None:
                    progress(point, i + 1, total)
                continue
        replay = {
            "workload": point.workload,
            "system": point.system,
            "threads": point.threads,
            "seed": point.seed,
            "params_tag": point.params_tag,
            "scale": sweep.scale,
            "fault_plan": fault_plan.name if fault_plan is not None else None,
        }

        def run_cell(p=point) -> RunStats:
            return run_workload(
                get_workload(p.workload),
                RunConfig(
                    spec=sweep.spec_resolver(p.system),
                    threads=p.threads,
                    scale=sweep.scale,
                    seed=p.seed,
                    params=sweep.params_by_tag[p.params_tag],
                    fault_plan=fault_plan,
                    watchdog=watchdog,
                ),
            )

        stats, quarantined = _attempt_cell(label, replay, run_cell, retry)
        report.executed += 1
        if stats is not None:
            records.append(SweepRecord(point, stats))
            if ckpt is not None:
                ckpt.put(label, stats, meta=replay)
                ckpt.save()
            if rc is not None:
                rc.put(key, stats, meta=cell_meta(
                    point.workload, spec, point.threads, sweep.scale,
                    point.seed,
                ))
        else:
            report.quarantined.append(quarantined)
            if ckpt is not None:
                ckpt.quarantine(quarantined)
                ckpt.save()
        if progress is not None:
            progress(point, i + 1, total)
    report.results = SweepResults(records)
    return report


def resilient_seed_runs(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.25,
    params=None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    fault_plan=None,
    watchdog=None,
    cache=None,
) -> "tuple[List[RunStats], List[QuarantineRecord]]":
    """Crash-tolerant multi-seed runs (cf. ``multiseed.multi_seed_runs``).

    Returns the completed runs (in seed order, failed seeds omitted)
    and the quarantine list.  With ``checkpoint_path``, completed seeds
    persist across interruptions.  ``cache`` consults/fills the global
    run cache; fault-injected runs bypass it.
    """
    from repro.common.params import typical_params
    from repro.harness.runcache import cell_keyer, cell_meta, coerce_cache
    from repro.harness.systems import get_system
    from repro.sim.runner import RunConfig, run_workload
    from repro.workloads.registry import get_workload

    retry = retry or RetryPolicy()
    ckpt = (
        SweepCheckpoint.load(checkpoint_path) if checkpoint_path else None
    )
    rc = coerce_cache(cache) if fault_plan is None else None
    key_of = cell_keyer()
    run_params = params or typical_params()
    runs: List[RunStats] = []
    quarantined: List[QuarantineRecord] = []
    for seed in seeds:
        label = f"{workload}/{system}/t{threads}/s{seed}"
        if ckpt is not None and ckpt.has(label):
            runs.append(ckpt.get(label))
            continue
        if rc is not None:
            spec = get_system(system)
            key = key_of(workload, spec, run_params, threads, scale, seed)
            hit = rc.get(key)
            if hit is not None:
                runs.append(hit)
                if ckpt is not None:
                    ckpt.put(label, hit)
                    ckpt.save()
                continue
        replay = {
            "workload": workload,
            "system": system,
            "threads": threads,
            "seed": seed,
            "scale": scale,
            "fault_plan": fault_plan.name if fault_plan is not None else None,
        }

        def run_cell(s=seed) -> RunStats:
            return run_workload(
                get_workload(workload),
                RunConfig(
                    spec=get_system(system),
                    threads=threads,
                    scale=scale,
                    seed=s,
                    params=run_params,
                    fault_plan=fault_plan,
                    watchdog=watchdog,
                ),
            )

        stats, record = _attempt_cell(label, replay, run_cell, retry)
        if stats is not None:
            runs.append(stats)
            if ckpt is not None:
                ckpt.put(label, stats, meta=replay)
                ckpt.save()
            if rc is not None:
                rc.put(key, stats, meta=cell_meta(
                    workload, spec, threads, scale, seed
                ))
        else:
            quarantined.append(record)
            if ckpt is not None:
                ckpt.quarantine(record)
                ckpt.save()
    return runs, quarantined
