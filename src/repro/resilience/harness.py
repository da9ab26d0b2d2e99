"""Crash-tolerant experiment harness: timeouts, retries, quarantine.

Long sweeps and multi-seed campaigns die in the worst way: hours in, one
cell hangs or crashes and everything already computed is lost.  This
module supplies what :func:`repro.harness.parallel.run_cells` applies
per cell when given a policy:

* a per-run **wall-clock timeout** (``SIGALRM``-based, main thread only;
  a no-op elsewhere) raising
  :class:`~repro.common.errors.RunTimeoutError`,
* a bounded **retry policy** per cell, and
* a **quarantine** list — cells that still fail after retries are
  recorded with their full replay coordinates instead of aborting the
  campaign.

Resume needs no file of its own: runs are pure functions of the cell
key and run-cache writes are atomic, so ``cache=`` is the journal of an
interrupted campaign and a re-run serves every completed cell from it.

Entry point: :func:`run_sweep_resilient`, also reachable as
``Sweep.run_resilient`` and, for one configuration over seeds, as
``repro.harness.multiseed.multi_seed_runs_resilient``.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError, RunTimeoutError


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


@dataclass
class ResilientSweepReport:
    """Outcome of a crash-tolerant campaign."""

    results: "object"  # SweepResults (typed loosely: no harness import)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Cells served from the run cache instead of being re-run.
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
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable] = None,
    fault_plan=None,
    watchdog=None,
    cache=None,
) -> ResilientSweepReport:
    """Crash-tolerant version of :meth:`repro.harness.sweeps.Sweep.run`.

    Every cell runs under the retry policy; failures are quarantined
    with full replay coordinates instead of killing the campaign.
    ``cache`` (:mod:`repro.harness.runcache`) is the resume journal:
    each completed cell is stored as it finishes, and a re-run serves
    it instead of running it again.  Quarantined and fault-planned
    cells are never stored, so a re-run runs them again: a chaos run is
    not the cell's true result.
    """
    from repro.harness.parallel import run_cells
    from repro.harness.sweeps import SweepRecord, SweepResults, counted

    cells = sweep.points()
    done = run_cells(
        cells,
        jobs=1,
        cache=cache,
        retry=retry or RetryPolicy(),
        progress=counted(len(cells), progress),
        fault_plan=fault_plan,
        watchdog=watchdog,
    )
    return ResilientSweepReport(
        SweepResults([
            SweepRecord(cell, stats)
            for cell, stats in zip(cells, done.stats)
            if stats is not None
        ]),
        [done.quarantined[i] for i in sorted(done.quarantined)],
        resumed=len(cells) - done.executed,
        executed=done.executed,
    )
