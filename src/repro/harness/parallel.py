"""The one cell executor of the harness, serial or multi-process.

Every cell of an experiment grid is an isolated, deterministic
simulation — a pure function of its
:class:`~repro.harness.sweeps.Cell` — so a sweep can fan cells out to
worker processes and reassemble the results without changing a single
bit of output: the parent slots each result at its cell's position, and
the merged list is identical (same order, same stats) to what the serial
loop produces.
Determinism needs no cross-process coordination because no RNG state is
shared: each run seeds its own generators from the cell's seed.

:func:`run_cells` is the only cell loop: ``Sweep.run``, the multi-seed
drivers, the figure drivers' ``ExperimentContext`` and the resilient
wrappers hand it cells and shape its results.  The service hands the
same cells to :func:`execute_cell` on its own pool.  Runs are pure
functions of the cell key and run-cache writes are atomic, so the run
cache is also the resume journal of an interrupted campaign: a re-run
serves every completed cell from it.

``jobs`` semantics (shared by every harness entry point):

* ``None``  → ``$REPRO_JOBS`` if set, else serial;
* ``0``     → one worker per CPU (``os.cpu_count()``);
* ``1``     → serial, in-process (no pool, no pickling);
* ``N > 1`` → a ``ProcessPoolExecutor`` with ``N`` workers.

Worker dispatch uses plain picklable dataclasses (``SystemSpec`` and
``SystemParams`` are frozen dataclasses; workloads travel by registry
name), so the pool works under both fork and spawn start methods.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

from repro.common.stats import RunStats
from repro.harness.runcache import cell_meta, coerce_cache
from repro.harness.sweeps import Cell, UnresolvedSpec
from repro.resilience.harness import (
    QuarantineRecord,
    RetryPolicy,
    call_with_timeout,
)


class CellResults(NamedTuple):
    """What :func:`run_cells` returns."""

    #: Slot ``i`` holds cell ``i``'s stats; ``None`` where the cell was
    #: quarantined.
    stats: List[Optional[RunStats]]
    #: Cells that failed every attempt of the retry policy, by position.
    quarantined: Dict[int, QuarantineRecord]
    #: Cells run rather than served from the cache.
    executed: int


def resolve_jobs(jobs: Optional[int]) -> int:
    """Apply the shared ``jobs`` convention; returns a worker count >= 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
                if jobs < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"invalid REPRO_JOBS={env!r}: expected an integer "
                    ">= 0 (0 = one worker per CPU, 1 = serial, N > 1 = "
                    "N worker processes)"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _run_config(cell: Cell, telemetry=None, fault_plan=None,
                watchdog=None):
    from repro.sim.runner import RunConfig

    if isinstance(cell.spec, UnresolvedSpec):
        raise cell.spec.error
    return RunConfig(
        spec=cell.spec,
        threads=cell.threads,
        scale=cell.scale,
        seed=cell.seed,
        params=cell.params,
        fault_plan=fault_plan,
        watchdog=watchdog,
        telemetry=telemetry,
    )


def execute_cell(cell: Cell, fault_plan=None, watchdog=None) -> RunStats:
    """Run one cell (worker entry point; also the serial path).

    Cells share the process-wide build cache and machine pool (the
    RunConfig defaults): both are bit-identical plumbing (pinned by the
    equivalence suites), and per worker process, so no state ever
    crosses process boundaries.
    """
    from repro.sim.runner import run_workload
    from repro.workloads.registry import get_workload

    return run_workload(
        get_workload(cell.workload),
        _run_config(cell, fault_plan=fault_plan, watchdog=watchdog),
    )


def _execute_under(
    cell: Cell, retry: Optional[RetryPolicy], fault_plan=None, watchdog=None
) -> Union[RunStats, QuarantineRecord]:
    """:func:`execute_cell` under ``retry``: each attempt runs with the
    policy's timeout, and a cell that fails every attempt yields its
    :class:`QuarantineRecord`.  Without a policy its error propagates.
    """
    run = partial(execute_cell, cell, fault_plan, watchdog)
    if retry is None:
        return run()
    for _ in range(retry.max_attempts):
        try:
            return call_with_timeout(run, retry.timeout_s)
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            error = exc
    return QuarantineRecord(
        label=cell.label(),
        replay={
            "workload": cell.workload,
            "system": cell.spec.name,
            "threads": cell.threads,
            "seed": cell.seed,
            "scale": cell.scale,
            "fault_plan": getattr(fault_plan, "name", None),
            "params_tag": cell.params_tag,
        },
        error_type=type(error).__name__,
        error=str(error),
        attempts=retry.max_attempts,
    )


def run_cells(
    cells: Sequence[Cell],
    jobs: Optional[int] = None,
    cache=None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable[[Cell], None]] = None,
    fault_plan=None,
    watchdog=None,
) -> CellResults:
    """Execute ``cells``; result ``i`` belongs to ``cells[i]``.

    ``jobs`` is resolved first, so a malformed ``$REPRO_JOBS`` raises
    even when every cell is a cache hit.  ``cache`` (anything
    :func:`~repro.harness.runcache.coerce_cache` accepts) serves hits:
    every cell is looked up by its key before any cell runs, and each
    executed cell is stored with
    :func:`~repro.harness.runcache.cell_meta` as it completes.  A
    ``fault_plan`` perturbs timing, so a planned run's result is not
    the cell's result: it bypasses the cache, as does a cell with an
    :class:`~repro.harness.sweeps.UnresolvedSpec`.  ``fault_plan`` and
    ``watchdog`` apply to every cell.

    With ``jobs > 1`` misses run in a process pool and complete in
    nondeterministic order, but the results are always in input order —
    parallel output is bit-identical to serial.  Without ``retry`` the
    first cell error propagates; with it, each cell runs under the
    policy's timeout and attempts, and one that fails them all is
    returned in ``quarantined`` instead.  ``progress`` fires once per
    cell, after its ``put``: hits first, then misses in completion
    order.
    """
    workers = resolve_jobs(jobs)
    rc = coerce_cache(cache)
    if fault_plan is not None:
        rc = None
    stats: List[Optional[RunStats]] = [None] * len(cells)
    quarantined: Dict[int, QuarantineRecord] = {}
    misses: List[int] = []
    for i, cell in enumerate(cells):
        hit = None
        if rc is not None and cell.key is not None:
            hit = rc.get(cell.key)
        if hit is None:
            misses.append(i)
            continue
        stats[i] = hit
        if progress is not None:
            progress(cell)

    def settle(i: int, result) -> None:
        cell = cells[i]
        if isinstance(result, QuarantineRecord):
            quarantined[i] = result
        else:
            stats[i] = result
            if rc is not None and cell.key is not None:
                rc.put(cell.key, result, cell_meta(cell))
        if progress is not None:
            progress(cell)

    workers = min(workers, len(misses))
    if workers == 1:
        for i in misses:
            settle(i, _execute_under(cells[i], retry, fault_plan, watchdog))
    elif workers > 1:
        # Imported here: multiprocessing costs every importer of the
        # harness tens of milliseconds, and serial runs never need it.
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(
                    _execute_under, cells[i], retry, fault_plan, watchdog
                ): i
                for i in misses
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    settle(pending.pop(fut), fut.result())
    return CellResults(stats, quarantined, len(misses))


def trace_cell(
    cell: Cell, cache, label: str, telemetry=None
) -> Dict[str, str]:
    """Re-run one cell under telemetry; write artifacts beside its entry.

    Runs are pure functions of the cell key, so the traced re-run
    reproduces the cached result bit for bit while capturing the *why*.
    The result is stored under the cell's key (``cache=None`` means the
    default cache directory), and ``<key>.metrics.json`` and
    ``<key>.trace.json`` (named ``label`` inside) are written
    atomically next to ``<key>.json``.  Returns ``{"result": path,
    "metrics": path, "trace": path}``.
    """
    from repro.sim.runner import run_workload
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import artifact_path
    from repro.workloads.registry import get_workload

    rc = coerce_cache(cache if cache is not None else True)
    if rc is None:
        raise ValueError("a traced re-run needs a run cache")
    tel = telemetry if telemetry is not None else Telemetry()
    stats = run_workload(get_workload(cell.workload), _run_config(cell, tel))
    rc.put(cell.key, stats, cell_meta(cell))
    out = {"result": rc.path_for(cell.key)}
    out["metrics"] = tel.write_metrics(artifact_path(rc, cell.key, "metrics"))
    out["trace"] = tel.write_trace(
        artifact_path(rc, cell.key, "trace"), run_label=label
    )
    return out
