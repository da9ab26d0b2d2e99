"""The one cell executor of the harness, serial or multi-process.

Every cell of an experiment grid is an isolated, deterministic
simulation — a pure function of its :class:`CellTask` — so a sweep can
fan cells out to worker processes and reassemble the results without
changing a single bit of output: workers return ``(index, result)``
pairs, the parent slots each result at its index, and the merged list is
identical (same order, same stats) to what the serial loop produces.
Determinism needs no cross-process coordination because no RNG state is
shared: each run seeds its own generators from the cell's seed.

:func:`run_cells` is the only cell loop: ``Sweep.run``, the multi-seed
drivers, the figure drivers' ``ExperimentContext`` and the resilient
wrappers build tasks and shape its results.  Runs are pure functions of
the cell key and run-cache writes are atomic, so the run cache is also
the resume journal of an interrupted campaign: a re-run serves every
completed cell from it.

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
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.params import SystemParams
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.harness.runcache import (
    cell_key,
    cell_keyer,
    cell_meta,
    coerce_cache,
)
from repro.resilience.harness import (
    QuarantineRecord,
    RetryPolicy,
    call_with_timeout,
)


@dataclass(frozen=True)
class UnresolvedSpec:
    """A system whose resolver raised while its cells were being built.

    Each run of the cell raises that error, so it is the cell's error:
    it propagates, or a retry policy retries and quarantines it.  A
    cell without a spec has no key, so it never touches the cache.
    """

    name: str
    error: Exception


def resolve_spec(
    resolve: Callable[[str], SystemSpec], system: str
) -> Union[SystemSpec, UnresolvedSpec]:
    """``resolve(system)``, or an :class:`UnresolvedSpec` if it raises."""
    try:
        return resolve(system)
    except Exception as exc:  # noqa: BLE001 - raised by the cell's run
        return UnresolvedSpec(system, exc)


@dataclass(frozen=True)
class CellTask:
    """One simulation cell, picklable for the worker pool."""

    index: int
    workload: str
    spec: Union[SystemSpec, UnresolvedSpec]
    threads: int
    scale: float
    seed: int
    params: SystemParams
    #: A FaultPlan perturbs timing, so a planned cell's result is not
    #: the cell's result: it never reads or writes the run cache.
    fault_plan: Optional[object] = None
    watchdog: Optional[object] = None


class CellResults(NamedTuple):
    """What :func:`run_cells` returns."""

    #: Slot ``i`` holds task ``i``'s stats; ``None`` where no task has
    #: index ``i`` or the cell was quarantined.
    stats: List[Optional[RunStats]]
    #: Cells that failed every attempt of the retry policy, by index.
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


def _run_config(task: CellTask, telemetry=None):
    from repro.sim.runner import RunConfig

    if isinstance(task.spec, UnresolvedSpec):
        raise task.spec.error
    return RunConfig(
        spec=task.spec,
        threads=task.threads,
        scale=task.scale,
        seed=task.seed,
        params=task.params,
        fault_plan=task.fault_plan,
        watchdog=task.watchdog,
        telemetry=telemetry,
    )


def execute_cell(task: CellTask) -> Tuple[int, RunStats]:
    """Run one cell (worker entry point; also the serial path).

    Cells share the process-wide build cache and machine pool (the
    RunConfig defaults): both are bit-identical plumbing (pinned by the
    equivalence suites), and per worker process, so no state ever
    crosses process boundaries.
    """
    from repro.sim.runner import run_workload
    from repro.workloads.registry import get_workload

    return task.index, run_workload(
        get_workload(task.workload), _run_config(task)
    )


def _execute_under(
    task: CellTask, retry: Optional[RetryPolicy]
) -> Tuple[int, Union[RunStats, QuarantineRecord]]:
    """:func:`execute_cell` under ``retry``: each attempt runs with the
    policy's timeout, and a cell that fails every attempt yields its
    :class:`QuarantineRecord`.  Without a policy its error propagates.
    """
    if retry is None:
        return execute_cell(task)
    for _ in range(retry.max_attempts):
        try:
            return call_with_timeout(
                partial(execute_cell, task), retry.timeout_s
            )
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            error = exc
    return task.index, QuarantineRecord(
        label=f"{task.workload}/{task.spec.name}/t{task.threads}"
        f"/s{task.seed}",
        replay={
            "workload": task.workload,
            "system": task.spec.name,
            "threads": task.threads,
            "seed": task.seed,
            "scale": task.scale,
            "fault_plan": getattr(task.fault_plan, "name", None),
        },
        error_type=type(error).__name__,
        error=str(error),
        attempts=retry.max_attempts,
    )


def run_cells(
    tasks: Sequence[CellTask],
    jobs: Optional[int] = None,
    cache=None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable[[CellTask], None]] = None,
) -> CellResults:
    """Execute ``tasks``; results are positioned by each task's index.

    ``cache`` (anything :func:`~repro.harness.runcache.coerce_cache`
    accepts) serves hits: every task is keyed once and looked up before
    any cell runs, and each executed cell is stored with
    :func:`~repro.harness.runcache.cell_meta` as it completes.  Tasks
    with a fault plan or an :class:`UnresolvedSpec` bypass the cache.

    With ``jobs > 1`` misses run in a process pool and complete in
    nondeterministic order, but the results are always in index order —
    parallel output is bit-identical to serial.  Without ``retry`` the
    first cell error propagates; with it, each cell runs under the
    policy's timeout and attempts, and one that fails them all is
    returned in ``quarantined`` instead.  ``progress`` fires once per
    task, after its ``put``: hits first, then misses in completion
    order.
    """
    rc = coerce_cache(cache)
    size = max((t.index for t in tasks), default=-1) + 1
    stats: List[Optional[RunStats]] = [None] * size
    quarantined: Dict[int, QuarantineRecord] = {}
    keys: Dict[int, str] = {}
    misses: List[CellTask] = []
    key_of = cell_keyer()
    for task in tasks:
        if (
            rc is None
            or task.fault_plan is not None
            or isinstance(task.spec, UnresolvedSpec)
        ):
            misses.append(task)
            continue
        key = keys[task.index] = key_of(
            task.workload,
            task.spec,
            task.params,
            task.threads,
            task.scale,
            task.seed,
        )
        hit = rc.get(key)
        if hit is None:
            misses.append(task)
            continue
        stats[task.index] = hit
        if progress is not None:
            progress(task)

    def settle(task: CellTask, result) -> None:
        if isinstance(result, QuarantineRecord):
            quarantined[task.index] = result
        else:
            stats[task.index] = result
            key = keys.get(task.index)
            if key is not None:
                rc.put(key, result, cell_meta(
                    task.workload,
                    task.spec,
                    task.threads,
                    task.scale,
                    task.seed,
                ))
        if progress is not None:
            progress(task)

    workers = min(resolve_jobs(jobs), len(misses)) if misses else 0
    if workers == 1:
        for task in misses:
            settle(task, _execute_under(task, retry)[1])
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
                pool.submit(_execute_under, t, retry): t for t in misses
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    settle(pending.pop(fut), fut.result()[1])
    return CellResults(stats, quarantined, len(misses))


def trace_cell(
    task: CellTask, cache, label: str, telemetry=None
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
    stats = run_workload(get_workload(task.workload), _run_config(task, tel))
    key = cell_key(
        task.workload,
        task.spec,
        task.params,
        task.threads,
        task.scale,
        task.seed,
    )
    rc.put(key, stats, cell_meta(
        task.workload, task.spec, task.threads, task.scale, task.seed
    ))
    out = {"result": rc.path_for(key)}
    out["metrics"] = tel.write_metrics(artifact_path(rc, key, "metrics"))
    out["trace"] = tel.write_trace(
        artifact_path(rc, key, "trace"), run_label=label
    )
    return out
