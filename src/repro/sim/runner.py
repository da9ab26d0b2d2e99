"""Run orchestration: (workload, system, machine params) -> RunStats.

Every run ends with sanity checks unless disabled: the functional
memory image must equal the workload's interleaving-independent
expectation (atomicity/durability of every transaction), and the
coherence layer must be quiescent with SWMR intact.

A run executes with CPython's cyclic collector paused
(:func:`collector_paused`).  A cell allocates hundreds of thousands of
short-lived objects, which used to trigger hundreds of collector passes
per grid; refcounting already frees them, and a pooled run leaves no
cyclic garbage (pinned by ``tests/test_gc_pause.py``), so the passes
found nothing.  A machine that does not go back to the pool (an
unpooled run, a raising run, a full pool) is torn down
(:meth:`Machine.teardown`), so refcounting frees it too.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.common.errors import SimulationError
from repro.common.params import SystemParams, typical_params
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.sim.machine import Machine
from repro.workloads.base import Workload, WorkloadBuild


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    spec: SystemSpec
    threads: int = 2
    scale: float = 1.0
    seed: int = 0
    params: SystemParams = field(default_factory=typical_params)
    check: bool = True
    max_cycles: Optional[int] = None
    #: Optional resilience knobs (repro.resilience): a FaultPlan to arm
    #: deterministic fault injection and/or a WatchdogConfig for the
    #: forward-progress watchdog.  Both default off (zero overhead).
    fault_plan: Optional[object] = None
    watchdog: Optional[object] = None
    #: Optional observability session (repro.telemetry.Telemetry).
    #: None (the default) leaves every event slot None —
    #: telemetry-off runs are bit-identical to the seed goldens.
    telemetry: Optional[object] = None
    #: Machine reuse (repro.sim.pool): ``None`` (the default) acquires
    #: from the process-global pool and returns the machine after a
    #: clean run; ``False`` always constructs fresh; a MachinePool
    #: instance uses that pool.  Pooled runs are bit-identical to fresh
    #: ones (pinned by the pooled-vs-fresh equivalence suite), with or
    #: without a fault plan.
    machine_pool: Optional[object] = None


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector off, then restore the
    caller's state on every exit path.

    Nested pauses leave the collector off until the outermost one
    exits, and a caller that had turned it off finds it off afterwards.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_workload(
    workload: Union[Workload, WorkloadBuild],
    config: RunConfig,
) -> RunStats:
    """Build the machine, execute the workload, verify, return stats.

    A :class:`Workload` is built once per (workload, threads, scale,
    seed) through the process-wide build cache; builds are pure and
    never mutated, so sharing them is bit-identical (pinned by the
    shared-vs-fresh test).  Pass a :class:`WorkloadBuild` to run a
    build of the caller's own.

    The whole cell (build lookup, machine acquire, run, checks, pool
    release) runs under :func:`collector_paused`.
    """
    with collector_paused():
        return _run_cell(workload, config)


def _run_cell(
    workload: Union[Workload, WorkloadBuild],
    config: RunConfig,
) -> RunStats:
    if isinstance(workload, WorkloadBuild):
        build = workload
        if len(build.programs) != config.threads:
            raise SimulationError(
                f"prebuilt workload has {len(build.programs)} programs, "
                f"config wants {config.threads} threads"
            )
    else:
        from repro.workloads.buildcache import shared_builds

        build = shared_builds().get(
            workload, config.threads, config.scale, config.seed
        )
    params = config.params
    pool = config.machine_pool
    if pool is False:
        pool = None
    elif pool is None:
        from repro.sim.pool import global_pool

        pool = global_pool()
    make = Machine if pool is None else pool.acquire
    machine = make(
        params,
        config.spec,
        build.programs,
        config.seed,
        config.fault_plan,
        config.watchdog,
    )
    try:
        stats = _run_machine(machine, build, config)
    except BaseException:
        # A half-run machine's state is unknown: never pooled.
        machine.teardown()
        raise
    # Only a machine whose run (and checks) completed cleanly goes back
    # to the pool; any other is torn down so refcounting frees it.
    if pool is not None:
        pool.release(machine)
    else:
        machine.teardown()
    return stats


def _run_machine(
    machine: Machine, build: WorkloadBuild, config: RunConfig
) -> RunStats:
    """Run ``machine`` under the config's telemetry, then check it."""
    telemetry = config.telemetry
    if telemetry is not None:
        telemetry.attach(machine)
    try:
        cycles = machine.run(max_cycles=config.max_cycles)
    except BaseException:
        # Pull metrics / close the timeline even on failed runs —
        # livelock diagnosis is telemetry's best customer — then
        # clear the event slots.
        if telemetry is not None:
            telemetry.finalize(
                RunStats(
                    execution_cycles=machine.engine.now,
                    cores=machine.core_stats,
                ),
                build,
            )
            telemetry.detach()
        raise
    stats = RunStats(execution_cycles=cycles, cores=machine.core_stats)
    if telemetry is not None:
        telemetry.finalize(stats, build)
        telemetry.detach()
    if config.check:
        failures = build.verify(machine.memsys.memory)
        failures.extend(machine.memsys.check_quiescent())
        if machine.fallback_lock.held:
            failures.append(
                f"lock still held by core {machine.fallback_lock.holder}"
            )
        if machine.hl_arbiter.busy:
            failures.append(
                f"HTMLock mode still owned by core {machine.hl_arbiter.owner}"
            )
        stats.sanity_failures = failures
        if failures:
            raise SimulationError(
                f"run failed sanity checks ({build.name} on "
                f"{config.spec.name}, {config.threads} threads): "
                + "; ".join(failures[:5])
            )
    return stats
