"""Reusable machine pool: amortize construction across runs.

Building a :class:`~repro.sim.machine.Machine` allocates the event
engine, the mesh/network model, per-core caches, the directory and all
of the HTM mechanism objects.  For a single run that cost is noise; for
a sweep executing thousands of cells per worker process it is pure
overhead, because :meth:`Machine.reset` — which the constructor itself
ends with — is the only code that sets a machine's run state.

The pool keys machines by ``(spec, params)`` — both frozen dataclasses —
so a reused machine always has the exact geometry and policy wiring the
run needs; only the programs, seed, fault plan and watchdog are set
anew by :meth:`Machine.reset`.  Determinism is load-bearing and pinned
by the pooled-vs-fresh equivalence suite: a run on a pooled machine is
bit-identical to a run on a fresh one.

Machines are only returned to the pool after a *successful* run
(:func:`repro.sim.runner.run_workload` drops the machine on any error,
since a half-run machine's state is unknown).  Fault-planned runs take
the pool like any other: :meth:`Machine.reset` sets every chaos slot,
wiring the run's injector or clearing the last one's.  A parked machine
is reset to no programs, so it holds no CPUs, queued events, caches or
injector.  Every machine the pool drops (a full free list,
:meth:`MachinePool.clear`) is torn down first, so refcounting frees it
without waiting for the cyclic collector.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.params import SystemParams
from repro.core.policies import SystemSpec
from repro.sim.machine import Machine


class MachinePool:
    """LIFO free-lists of reset-able machines, keyed by (spec, params)."""

    def __init__(self, max_per_key: int = 4) -> None:
        self.max_per_key = max_per_key
        self._free: Dict[Tuple[SystemSpec, SystemParams], List[Machine]] = {}
        self.builds = 0
        self.reuses = 0
        self.releases = 0

    def acquire(
        self,
        params: SystemParams,
        spec: SystemSpec,
        programs: List[list],
        seed: int = 0,
        fault_plan=None,
        watchdog=None,
    ) -> Machine:
        """A machine ready to run ``programs`` — reused when possible."""
        free = self._free.get((spec, params))
        if free:
            machine = free.pop()
            machine.reset(programs, seed, fault_plan, watchdog)
            self.reuses += 1
            return machine
        self.builds += 1
        return Machine(params, spec, programs, seed, fault_plan, watchdog)

    def release(self, machine: Machine) -> None:
        """Return a machine whose run completed cleanly."""
        key = (machine.spec, machine.params)
        free = self._free.setdefault(key, [])
        if len(free) < self.max_per_key:
            # Parked machines stay small: no event queues, caches,
            # functional memory, CPUs or injector.
            machine.reset(())
            free.append(machine)
        else:
            machine.teardown()
        self.releases += 1

    def clear(self) -> None:
        """Drop every free machine (torn down, so refcounting frees it)."""
        for free in self._free.values():
            for machine in free:
                machine.teardown()
        self._free.clear()


#: Process-wide pool used by the sweep cell runner; one per worker
#: process, so no cross-process state is ever shared.
_GLOBAL_POOL: MachinePool = MachinePool()


def global_pool() -> MachinePool:
    return _GLOBAL_POOL
