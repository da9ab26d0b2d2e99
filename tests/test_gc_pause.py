"""The cyclic collector is paused for a whole ``run_workload`` cell.

The pause is safe only while runs leave no cyclic garbage behind on
the pooled path, and while what an unpooled run drops is collectable;
these tests pin both on one low-contention and one contended kernel for
CGL, Baseline, LosaTM-SAFU and LockillerTM.  A closure stored on a
long-lived object (a pooled machine, a shared build) fails here instead
of piling up unseen for a whole cell.

They also pin where the pause applies: inside the run, on every exit
path, and without overriding a caller that turned the collector off.
"""

import gc

import pytest

from repro.common.errors import DeadlockError
from repro.harness.systems import get_system
from repro.resilience.faults import chaos_monkey
from repro.sim.pool import MachinePool
from repro.sim.runner import RunConfig, collector_paused, run_workload
from repro.workloads.registry import get_workload

SYSTEMS = ("CGL", "Baseline", "LosaTM-SAFU", "LockillerTM")
#: One kernel of each benchmark grid: conflict-free and contended.
KERNELS = ("genome", "intruder")


def _run(kernel, system, **kw):
    return run_workload(
        get_workload(kernel),
        RunConfig(get_system(system), threads=4, scale=0.05, seed=3, **kw),
    )


@pytest.fixture
def collector_on():
    """Start from an empty heap of garbage; leave the collector on."""
    gc.collect()
    yield
    gc.enable()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("system", SYSTEMS)
class TestNoCyclicGarbage:
    def test_pooled_runs_leave_nothing_to_collect(
        self, kernel, system, collector_on
    ):
        pool = MachinePool()
        gc.disable()
        _run(kernel, system, machine_pool=pool)  # builds the machine
        _run(kernel, system, machine_pool=pool)  # resets and reuses it
        assert (pool.builds, pool.reuses) == (1, 1)
        assert gc.collect() == 0

    def test_unpooled_runs_keep_the_heap_flat(
        self, kernel, system, collector_on
    ):
        # Warm every first-use cache (builds, fault-plan wiring) first.
        _run(kernel, system, machine_pool=False)
        _run(kernel, system, fault_plan=chaos_monkey())
        sizes = []
        gc.collect()
        baseline = len(gc.get_objects())
        for i in range(8):
            # The plan is built inline: a live local would count too.
            _run(kernel, system, machine_pool=False,
                 fault_plan=chaos_monkey() if i == 7 else None)
            assert gc.isenabled()
            gc.collect()
            sizes.append(len(gc.get_objects()))
        assert sizes == [baseline] * 8


class ProbePool(MachinePool):
    """A pool that records the collector state around and inside a run."""

    def __init__(self, inside=None):
        super().__init__()
        self.seen = []
        self.inside = inside

    def acquire(self, *args, **kwargs):
        self.seen.append(("acquire", gc.isenabled()))
        machine = super().acquire(*args, **kwargs)
        machine.engine.schedule_after(0, self._probe)
        return machine

    def _probe(self, now):
        if self.inside is not None:
            self.inside()
        self.seen.append(("event", gc.isenabled()))

    def release(self, machine):
        self.seen.append(("release", gc.isenabled()))
        super().release(machine)


class TestWherePauseApplies:
    def test_paused_inside_the_run_and_restored_after(self, collector_on):
        pool = ProbePool()
        _run("intruder", "LockillerTM", machine_pool=pool)
        assert pool.seen == [
            ("acquire", False), ("event", False), ("release", False)
        ]
        assert gc.isenabled()

    def test_restored_after_a_raising_run(self, collector_on):
        pool = ProbePool()
        with pytest.raises(DeadlockError):
            _run("intruder", "LockillerTM", machine_pool=pool, max_cycles=50)
        assert pool.seen == [("acquire", False), ("event", False)]
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, collector_on):
        gc.disable()
        _run("intruder", "LockillerTM")
        assert not gc.isenabled()

    def test_nested_run_restores_the_outer_state(self, collector_on):
        inner_after = []

        def nested():
            _run("genome", "CGL", machine_pool=False)
            inner_after.append(gc.isenabled())

        pool = ProbePool(inside=nested)
        _run("intruder", "LockillerTM", machine_pool=pool)
        assert inner_after == [False]
        assert ("event", False) in pool.seen
        assert gc.isenabled()

    def test_nested_helper(self, collector_on):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
