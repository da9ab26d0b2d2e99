"""A dropped machine is freed by refcounting, not the cyclic collector.

The CPUs, queued events and wired callbacks of a machine point back at
it.  Every machine that does not go back to a pool is torn down
(``Machine.teardown``), so these tests hold the collector off and
require a weak reference to such a machine to die at once: after an
unpooled or raising ``run_workload``, after a release into a full free
list, and after ``MachinePool.clear()``.  A machine parked in a pool
keeps nothing of its last run, its fault injector included.
"""

import gc
import weakref
from dataclasses import replace

import pytest

import repro.sim.pool as pool_module
import repro.sim.runner as runner
from repro.common.errors import DeadlockError
from repro.common.params import three_level_params, typical_params
from repro.harness.systems import get_system
from repro.resilience.faults import chaos_monkey
from repro.sim.pool import MachinePool, global_pool
from repro.workloads.registry import get_workload


@pytest.fixture
def collector_off():
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    yield
    if was_on:
        gc.enable()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every machine a run or a pool constructs."""
    refs = []
    construct = runner.Machine

    def recording(*args, **kwargs):
        machine = construct(*args, **kwargs)
        refs.append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(runner, "Machine", recording)
    monkeypatch.setattr(pool_module, "Machine", recording)
    return refs


def _run(system="LockillerTM", **kw):
    return runner.run_workload(
        get_workload("intruder"),
        runner.RunConfig(
            get_system(system), threads=4, scale=0.05, seed=3, **kw
        ),
    )


@pytest.mark.parametrize("system", ["CGL", "Baseline", "LockillerTM"])
@pytest.mark.parametrize(
    "params",
    [
        typical_params(),
        three_level_params(),
        replace(
            typical_params(),
            network=replace(typical_params().network, model_contention=True),
        ),
    ],
    ids=["two-level", "three-level", "contention"],
)
def test_unpooled_machine_dies_with_its_run(
    system, params, built, collector_off
):
    stats = _run(system, params=params, machine_pool=False)
    assert stats.execution_cycles > 0
    assert len(built) == 1 and built[0]() is None


class InjectorPool(MachinePool):
    """A pool that keeps a weak reference to each run's injector."""

    def __init__(self):
        super().__init__()
        self.injectors = []

    def acquire(self, *args, **kwargs):
        machine = super().acquire(*args, **kwargs)
        self.injectors.append(weakref.ref(machine.injector))
        return machine


def test_parked_fault_planned_machine_drops_its_injector(
    built, collector_off
):
    pool = InjectorPool()
    _run(fault_plan=chaos_monkey(), machine_pool=pool)
    (injector,) = pool.injectors
    assert injector() is None
    assert len(built) == 1 and built[0]() is not None  # parked, reusable
    pool.clear()
    assert built[0]() is None


def test_raising_run_drops_its_machine(built, collector_off):
    with pytest.raises(DeadlockError):
        _run(machine_pool=False, max_cycles=50)
    assert len(built) == 1 and built[0]() is None


def test_pooled_machine_dies_when_the_pool_clears(built, collector_off):
    pool = global_pool()
    pool.clear()
    _run()
    assert len(built) == 1 and built[0]() is not None  # parked, reusable
    pool.clear()
    assert built[0]() is None


def test_release_into_a_full_free_list_drops_the_machine(
    built, collector_off
):
    pool = MachinePool(max_per_key=0)
    _run(machine_pool=pool)
    assert pool.releases == 1 and not any(pool._free.values())
    assert len(built) == 1 and built[0]() is None
    assert gc.collect() == 0
