"""Shared-build and pooled-machine equivalence suites.

Structural reuse (shared WorkloadBuilds, the machine pool) is pure
plumbing: a run on a shared build or a pooled machine must be
bit-identical to a run on a fresh one.  These tests pin that over the
full Table-II system set on the same contended cell the golden pins use
(intruder / 4 threads / scale 0.05 / seed 3), with and without a fault
plan, and check field by field that a reset machine equals a fresh one.
"""

import enum
import types
from collections import deque

import pytest

from repro.common.params import typical_params
from repro.harness.export import fingerprint
from repro.harness.systems import TABLE_ORDER, get_system
from repro.resilience.faults import get_plan, plan_names
from repro.sim.machine import Machine
from repro.sim.pool import MachinePool
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.buildcache import BuildCache
from repro.workloads.registry import get_workload


def _cfg(system, threads=4, scale=0.05, seed=3, **kw):
    # Reuse is what's under test, so default it OFF: the "fresh" runs
    # these suites compare against must really build from scratch.
    kw.setdefault("machine_pool", False)
    return RunConfig(
        spec=get_system(system),
        threads=threads,
        scale=scale,
        seed=seed,
        **kw,
    )


def _run(wl, cfg):
    """Run ``cfg`` on a fresh build of ``wl``, never the shared one."""
    return run_workload(wl.build(cfg.threads, cfg.scale, cfg.seed), cfg)


class TestSharedBuildEquivalence:
    def test_cache_returns_same_object_per_key(self):
        cache = BuildCache()
        wl = get_workload("ssca2")
        a = cache.get(wl, 2, 0.05, 1)
        b = cache.get(wl, 2, 0.05, 1)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        # int/float scale coordinates collapse to one build.
        c = cache.get(wl, 2, 1, 1)
        assert cache.get(wl, 2, 1.0, 1) is c

    def test_lru_bound(self):
        cache = BuildCache(max_entries=2)
        wl = get_workload("ssca2")
        first = cache.get(wl, 1, 0.05, 1)
        cache.get(wl, 1, 0.05, 2)
        cache.get(wl, 1, 0.05, 3)
        assert len(cache) == 2
        assert cache.get(wl, 1, 0.05, 1) is not first  # evicted, rebuilt

    @pytest.mark.parametrize("workload", ["intruder", "vacation-"])
    def test_shared_vs_fresh_bit_identical(self, workload):
        wl = get_workload(workload)
        fresh = _run(wl, _cfg("LockillerTM"))
        shared = run_workload(wl, _cfg("LockillerTM"))
        again = run_workload(wl, _cfg("LockillerTM"))
        assert fingerprint(shared) == fingerprint(fresh)
        assert fingerprint(again) == fingerprint(fresh)


class TestPooledVsFresh:
    @pytest.mark.parametrize("system", TABLE_ORDER)
    def test_table2_system_bit_identical(self, system):
        wl = get_workload("intruder")
        pool = MachinePool()
        fresh = _run(wl, _cfg(system))
        first = _run(wl, _cfg(system, machine_pool=pool))
        reused = _run(wl, _cfg(system, machine_pool=pool))
        assert pool.builds == 1 and pool.reuses == 1
        assert fingerprint(first) == fingerprint(fresh)
        assert fingerprint(reused) == fingerprint(fresh)

    def test_reuse_across_thread_counts(self):
        wl = get_workload("ssca2")
        pool = MachinePool()
        _run(wl, _cfg("LockillerTM", threads=4, machine_pool=pool))
        fresh = _run(wl, _cfg("LockillerTM", threads=2))
        pooled = _run(
            wl, _cfg("LockillerTM", threads=2, machine_pool=pool)
        )
        assert pool.reuses == 1
        assert fingerprint(pooled) == fingerprint(fresh)

    def test_default_config_uses_global_pool(self):
        from repro.sim.pool import global_pool

        wl = get_workload("ssca2")
        gp = global_pool()
        acquired = gp.builds + gp.reuses
        released = gp.releases
        _run(wl, _cfg("CGL", threads=2, seed=1, machine_pool=None))
        _run(wl, _cfg("CGL", threads=2, seed=1, machine_pool=None))
        assert gp.builds + gp.reuses >= acquired + 2
        assert gp.releases >= released + 2
        # machine_pool=False opts out entirely.
        acquired = gp.builds + gp.reuses
        _run(wl, _cfg("CGL", threads=2, seed=1))
        assert gp.builds + gp.reuses == acquired

    def test_release_scrubs_parked_state(self):
        wl = get_workload("ssca2")
        pool = MachinePool()
        _run(wl, _cfg("CGL", threads=2, seed=1, machine_pool=pool))
        (parked,) = next(iter(pool._free.values()))
        assert parked.engine.now == 0
        assert parked.engine.events_processed == 0
        assert len(parked.memsys.directory) == 0
        assert parked.cpus == []

    def test_pool_caps_per_key(self):
        wl = get_workload("ssca2")
        pool = MachinePool(max_per_key=1)
        cfg = _cfg("CGL", threads=2, seed=1, machine_pool=pool)
        machines = [
            pool.acquire(cfg.params, cfg.spec, [[], []]) for _ in range(3)
        ]
        for m in machines:
            pool.release(m)
        assert len(pool._free[(cfg.spec, cfg.params)]) == 1


class TestMachineReset:
    def test_reset_run_matches_fresh_run(self):
        params = typical_params()
        spec = get_system("LockillerTM")
        build = get_workload("intruder").build(4, 0.05, 3)

        fresh = Machine(params, spec, build.programs, seed=3)
        want_cycles = fresh.run()

        m = Machine(params, spec, build.programs, seed=3)
        m.run()
        m.reset(build.programs, seed=3)
        assert m.engine.now == 0 and m.engine.events_processed == 0
        assert m.network.messages_sent == 0
        assert len(m.memsys.directory) == 0
        got_cycles = m.run()
        assert got_cycles == want_cycles
        from repro.common.stats import RunStats

        assert fingerprint(
            RunStats(execution_cycles=got_cycles, cores=m.core_stats)
        ) == fingerprint(
            RunStats(execution_cycles=want_cycles, cores=fresh.core_stats)
        )


class TestPooledChaos:
    """Fault-planned runs take the pool and stay bit-identical."""

    @pytest.mark.parametrize("system", ["CGL", "Baseline", "LockillerTM"])
    @pytest.mark.parametrize("plan", plan_names())
    def test_pooled_equals_fresh(self, plan, system):
        wl = get_workload("intruder")
        pool = MachinePool()
        fresh = _run(wl, _cfg(system, fault_plan=get_plan(plan)))
        built = _run(
            wl, _cfg(system, fault_plan=get_plan(plan), machine_pool=pool)
        )
        assert (pool.builds, pool.reuses) == (1, 0)
        reused = _run(
            wl, _cfg(system, fault_plan=get_plan(plan), machine_pool=pool)
        )
        assert (pool.builds, pool.reuses) == (1, 1)
        for run in (built, reused):
            assert run.execution_cycles == fresh.execution_cycles
            assert fingerprint(run) == fingerprint(fresh)

    def test_clean_run_after_sig_storm_matches_fresh(self):
        # The overflow signatures' false-positive hook is a chaos slot:
        # left wired to the sig-storm run's injector, the pooled machine
        # runs this cell in 265 137 cycles instead of 283 975.
        wl = get_workload("labyrinth")
        pool = MachinePool()
        cell = dict(threads=8, scale=0.1, seed=42)
        _run(
            wl,
            _cfg(
                "LockillerTM",
                fault_plan=get_plan("sig-storm"),
                machine_pool=pool,
                **cell,
            ),
        )
        pooled = _run(
            wl, _cfg("LockillerTM", machine_pool=pool, **cell)
        )
        fresh = _run(wl, _cfg("LockillerTM", **cell))
        assert pool.reuses == 1
        assert pooled.execution_cycles == fresh.execution_cycles == 283_975
        assert fingerprint(pooled) == fingerprint(fresh)


#: Pure memos a run may fill and a reset keeps: (class name, attribute).
PURE_MEMOS = {("MemorySystem", "_grants")}

_SCALARS = (int, float, str, bytes, bool, type(None), enum.Enum)
_CONTAINERS = (list, tuple, deque, set, frozenset, dict)


def _fields(obj):
    """Attribute name -> value over ``obj``'s slots and ``__dict__``."""
    names = []
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    names.extend(getattr(obj, "__dict__", {}))
    return {
        n: getattr(obj, n)
        for n in names
        if n not in ("__dict__", "__weakref__") and hasattr(obj, n)
    }


def state_diff(a, b, path="machine"):
    """Paths where the ``repro`` object graphs under ``a`` and ``b``
    differ: scalars unequal, containers of unequal length, callables
    pointing at different functions, or objects of different types."""
    diffs = []
    seen = set()

    def walk(a, b, path):
        if a is b:
            return
        if type(a) is not type(b):
            diffs.append(f"{path}: {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, _SCALARS):
            if a != b:
                diffs.append(f"{path}: {a!r} != {b!r}")
        elif isinstance(a, types.MethodType):
            if a.__func__ is not b.__func__:
                diffs.append(f"{path}: {a.__func__} != {b.__func__}")
        elif isinstance(a, types.FunctionType):
            if a.__code__ is not b.__code__:
                diffs.append(f"{path}: {a.__code__} != {b.__code__}")
        elif isinstance(a, _CONTAINERS):
            if len(a) != len(b):
                diffs.append(f"{path}: len {len(a)} != {len(b)}")
            elif isinstance(a, dict):
                if a.keys() == b.keys():
                    for k in a:
                        walk(a[k], b[k], f"{path}[{k!r}]")
                else:
                    diffs.append(f"{path}: keys differ")
            elif not isinstance(a, (set, frozenset)):
                for i, (x, y) in enumerate(zip(a, b)):
                    walk(x, y, f"{path}[{i}]")
        elif type(a).__module__.startswith("repro."):
            if (id(a), id(b)) in seen:
                return
            seen.add((id(a), id(b)))
            fa, fb = _fields(a), _fields(b)
            if fa.keys() != fb.keys():
                diffs.append(f"{path}: fields {sorted(fa.keys() ^ fb.keys())}")
            for name in fa:
                if name in fb and (type(a).__name__, name) not in PURE_MEMOS:
                    walk(fa[name], fb[name], f"{path}.{name}")

    walk(a, b, path)
    return sorted(diffs)


class TestResetEqualsFresh:
    """A reset machine equals a fresh one, field by field."""

    @pytest.mark.parametrize("plan", plan_names())
    def test_reset_after_fault_planned_run(self, plan):
        params = typical_params()
        spec = get_system("LockillerTM")
        build = get_workload("intruder").build(4, 0.05, 3)
        fresh = Machine(params, spec, build.programs, seed=3)
        used = Machine(
            params, spec, build.programs, seed=3, fault_plan=get_plan(plan)
        )
        used.run()
        # The walk reaches the run's state, the declared chaos slots too.
        assert (
            "machine.memsys.of_rd_sig.chaos_fp: method != NoneType"
            in state_diff(used, fresh)
        )
        used.reset(build.programs, seed=3)
        assert state_diff(used, fresh) == []
