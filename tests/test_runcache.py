"""Tests for the persistent run cache and the parallel cell runner."""

import dataclasses
import json
import os

import pytest

from repro.common.params import small_cache_params, typical_params
from repro.common.stats import RunStats
from repro.harness.export import fingerprint, run_stats_to_dict
from repro.harness.parallel import CellTask, resolve_jobs, run_cells
from repro.harness.runcache import (
    RunCache,
    cell_key,
    coerce_cache,
    default_cache_dir,
)
from repro.harness.systems import get_system
from repro.service.store import ShardedStore
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def _cell(**overrides):
    base = dict(
        workload="ssca2",
        spec=get_system("LockillerTM"),
        params=typical_params(),
        threads=2,
        scale=0.05,
        seed=1,
    )
    base.update(overrides)
    return base


def _stats(cell):
    return run_workload(
        get_workload(cell["workload"]),
        RunConfig(
            spec=cell["spec"],
            threads=cell["threads"],
            scale=cell["scale"],
            seed=cell["seed"],
            params=cell["params"],
        ),
    )


class TestCellKey:
    def test_key_is_stable(self):
        assert cell_key(**_cell()) == cell_key(**_cell())

    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "kmeans+"},
            {"threads": 4},
            {"scale": 0.1},
            {"seed": 2},
            {"spec": get_system("Baseline")},
            {"params": small_cache_params()},
        ],
    )
    def test_any_coordinate_changes_key(self, change):
        assert cell_key(**_cell()) != cell_key(**_cell(**change))

    def test_single_param_field_changes_key(self):
        p = typical_params()
        tweaked = dataclasses.replace(
            p, l1=dataclasses.replace(p.l1, hit_latency=p.l1.hit_latency + 1)
        )
        assert cell_key(**_cell()) != cell_key(**_cell(params=tweaked))

    def test_schema_version_in_key(self, monkeypatch):
        import repro.harness.runcache as rc

        before = cell_key(**_cell())
        monkeypatch.setattr(rc, "CACHE_SCHEMA_VERSION", 9999)
        assert cell_key(**_cell()) != before

    def test_typical_cell_key_is_pinned(self):
        # Every params field is hashed, so adding, removing or renaming
        # one silently invalidates every on-disk cache.  Update this pin
        # only for a change that means to do that.
        assert cell_key(**_cell()) == (
            "b396add54ee798cceebc6e03acdd008cd13427a3cb21b2c5d8c3a3d4adcded10"
        )

    def test_numeric_type_does_not_change_key(self):
        # scale=1 (int) and scale=1.0 (float) describe the same cell and
        # must land on the same cache entry; likewise bool-typed threads
        # or numpy-style integral seeds collapsing to int.
        assert cell_key(**_cell(scale=1)) == cell_key(**_cell(scale=1.0))
        assert cell_key(**_cell(seed=1.0)) == cell_key(**_cell(seed=1))
        assert cell_key(**_cell(threads=2.0)) == cell_key(**_cell(threads=2))
        # Distinct values still hash apart.
        assert cell_key(**_cell(scale=1)) != cell_key(**_cell(scale=2))


class TestRunCache:
    def test_roundtrip(self, tmp_path):
        cell = _cell()
        stats = _stats(cell)
        cache = RunCache(str(tmp_path))
        assert cache.get(cell_key(**cell)) is None
        cache.put(cell_key(**cell), stats)
        loaded = cache.get(cell_key(**cell))
        assert loaded is not None
        assert fingerprint(loaded) == fingerprint(stats)
        assert loaded.execution_cycles == stats.execution_cycles
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cell = _cell()
        cache = RunCache(str(tmp_path))
        cache.put(cell_key(**cell), _stats(cell))
        path = cache.path_for(cell_key(**cell))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ not json")
        assert cache.get(cell_key(**cell)) is None

    def test_corrupt_entry_unlinked_and_repaired(self, tmp_path):
        """Corrupt entries are evicted so the next run re-stores cleanly."""
        cell = _cell()
        stats = _stats(cell)
        cache = RunCache(str(tmp_path))
        cache.put(cell_key(**cell), stats)
        path = cache.path_for(cell_key(**cell))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ not json")

        # Corrupt read: a miss, and the poisoned file is gone.
        assert cache.get(cell_key(**cell)) is None
        assert not os.path.exists(path)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

        # Repair: the re-store lands and the next get is a clean hit.
        cache.put(cell_key(**cell), stats)
        loaded = cache.get(cell_key(**cell))
        assert loaded is not None
        assert fingerprint(loaded) == fingerprint(stats)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 2)

    def test_concurrent_same_key_puts(self, tmp_path):
        """Threaded same-key puts must not interleave temp-file writes."""
        import threading

        cell = _cell()
        stats = _stats(cell)
        cache = RunCache(str(tmp_path))
        errors = []

        def writer():
            try:
                for _ in range(5):
                    cache.put(cell_key(**cell), stats)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = cache.get(cell_key(**cell))
        assert loaded is not None
        assert fingerprint(loaded) == fingerprint(stats)
        # No stray temp files survive the races.
        shard = os.path.dirname(cache.path_for(cell_key(**cell)))
        assert [f for f in os.listdir(shard) if ".tmp." in f] == []

    def test_stale_schema_entry_is_a_miss(self, tmp_path):
        cell = _cell()
        cache = RunCache(str(tmp_path))
        cache.put(cell_key(**cell), _stats(cell))
        path = cache.path_for(cell_key(**cell))
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["schema"] = -1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert cache.get(cell_key(**cell)) is None

    def test_sharded_layout(self, tmp_path):
        key = cell_key(**_cell())
        cache = RunCache(str(tmp_path))
        assert cache.path_for(key) == os.path.join(
            str(tmp_path), key[:2], f"{key}.json"
        )

    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"


@pytest.mark.parametrize("store_cls", [RunCache, ShardedStore])
def test_failed_put_leaves_no_temp_file(store_cls, tmp_path):
    store = store_cls(str(tmp_path))
    key = cell_key(**_cell())
    stats = RunStats(execution_cycles=1, cores=[])
    # Serialization raises after the temp file was created.
    with pytest.raises(TypeError):
        store.put(key, stats, meta={"unserializable": object()})
    leftovers = [
        name
        for _dir, _subdirs, names in os.walk(tmp_path)
        for name in names
        if ".tmp." in name
    ]
    assert leftovers == []
    assert store.get(key) is None
    assert store.stores == 0


@pytest.mark.parametrize("store_cls", [RunCache, ShardedStore])
def test_entry_bytes_are_sorted_json_dumps(store_cls, tmp_path):
    """An entry is exactly ``json.dumps(..., sort_keys=True)``.

    That is also what the streaming ``json.dump`` wrote, so entries
    written before and after the switch are byte-identical.
    """
    import io

    cell = _cell()
    stats = _stats(cell)
    meta = {"workload": cell["workload"], "threads": cell["threads"]}
    store = store_cls(str(tmp_path))
    key = cell_key(**cell)
    store.put(key, stats, meta=meta)
    with open(store.path_for(key), encoding="utf-8") as fh:
        written = fh.read()
    payload = run_stats_to_dict(stats, meta)
    assert written == json.dumps(payload, sort_keys=True)
    streamed = io.StringIO()
    json.dump(payload, streamed, sort_keys=True)
    assert written == streamed.getvalue()
    got = store.get(key)
    if store_cls is ShardedStore:  # the service's store returns records
        got = got.fingerprint
    else:
        got = fingerprint(got)
    assert got == fingerprint(stats)


class TestCoerceCache:
    def test_none_and_false(self):
        assert coerce_cache(None) is None
        assert coerce_cache(False) is None

    def test_passthrough(self, tmp_path):
        cache = RunCache(str(tmp_path))
        assert coerce_cache(cache) is cache

    def test_path(self, tmp_path):
        cache = coerce_cache(str(tmp_path))
        assert isinstance(cache, RunCache)
        assert cache.root == str(tmp_path)

    def test_true_uses_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_CACHE_DIR", str(tmp_path))
        assert coerce_cache(True).root == str(tmp_path)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            coerce_cache(42)


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_malformed_env_names_variable_and_convention(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "all")
        with pytest.raises(ValueError) as err:
            resolve_jobs(None)
        msg = str(err.value)
        assert "REPRO_JOBS" in msg and "'all'" in msg
        assert "0 = one worker per CPU" in msg


class TestRunCells:
    def _tasks(self):
        return [
            CellTask(i, wl, get_system("CGL"), 2, 0.05, 1, typical_params())
            for i, wl in enumerate(("ssca2", "kmeans+"))
        ]

    def test_empty(self):
        assert run_cells([]) == []

    def test_serial_and_parallel_agree(self):
        serial = run_cells(self._tasks(), jobs=1)
        parallel = run_cells(self._tasks(), jobs=2)
        assert [fingerprint(s) for s in serial] == [
            fingerprint(s) for s in parallel
        ]

    def test_sparse_indices_leave_none_slots(self):
        task = CellTask(
            2, "ssca2", get_system("CGL"), 2, 0.05, 1, typical_params()
        )
        out = run_cells([task], jobs=1)
        assert len(out) == 3
        assert out[0] is None and out[1] is None
        assert out[2] is not None

    def test_on_done_fires_per_task(self):
        seen = []
        run_cells(self._tasks(), jobs=1, on_done=lambda t, s: seen.append(t))
        assert {t.index for t in seen} == {0, 1}


class TestMultiseedIntegration:
    def test_multi_seed_parallel_and_cached(self, tmp_path):
        from repro.harness.multiseed import multi_seed_runs, paired_speedup

        seeds = (1, 2, 3)
        serial = multi_seed_runs("ssca2", "LockillerTM", 2, seeds, scale=0.05)
        cache = RunCache(str(tmp_path))
        parallel = multi_seed_runs(
            "ssca2", "LockillerTM", 2, seeds, scale=0.05, jobs=2, cache=cache
        )
        assert [fingerprint(s) for s in serial] == [
            fingerprint(s) for s in parallel
        ]
        assert cache.stores == len(seeds)

        warm = multi_seed_runs(
            "ssca2", "LockillerTM", 2, seeds, scale=0.05, cache=cache
        )
        assert cache.hits >= len(seeds)
        assert [fingerprint(s) for s in warm] == [
            fingerprint(s) for s in serial
        ]

        sp = paired_speedup(
            "ssca2", "CGL", "LockillerTM", 2, seeds, scale=0.05, cache=cache
        )
        assert sp.n == len(seeds)
        assert sp.mean > 0


class TestResilientIntegration:
    def test_resilient_sweep_uses_cache(self, tmp_path):
        from repro.harness.sweeps import Sweep

        sweep = Sweep(
            workloads=("ssca2",),
            systems=("CGL", "LockillerTM"),
            threads=(2,),
            seeds=(1,),
            scale=0.05,
        )
        cache = RunCache(str(tmp_path))
        cold = sweep.run_resilient(cache=cache)
        assert cold.ok and cold.executed == 2
        assert cache.stores == 2

        warm = sweep.run_resilient(cache=cache)
        assert warm.ok and warm.executed == 0 and warm.resumed == 2
        assert [fingerprint(r.stats) for r in warm.results.records] == [
            fingerprint(r.stats) for r in cold.results.records
        ]

    def test_fault_plan_bypasses_cache(self, tmp_path):
        from repro.harness.sweeps import Sweep
        from repro.resilience.faults import get_plan, plan_names

        sweep = Sweep(
            workloads=("ssca2",),
            systems=("CGL",),
            threads=(2,),
            seeds=(1,),
            scale=0.05,
        )
        cache = RunCache(str(tmp_path))
        plan = get_plan(plan_names()[0])
        report = sweep.run_resilient(cache=cache, fault_plan=plan)
        assert report.executed == 1
        assert cache.stores == 0 and cache.hits == 0
