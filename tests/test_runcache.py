"""Tests for the persistent run cache and the parallel cell runner."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.common.params import small_cache_params, typical_params
from repro.common.stats import RunStats
from repro.harness.export import fingerprint, run_stats_to_dict
from repro.common.errors import ConfigError
from repro.harness.parallel import resolve_jobs, run_cells
from repro.harness.runcache import (
    RunCache,
    cell_key,
    coerce_cache,
    default_cache_dir,
)
from repro.harness.sweeps import Sweep
from repro.harness.systems import get_system
from repro.resilience.harness import RetryPolicy
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


#: A child that opens a cache and blocks inside ``put`` after creating
#: its temp file, until it is killed.
_STUCK_PUT = """
import sys, time
from repro.common.stats import RunStats
from repro.harness import runcache

def stuck(stats, meta):
    print("in put", flush=True)
    time.sleep(600)

runcache.run_stats_to_dict = stuck
cache = runcache.RunCache(sys.argv[1])
cache.put(sys.argv[2], RunStats(execution_cycles=1, cores=[]))
"""


class TestStaleTempFiles:
    """A writer killed mid-put leaves its temp file; the next open of
    the cache removes it unless the writer is still running."""

    @staticmethod
    def _stuck_writer(root, key):
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _STUCK_PUT, root, key],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        assert proc.stdout.readline() == "in put\n"
        return proc

    @staticmethod
    def _temps(root):
        return sorted(
            name
            for _dir, _subdirs, names in os.walk(root)
            for name in names
            if ".json.tmp." in name
        )

    def test_sigkill_mid_put_then_open_removes_only_dead_writers(
        self, tmp_path
    ):
        root = str(tmp_path)
        key = cell_key(**_cell())
        dead = self._stuck_writer(root, key)
        live = self._stuck_writer(root, key)
        try:
            dead.kill()  # SIGKILL: no handler, no cleanup
            dead.wait()
            dead.stdout.close()
            assert len(self._temps(root)) == 2
            store = ShardedStore(root)
            (kept,) = self._temps(root)
            assert f".json.tmp.{live.pid}." in kept
            assert store.get(key) is None
        finally:
            live.kill()
            live.wait()
            live.stdout.close()
        RunCache(root)
        assert self._temps(root) == []

    def test_open_of_missing_root_creates_nothing(self, tmp_path):
        root = tmp_path / "absent"
        RunCache(str(root))
        assert not root.exists()


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
        from repro.harness.experiments import ExperimentContext

        monkeypatch.setenv("REPRO_JOBS", "all")
        with pytest.raises(ValueError) as err:
            resolve_jobs(None)
        msg = str(err.value)
        assert "REPRO_JOBS" in msg and "'all'" in msg
        assert "0 = one worker per CPU" in msg
        # ExperimentContext leaves jobs to the same parser: it builds,
        # and its first run raises the same message for either value.
        for env in ("all", "-2"):
            monkeypatch.setenv("REPRO_JOBS", env)
            ctx = ExperimentContext(threads=(2,))
            assert ctx.jobs is None
            with pytest.raises(ValueError, match=f"REPRO_JOBS='{env}'"):
                ctx.run("ssca2", "CGL", 2)

    def test_malformed_env_raises_on_a_warm_cache(self, monkeypatch,
                                                  tmp_path):
        """A run whose every cell is a cache hit still parses
        ``$REPRO_JOBS``, and raises what a cold run raises."""
        from repro.harness.experiments import ExperimentContext

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        sweep = small_cells_sweep(("ssca2",))
        cache = RunCache(str(tmp_path / "warm"))
        sweep.run(cache=cache)
        monkeypatch.setenv("REPRO_JOBS", "all")
        with pytest.raises(ValueError) as cold:
            sweep.run(cache=RunCache(str(tmp_path / "cold")))
        with pytest.raises(ValueError) as warm:
            sweep.run(cache=cache)
        assert str(warm.value) == str(cold.value)
        ctx = ExperimentContext(
            scale=0.05, seed=1, threads=(2,), disk_cache=cache
        )
        with pytest.raises(ValueError) as warm_ctx:
            ctx.run("ssca2", "CGL", 2)
        assert str(warm_ctx.value) == str(cold.value)
        assert cache.hits == 0


def small_cells_sweep(workloads=("ssca2", "kmeans+"), systems=("CGL",)):
    return Sweep(workloads=workloads, systems=systems, threads=(2,),
                 seeds=(1,), scale=0.05)


class TestRunCells:
    def _tasks(self):
        return small_cells_sweep().points()

    def test_empty(self):
        assert run_cells([]) == ([], {}, 0)

    def test_serial_and_parallel_agree(self):
        serial = run_cells(self._tasks(), jobs=1).stats
        parallel = run_cells(self._tasks(), jobs=2).stats
        assert [fingerprint(s) for s in serial] == [
            fingerprint(s) for s in parallel
        ]

    def test_results_follow_input_order(self):
        cells = self._tasks()
        forward = [fingerprint(s) for s in run_cells(cells, jobs=1).stats]
        backward = run_cells(cells[::-1], jobs=1).stats
        assert [fingerprint(s) for s in backward] == forward[::-1]
        assert forward[0] != forward[1]

    def test_on_done_fires_per_task(self):
        seen = []
        run_cells(self._tasks(), jobs=1, progress=seen.append)
        assert seen == self._tasks()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_serves_hits_and_stores_misses(self, jobs, tmp_path):
        reference = [fingerprint(s) for s in run_cells(self._tasks()).stats]
        cache = RunCache(str(tmp_path))
        cold = run_cells(self._tasks(), jobs=jobs, cache=cache)
        assert cold.executed == 2
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
        warm = run_cells(self._tasks(), jobs=jobs, cache=cache)
        assert warm.executed == 0
        assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)
        for done in (cold, warm):
            assert [fingerprint(s) for s in done.stats] == reference

    def test_put_precedes_progress(self, tmp_path):
        cache = RunCache(str(tmp_path))
        stored_at_progress = []
        run_cells(
            self._tasks(),
            cache=cache,
            progress=lambda task: stored_at_progress.append(cache.stores),
        )
        assert stored_at_progress == [1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_propagates_without_policy(self, jobs):
        tasks = self._tasks() + small_cells_sweep(("no-such-kernel",)).points()
        with pytest.raises(ConfigError, match="no-such-kernel"):
            run_cells(tasks, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_policy_quarantines_instead_of_raising(self, jobs, tmp_path):
        tasks = (
            small_cells_sweep(("no-such-kernel",)).points()
            + small_cells_sweep(("ssca2",), ("NoSuchSystem",)).points()
            + self._tasks()
        )
        cache = RunCache(str(tmp_path))
        done = run_cells(
            tasks, jobs=jobs, cache=cache, retry=RetryPolicy(max_attempts=2)
        )
        assert sorted(done.quarantined) == [0, 1]
        assert done.quarantined[1].replay["system"] == "NoSuchSystem"
        assert {q.error_type for q in done.quarantined.values()} == {
            "ConfigError"
        }
        assert [q.attempts for q in done.quarantined.values()] == [2, 2]
        assert done.stats[:2] == [None, None]
        assert [fingerprint(s) for s in done.stats[2:]] == [
            fingerprint(s) for s in run_cells(self._tasks()).stats
        ]
        # The unresolved system has no key: only the good cells are
        # looked up and stored.
        assert (cache.hits, cache.misses, cache.stores) == (0, 3, 2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_prewarm_through_cache(self, jobs, tmp_path):
        from repro.harness.experiments import ExperimentContext

        cells = [
            ("ssca2", "CGL", 2),
            ("kmeans+", "LockillerTM", 2),
            ("ssca2", "CGL", 2),  # a repeat runs once
        ]
        reference = ExperimentContext(scale=0.05, seed=1, jobs=1)
        reference.prewarm(cells)

        def fingerprints(ctx):
            return [fingerprint(ctx.run(wl, sys, th)) for wl, sys, th in cells]

        cache = RunCache(str(tmp_path))
        cold = ExperimentContext(
            scale=0.05, seed=1, jobs=jobs, disk_cache=cache
        )
        assert cold.prewarm(cells) == 2
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
        warm = ExperimentContext(
            scale=0.05, seed=1, jobs=jobs, disk_cache=cache
        )
        assert warm.prewarm(cells) == 0
        assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)
        assert fingerprints(cold) == fingerprints(reference)
        assert fingerprints(warm) == fingerprints(reference)
        assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)


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

        # A planned run leaves nothing a clean resume could be served.
        clean = sweep.run_resilient(cache=cache)
        assert clean.executed == 1 and clean.resumed == 0
        assert cache.stores == 1 and cache.hits == 0
        truth = fingerprint(sweep.run().records[0].stats)
        assert fingerprint(clean.results.records[0].stats) == truth
        assert fingerprint(report.results.records[0].stats) != truth
