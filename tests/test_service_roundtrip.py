"""Drift-free pins on the warm service round trip.

Each test counts calls or compares bytes, never times: keys are
canonicalized once per spec/params object per campaign expansion,
results reuse the fingerprint computed at delivery, the bytes a stored
entry, an event feed or a results body holds match the pinned older
encoders, and the store's record memo trusts only the bytes it just
read.
"""

from __future__ import annotations

import asyncio
import cProfile
import dataclasses
import hashlib
import http.client
import json
import os
import pstats
import sys
import threading

import pytest

from repro.common.params import typical_params
from repro.common.stats import ABORT_REASONS, TIME_CATS, RunStats
from repro.harness import runcache
from repro.harness.export import (
    SCHEMA_VERSION,
    fingerprint,
    run_stats_from_dict,
    run_stats_to_dict,
)
from repro.harness.runcache import (
    CACHE_SCHEMA_VERSION,
    StoredResult,
    _canonical,
    cell_key,
    cell_keyer,
)
from repro.harness.sweeps import Sweep
from repro.harness.systems import get_system
from repro.service import CampaignSpec, ServiceClient, ShardedStore
from repro.service import store as store_mod
from repro.service.campaigns import PARAMS_TAGS
from repro.service.jobs import Job, JobState
from repro.service.server import ReproService, ServiceConfig, ServiceThread

#: The warm campaign of the ``service-campaigns`` benchmark workload.
WARM = {
    "kind": "sweep",
    "workloads": ["genome", "intruder", "kmeans+", "ssca2", "vacation-",
                  "yada"],
    "systems": ["CGL", "Baseline", "LosaTM-SAFU", "LockillerTM"],
    "threads": [4, 8],
    "seeds": [42],
    "scale": 0.05,
}


def reference_cell_key(workload, spec, params, threads, scale, seed):
    """The key as the original single ``json.dumps`` computed it."""
    payload = json.dumps(
        {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "result_schema": SCHEMA_VERSION,
            "workload": workload,
            "spec": _canonical(spec),
            "params": _canonical(params),
            "threads": int(threads),
            "scale": float(scale),
            "seed": int(seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestKeyOnce:
    def test_warm_campaign_canonicalizes_each_object_once(self):
        spec = CampaignSpec.from_dict(WARM)
        prof = cProfile.Profile()
        prof.enable()
        cells = spec.cells()
        prof.disable()
        primitive = {
            func: cc
            for (path, _line, func), (cc, *_rest) in (
                pstats.Stats(prof).stats.items()
            )
            if path == runcache.__file__
        }
        assert len(cells) == 48
        # 4 systems + 1 params tag, each once; the recursion into their
        # fields is not a primitive call.
        assert primitive["_canonical"] == 5

    def test_mixed_campaign_keys_match_fresh_cell_key(self):
        campaigns = [
            dict(WARM, params_tags=["typical", "small", "large"],
                 threads=[1, 4], seeds=[1, 2], scale=scale)
            for scale in (1, 0.25)
        ]
        for data in campaigns:
            cells = CampaignSpec.from_dict(data).cells()
            assert len(cells) == 6 * 4 * 2 * 2 * 3
            for cell in cells:
                args = (cell.workload, get_system(cell.system),
                        PARAMS_TAGS[cell.params_tag](), cell.threads,
                        data["scale"], cell.seed)
                assert cell.key == cell_key(*args)
                assert cell.key == reference_cell_key(*args)

    @pytest.mark.parametrize(
        "coords",
        [
            ("ssca2", 2, 0.05, 1),
            ("kmeans+", 8, 1, 7),
            ("café \"quoted\"", True, 1e-7, 2**40),
            ("ssca2", 2.0, float("inf"), 3.0),
        ],
    )
    def test_spliced_payload_equals_one_json_dumps(self, coords):
        workload, threads, scale, seed = coords
        spec, params = get_system("LockillerTM"), typical_params()
        args = (workload, spec, params, threads, scale, seed)
        assert cell_key(*args) == reference_cell_key(*args)
        assert cell_keyer()(*args) == reference_cell_key(*args)

    def test_keyer_memo_is_by_identity_not_value(self):
        """``==``-equal params that encode differently keep their keys."""
        p = typical_params()
        as_float = dataclasses.replace(p, num_cores=float(p.num_cores))
        assert as_float == p
        spec = get_system("CGL")
        key_of = cell_keyer()
        a = key_of("ssca2", spec, p, 2, 0.05, 1)
        b = key_of("ssca2", spec, as_float, 2, 0.05, 1)
        assert a == cell_key("ssca2", spec, p, 2, 0.05, 1)
        assert b == cell_key("ssca2", spec, as_float, 2, 0.05, 1)
        assert a != b


class TestDecodeTables:
    def test_missing_category_zero_fills_in_enum_order(self):
        stats = Sweep(
            workloads=["ssca2"], systems=["LockillerTM"], threads=(2,),
            seeds=(1,), scale=0.05,
            params_by_tag={"typical": typical_params()},
        ).run().records[0].stats
        doc = json.loads(json.dumps(run_stats_to_dict(stats)))
        for core in doc["cores"]:
            del core["aborts"]["explicit"]
            core["aborts"] = dict(reversed(list(core["aborts"].items())))
        decoded = run_stats_from_dict(doc)
        for cs, orig in zip(decoded.cores, stats.cores):
            assert list(cs.aborts) == ABORT_REASONS
            assert list(cs.time) == TIME_CATS
            assert cs.aborts[ABORT_REASONS[-1]] == 0
            assert cs.time == orig.time
        assert fingerprint(decoded) == fingerprint(stats)

    def test_unknown_category_reads_as_corrupt_entry(self, tmp_path):
        cache = runcache.RunCache(str(tmp_path))
        key = "cd" * 32
        stats = Sweep(
            workloads=["ssca2"], systems=["CGL"], threads=(1,),
            seeds=(1,), scale=0.01,
            params_by_tag={"typical": typical_params()},
        ).run().records[0].stats
        cache.put(key, stats)
        path = cache.path_for(key)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["cores"][0]["time"]["napping"] = 5
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cache.get(key) is None
        assert not os.path.exists(path)
        assert cache.misses == 1


class TestBytesPinned:
    def test_sweep_cache_entries_match_pinned_bytes(self, tmp_path):
        """Entry bytes (stats and meta) as the encoder before the decode
        tables and ``cell_meta`` wrote them."""
        root = tmp_path / "rc"
        Sweep(
            workloads=["ssca2"], systems=["CGL", "LockillerTM"],
            threads=(2,), seeds=(1,), scale=0.05,
            params_by_tag={"typical": typical_params()},
        ).run(cache=str(root))
        digests = {
            name: hashlib.sha256((path / name).read_bytes()).hexdigest()
            for path in root.iterdir()
            for name in os.listdir(path)
        }
        assert digests == {
            "b396add54ee798cceebc6e03acdd008cd13427a3cb21b2c5d8c3a3d4"
            "adcded10.json":
                "179b62dfaf10ab5fa61cce39455e5986e412fa1f49a569b8fcc952a"
                "d85ab9bba",
            "f60e4c52628204fbc0379df8f3400b6cfe04d313b54e1cbae508acc3"
            "b6407234.json":
                "d2c35e2d7bb4626eba3a94143a51e44f7073e895db913ad4518549d"
                "0b3a36ef7",
        }

    def test_event_feed_matches_pinned_bytes(self, tmp_path):
        campaign = CampaignSpec.from_dict({
            "workloads": ["ssca2"], "systems": ["CGL"], "threads": [2],
            "seeds": [1], "scale": 0.05,
        })
        job = Job("j00001-abcdef", "ténant", campaign,
                  str(tmp_path), submit_seq=1)
        job.emit("submitted", tenant=job.tenant, cells_total=1,
                 campaign_digest=campaign.digest())
        job.emit("cell_done", index=0, source="cache",
                 label=job.cells[0].label(),
                 fingerprint="0123456789abcdef", done=1, total=1)
        job.state = JobState.DONE
        job.emit("job_done", progress=job.progress())
        assert job._events_fh is None  # closed at the terminal state
        with open(job.events_path, "rb") as fh:
            written = fh.read()
        assert written == b"".join(job.event_lines)
        assert written == (
            b'{"campaign_digest": "3fccdb30096aeda9", "cells_total": 1, '
            b'"event": "submitted", "job_id": "j00001-abcdef", "seq": 1, '
            b'"tenant": "t\\u00e9nant"}\n'
            b'{"done": 1, "event": "cell_done", "fingerprint": '
            b'"0123456789abcdef", "index": 0, "job_id": "j00001-abcdef", '
            b'"label": "ssca2/CGL/t2/s1/typical", "seq": 2, '
            b'"source": "cache", "total": 1}\n'
            b'{"event": "job_done", "job_id": "j00001-abcdef", '
            b'"progress": {"cells_deduped": 0, "cells_done": 0, '
            b'"cells_failed": 0, "cells_from_cache": 0, '
            b'"cells_scheduled": 0, "cells_total": 1}, "seq": 3}\n'
        )

    def test_results_body_matches_pinned_bytes(self, tmp_path):
        """Full and lite results bodies as the dict-then-dumps encoder
        wrote them, job ids masked.

        The pinned job holds an executed cell (LockillerTM) and a cell
        served from the store (CGL, stored by the first job).  Both
        commit-latency histograms hold buckets on either side of 10, so
        a body that sorted the bucket keys as strings would differ.
        """
        stored = {
            "kind": "sweep", "workloads": ["intruder"], "systems": ["CGL"],
            "threads": [2], "seeds": [1], "scale": 0.02,
        }
        pinned = dict(stored, systems=["CGL", "LockillerTM"])
        with ServiceThread(
            ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        ) as handle:
            client = ServiceClient(handle.host, handle.port)
            first = client.submit(stored)["job_id"]
            assert client.wait(first, timeout=120)["state"] == "done"
            job_id = client.submit(pinned)["job_id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            full = _raw_get(handle, f"/v1/jobs/{job_id}/results")
            lite = _raw_get(handle, f"/v1/jobs/{job_id}/results?lite=1")
        sources = [e["source"] for e in _feed(tmp_path / "svc", job_id)
                   if e["event"] == "cell_done"]
        assert sorted(sources) == ["cache", "executed"]
        for cell in json.loads(full)["cells"]:
            buckets = cell["stats"]["cores"][0]["commit_latency_hist"][
                "buckets"]
            assert min(map(int, buckets)) < 10 <= max(map(int, buckets))
        masked = {
            name: hashlib.sha256(
                body.replace(job_id.encode(), b"J")
            ).hexdigest()
            for name, body in (("full", full), ("lite", lite))
        }
        assert masked == {
            "full": "3334817c79c917d5be90cefdba1a81c1ddeed35c79674a2aec2875"
                    "8acba2a2a2",
            "lite": "e635f6d801e6e634c83424b161fe373ef5878a56032dc1b4060e48"
                    "f3d6c85ab0",
        }


def _intruder_stats(seed: int = 1):
    """A small cell whose histograms hold buckets either side of 10."""
    return Sweep(
        workloads=["intruder"], systems=["CGL"], threads=(2,),
        seeds=(seed,), scale=0.02,
        params_by_tag={"typical": typical_params()},
    ).run().records[0].stats


class TestStoredRecords:
    """The store's record memo trusts nothing but the bytes just read."""

    KEY = "ab" * 32

    def test_deleted_entry_is_a_miss(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        store.put(self.KEY, _intruder_stats())
        assert store.get(self.KEY) is not None
        os.unlink(store.path_for(self.KEY))
        assert store.get(self.KEY) is None
        assert (store.hits, store.misses) == (1, 1)

    def test_garbage_over_memoized_entry_is_a_miss_and_unlinked(
            self, tmp_path):
        store = ShardedStore(str(tmp_path))
        store.put(self.KEY, _intruder_stats())
        assert store.get(self.KEY) is not None
        path = store.path_for(self.KEY)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ torn entry")
        assert store.get(self.KEY) is None
        assert not os.path.exists(path)
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)

    def test_replaced_entry_reads_as_the_new_bytes(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        first, second = _intruder_stats(1), _intruder_stats(2)
        assert fingerprint(first) != fingerprint(second)
        store.put(self.KEY, first)
        assert store.get(self.KEY).fingerprint == fingerprint(first)
        store.put(self.KEY, second)
        assert store.get(self.KEY).fingerprint == fingerprint(second)

    def test_memo_stays_within_its_bound(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        held = []
        for i in range(store_mod.MEMO_ENTRIES + 5):
            key = f"{i:064x}"
            store.put(key, RunStats(execution_cycles=i, cores=[]))
            held.append(store.get(key))
            assert len(store._memo) <= store_mod.MEMO_ENTRIES
        assert len(store._memo) == store_mod.MEMO_ENTRIES
        # Evicted records stay whole in the hands that hold them.
        assert [r.execution_cycles for r in held] == list(range(len(held)))
        assert store.get(f"{0:064x}").execution_cycles == 0

    def test_concurrent_reads_keep_the_bound(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        count = store_mod.MEMO_ENTRIES + 64
        keys = [f"{i:064x}" for i in range(count)]
        for i, key in enumerate(keys):
            store.put(key, RunStats(execution_cycles=i, cores=[]))
        errors = []

        def reader(offset):
            try:
                for i in range(count):
                    j = (i + offset) % count
                    assert store.get(keys[j]).execution_cycles == j
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n * 97,))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(store._memo) <= store_mod.MEMO_ENTRIES
        assert store.hits == 6 * count

    def test_run_cache_gets_return_distinct_stats(self, tmp_path):
        cache = runcache.RunCache(str(tmp_path))
        cache.put(self.KEY, _intruder_stats())
        first = cache.get(self.KEY)
        before = fingerprint(first)
        first.execution_cycles += 1
        first.cores[0].commits_htm += 1
        second = cache.get(self.KEY)
        assert second is not first
        assert fingerprint(second) == before

    def test_record_of_stats_equals_record_read_back(self, tmp_path):
        stats = _intruder_stats()
        store = ShardedStore(str(tmp_path))
        store.put(self.KEY, stats, meta={"workload": "intruder"})
        assert store.get(self.KEY) == StoredResult.of(stats)

    def test_executed_and_store_served_records_are_equal(self, tmp_path):
        campaign = {
            "kind": "sweep", "workloads": ["intruder"],
            "systems": ["CGL"], "threads": [2], "seeds": [1],
            "scale": 0.02,
        }
        with ServiceThread(
            ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        ) as handle:
            client = ServiceClient(handle.host, handle.port)
            ids = []
            for _ in range(2):
                ids.append(client.submit(campaign)["job_id"])
                assert client.wait(ids[-1], timeout=120)["state"] == "done"
            # The entry deleted after it was memoized: the cell re-runs.
            os.unlink(handle.service.store.path_for(
                handle.service.jobs[ids[0]].cells[0].key))
            ids.append(client.submit(campaign)["job_id"])
            assert client.wait(ids[-1], timeout=120)["state"] == "done"
            progress = [client.status(i)["progress"] for i in ids]
            records = [handle.service.jobs[i].results[0] for i in ids]
        assert [p["cells_scheduled"] for p in progress] == [1, 0, 1]
        assert [p["cells_from_cache"] for p in progress] == [0, 1, 0]
        assert records[0] == records[1] == records[2]
        assert records[0] is not records[1]


def _raw_get(handle, path: str) -> bytes:
    """The exact body bytes of one GET."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        assert resp.status == 200
        return resp.read()
    finally:
        conn.close()


def _feed(state_dir, job_id: str):
    """A job's events as its JSONL feed file holds them."""
    with open(os.path.join(state_dir, "events", f"{job_id}.jsonl"),
              encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestFingerprintOnce:
    def test_results_reuse_the_delivered_fingerprint(self, tmp_path,
                                                     monkeypatch):
        campaign = {
            "kind": "sweep", "workloads": ["ssca2"],
            "systems": ["CGL", "LockillerTM"], "threads": [1],
            "seeds": [1], "scale": 0.01,
        }
        with ServiceThread(
            ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        ) as handle:
            client = ServiceClient(handle.host, handle.port)
            job_id = client.submit(campaign)["job_id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            calls = []

            def counting(stats):
                calls.append(1)
                return fingerprint(stats)

            monkeypatch.setattr(runcache, "fingerprint", counting)
            results = client.results(job_id)
            lite = client.results(job_id, lite=True)
            events = list(client.stream(job_id, follow=False))
        assert calls == []
        done = {e["index"]: e["fingerprint"] for e in events
                if e["event"] == "cell_done"}
        for cell, lite_cell in zip(results["cells"], lite["cells"]):
            assert cell["fingerprint"] == lite_cell["fingerprint"]
            assert cell["fingerprint"] == done[cell["index"]]
            assert cell["fingerprint"] == fingerprint(
                run_stats_from_dict(cell["stats"])
            )


def _open_event_feeds(state_dir):
    fd_dir = "/proc/self/fd"
    events = os.path.join(os.path.realpath(state_dir), "events")
    found = []
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue  # closed between listdir and readlink
        if target.startswith(events):
            found.append(target)
    return found


class TestEventHandles:
    def test_queued_job_holds_no_feed_handle(self, tmp_path):
        async def submit_without_scheduler():
            svc = ReproService(ServiceConfig(state_dir=str(tmp_path)))
            svc._wake = asyncio.Event()  # never started: stays queued
            return svc.submit("a", CampaignSpec.from_dict(WARM))

        job = asyncio.run(submit_without_scheduler())
        assert job.state is JobState.QUEUED
        assert job._events_fh is None
        with open(job.events_path, "rb") as fh:
            assert fh.read() == b"".join(job.event_lines)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_no_feed_left_open_after_jobs_end_and_drain(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        campaign = {
            "kind": "sweep", "workloads": ["ssca2"], "systems": ["CGL"],
            "threads": [1], "seeds": [1], "scale": 0.01,
        }
        with ServiceThread(ServiceConfig(state_dir=state_dir, jobs=1)) as h:
            client = ServiceClient(h.host, h.port)
            job_id = client.submit(campaign)["job_id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            assert _open_event_feeds(state_dir) == []
            # Three slower cells on one worker: the stop below drains
            # the job mid-campaign, leaving it live.
            live_id = client.submit(dict(
                campaign, threads=[2], seeds=[2, 3, 4], scale=0.1,
            ))["job_id"]
        with open(os.path.join(state_dir, "jobs", f"{live_id}.json")) as fh:
            assert json.load(fh)["state"] == "queued"
        assert _open_event_feeds(state_dir) == []
