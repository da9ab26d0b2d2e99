"""Tests for the sweep service: campaign model, result store, and the
end-to-end determinism pins (service == serial ``Sweep.run``, resubmit
== 100% cache dedup, drain/resume)."""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.common.errors import ConfigError
from repro.harness.export import (
    compare_runs,
    fingerprint,
    run_stats_from_dict,
    run_stats_to_dict,
)
from repro.harness.runcache import RunCache
from repro.service import (
    CampaignSpec,
    ServiceClient,
    ServiceError,
    ShardedStore,
)
from repro.service.server import ServiceConfig, ServiceThread

TINY = {
    "kind": "sweep",
    "workloads": ["kmeans+", "ssca2"],
    "systems": ["CGL", "LockillerTM"],
    "threads": [2],
    "seeds": [1],
    "scale": 0.05,
}


def json_normal(doc):
    """JSON-canonical form (int dict keys become strings, like the wire)."""
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.fixture
def service(tmp_path):
    with ServiceThread(
        ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=2)
    ) as handle:
        yield handle


def client_of(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port)


def raw_request(handle, request: bytes):
    """Send raw request bytes; return (status, decoded JSON body)."""
    with socket.create_connection((handle.host, handle.port), 30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def raw_post(handle, body: bytes, length=None):
    length = len(body) if length is None else length
    return raw_request(handle, (
        f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1") + body)


class TestCampaignSpec:
    def test_roundtrip(self):
        spec = CampaignSpec.from_dict(TINY)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.size() == 4
        assert spec.digest() == CampaignSpec.from_dict(TINY).digest()

    def test_cells_follow_sweep_point_order(self):
        spec = CampaignSpec.from_dict(
            dict(TINY, threads=[2, 4], seeds=[1, 2])
        )
        cells = spec.cells()
        points = list(spec.to_sweep().points())
        assert len(cells) == len(points) == spec.size()
        for cell, point in zip(cells, points):
            assert cell.workload == point.workload
            assert cell.system == point.system
            assert cell.threads == point.threads
            assert cell.seed == point.seed
            assert cell.params_tag == point.params_tag

    def test_cell_keys_are_runcache_keys(self):
        from repro.harness.runcache import cell_key
        from repro.harness.systems import get_system
        from repro.common.params import typical_params

        cell = CampaignSpec.from_dict(TINY).cells()[0]
        assert cell.key == cell_key(
            cell.workload, get_system(cell.system), typical_params(),
            cell.threads, cell.scale, cell.seed,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(TINY, kind="banana"),
            dict(TINY, workloads=[]),
            dict(TINY, workloads=["no-such-workload"]),
            dict(TINY, systems=["NoSuchSystem"]),
            dict(TINY, seeds=["x"]),
            dict(TINY, scale=-1.0),
            dict(TINY, scale="wide"),
            dict(TINY, params_tags=["gigantic"]),
            dict(TINY, surprise=True),
            dict(TINY, kind="multiseed"),  # two workloads/systems
            "not a dict",
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict(bad)

    def test_multiseed_shape_ok(self):
        spec = CampaignSpec.from_dict(
            {
                "kind": "multiseed",
                "workloads": ["ssca2"],
                "systems": ["LockillerTM"],
                "threads": [2],
                "seeds": [1, 2, 3],
                "scale": 0.05,
            }
        )
        assert spec.size() == 3

    def test_scalar_fields_coerce_to_lists(self):
        spec = CampaignSpec.from_dict(
            {"workloads": "ssca2", "systems": "CGL", "threads": 2,
             "seeds": 7, "scale": 0.05}
        )
        assert spec.workloads == ("ssca2",)
        assert spec.seeds == (7,)


class TestShardedStore:
    def _stats(self):
        from repro.common.stats import CoreStats, RunStats

        return RunStats(execution_cycles=123, cores=[CoreStats()])

    def test_one_level_layout(self, tmp_path):
        """Entries sit where a ``RunCache`` at the same root reads them."""
        store = ShardedStore(str(tmp_path))
        key = "ab12" + "0" * 60
        assert store.path_for(key) == str(tmp_path / "ab" / f"{key}.json")
        store.put(key, self._stats())
        assert RunCache(str(tmp_path)).get(key).execution_cycles == 123

    def test_put_get_roundtrip(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        key = "fe" * 32
        assert store.get(key) is None
        store.put(key, self._stats(), meta={"origin": "test"})
        assert os.path.exists(store.path_for(key))
        got = store.get(key)
        assert got is not None
        assert got.execution_cycles == 123
        assert store.hits == 1 and store.misses == 1

    def test_corrupt_entry_repair_inherited(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        key = "aa" * 32
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ corrupt")
        assert store.get(key) is None
        assert not os.path.exists(path)  # repaired by unlinking
        store.put(key, self._stats())
        assert store.get(key) is not None

    def test_concurrent_same_shard_puts(self, tmp_path):
        store = ShardedStore(str(tmp_path))
        stats = self._stats()
        keys = ["ab12" + f"{i:060x}" for i in range(16)]
        errors = []

        def writer(key):
            try:
                for _ in range(10):
                    store.put(key, stats)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(store.get(k) is not None for k in keys)

    def test_put_recovers_a_pruned_shard(self, tmp_path):
        """A shard directory removed after a put is re-created by the next
        put (a memo of made directories used to make it raise forever)."""
        import shutil

        store = ShardedStore(str(tmp_path))
        key = "ab12" + "0" * 60
        store.put(key, self._stats())
        shutil.rmtree(tmp_path / "ab")
        store.put(key, self._stats())
        assert store.get(key).execution_cycles == 123


class TestServiceHTTP:
    def test_healthz_and_stats(self, service):
        client = client_of(service)
        assert client.healthz()["ok"] is True
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["draining"] is False

    def test_unknown_routes_404(self, service):
        client = client_of(service)
        with pytest.raises(ServiceError) as err:
            client.status("j-nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_bad_campaign_400(self, service):
        client = client_of(service)
        with pytest.raises(ServiceError) as err:
            client.submit({"workloads": ["no-such"], "systems": ["CGL"]})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/jobs", {"campaign": "nope"})
        assert err.value.status == 400

    @pytest.mark.parametrize("body", [b"[]", b'"x"'], ids=["list", "str"])
    def test_body_not_an_object_400(self, service, body):
        status, payload = raw_post(service, body)
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_non_integer_content_length_400(self, service):
        status, payload = raw_post(service, b"{}", length="abc")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_400(self, service):
        status, payload = raw_post(service, b"", length=-5)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_non_integer_cursor_400(self, service):
        job_id = client_of(service).submit({
            "workloads": ["ssca2"], "systems": ["CGL"], "threads": [1],
            "seeds": [1], "scale": 0.01,
        })["job_id"]
        status, payload = raw_request(service, (
            f"GET /v1/jobs/{job_id}/events?cursor=abc HTTP/1.1\r\n"
            f"Host: x\r\n\r\n"
        ).encode("latin-1"))
        assert status == 400
        assert "cursor" in payload["error"]


class TestServiceDeterminism:
    def test_service_matches_serial_sweep_and_resubmit_dedups(
        self, service
    ):
        spec = CampaignSpec.from_dict(TINY)
        serial = spec.to_sweep().run()
        serial_fps = [fingerprint(r.stats) for r in serial.records]
        serial_dicts = [
            json_normal(run_stats_to_dict(r.stats))
            for r in serial.records
        ]

        client = client_of(service)
        job = client.submit(TINY, tenant="alice")
        final = client.wait(job["job_id"], timeout=180)
        assert final["state"] == "done"
        assert final["progress"]["cells_scheduled"] == spec.size()

        results = client.results(job["job_id"])
        assert [c["fingerprint"] for c in results["cells"]] == serial_fps
        assert [c["stats"] for c in results["cells"]] == serial_dicts
        # The wire dicts reconstruct to RunStats with zero differences.
        for cell, record in zip(results["cells"], serial.records):
            assert not compare_runs(
                run_stats_from_dict(cell["stats"]), record.stats
            )

        # End-to-end dedup pin: an immediate resubmission (different
        # tenant, same campaign) schedules zero new cells.
        job2 = client.submit(TINY, tenant="bob")
        final2 = client.wait(job2["job_id"], timeout=60)
        progress = final2["progress"]
        assert final2["state"] == "done"
        assert progress["cells_scheduled"] == 0
        assert progress["cells_from_cache"] == spec.size()
        fps2 = [
            c["fingerprint"]
            for c in client.results(job2["job_id"], lite=True)["cells"]
        ]
        assert fps2 == serial_fps

    def test_multiseed_summary(self, service):
        client = client_of(service)
        campaign = {
            "kind": "multiseed",
            "workloads": ["ssca2"],
            "systems": ["LockillerTM"],
            "threads": [2],
            "seeds": [1, 2, 3],
            "scale": 0.05,
        }
        job = client.submit(campaign)
        final = client.wait(job["job_id"], timeout=180)
        assert final["state"] == "done"
        summary = client.results(job["job_id"], lite=True)["summary"]
        assert summary["n"] == 3
        assert summary["min"] <= summary["mean"] <= summary["max"]

        from repro.harness.multiseed import multi_seed_runs

        runs = multi_seed_runs("ssca2", "LockillerTM", 2, [1, 2, 3],
                               scale=0.05)
        mean = sum(r.execution_cycles for r in runs) / 3
        assert summary["mean"] == pytest.approx(mean)

    def test_event_feed_order_and_stream(self, service):
        client = client_of(service)
        job = client.submit(TINY)
        events = list(client.stream(job["job_id"], follow=True))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "job_done"
        assert kinds.count("cell_done") == 4
        assert [e["seq"] for e in events] == list(
            range(1, len(events) + 1)
        )
        # The JSONL feed on disk carries the same events.
        feed = service.service.jobs[job["job_id"]].events_path
        with open(feed, encoding="utf-8") as fh:
            on_disk = [json.loads(line) for line in fh]
        assert on_disk == events


ONE_CELL = {
    "kind": "sweep",
    "workloads": ["ssca2"],
    "systems": ["LockillerTM"],
    "threads": [1],
    "seeds": [1],
    "scale": 0.01,
}


class TestStoreWriteFailure:
    def test_failed_put_still_delivers_and_next_job_runs(self, service):
        """A store write that raises costs reuse, not the job: the result
        is delivered, the failure is counted, the scheduler keeps going."""
        svc = service.service

        def failing_put(key, stats, meta=None):
            raise OSError(28, "No space left on device")

        svc.store.put = failing_put
        client = client_of(service)
        first = client.submit(ONE_CELL)
        final = client.wait(first["job_id"], timeout=60)
        assert final["state"] == "done"
        assert final["progress"]["cells_scheduled"] == 1
        second = client.submit(dict(ONE_CELL, seeds=[2]))
        assert client.wait(second["job_id"], timeout=60)["state"] == "done"

        store = client.stats()["store"]
        assert store["put_failures"] == 2
        assert store["stores"] == 0
        assert "No space left" in store["last_put_error"]
        # The delivered result is the real one.
        cell = client.results(first["job_id"])["cells"][0]
        spec = CampaignSpec.from_dict(ONE_CELL)
        serial = spec.to_sweep().run().records[0].stats
        assert cell["fingerprint"] == fingerprint(serial)


class TestBrokenPool:
    #: About 1.5 s of simulation: ample time to kill its worker mid-run.
    SLOW = {"kind": "sweep", "workloads": ["labyrinth"],
            "systems": ["LockillerTM"], "threads": [8], "seeds": [1],
            "scale": 1.0}

    @staticmethod
    def _kill_workers(svc) -> None:
        pool = svc._pool
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken:  # the pool notices its dead worker
            assert time.monotonic() < deadline, "pool never broke"
            time.sleep(0.01)

    def test_killed_worker_fails_its_cell_and_service_recovers(
            self, tmp_path):
        with ServiceThread(
            ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        ) as handle:
            svc = handle.service
            client = client_of(handle)
            lost = client.submit(self.SLOW)["job_id"]
            for event in client.stream(lost, follow=True):
                if event["event"] == "cell_scheduled":
                    break
            # Mid-run: the cell's execution is lost with its worker.
            self._kill_workers(svc)
            assert client.wait(lost, timeout=60)["state"] == "failed"
            error = client.results(lost)["cells"][0]["error"]
            assert error.startswith("BrokenProcessPool")
            # A later cold campaign runs on a fresh pool.
            later = client.submit(ONE_CELL)["job_id"]
            assert client.wait(later, timeout=60)["state"] == "done"
            # Idle: the next submit finds the pool broken and replaces
            # it, so no execution is lost and the campaign completes.
            self._kill_workers(svc)
            idle = client.submit(dict(ONE_CELL, seeds=[2]))["job_id"]
            assert client.wait(idle, timeout=60)["state"] == "done"
            assert not svc._scheduler_task.done()
            assert client.stats()["cells_executed"] == 2

    def test_stream_follower_ends_after_pool_is_replaced(self, tmp_path):
        """The replacement pool forks while a job's stream is open, and
        its worker inherits the stream's socket.  The server half-closes
        each connection, so the follower still sees the feed end."""
        with ServiceThread(
            ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        ) as handle:
            svc = handle.service
            client = client_of(handle)
            slow = client.submit(self.SLOW)["job_id"]
            for event in client.stream(slow, follow=True):
                if event["event"] == "cell_scheduled":
                    break
            queued = client.submit(ONE_CELL)["job_id"]
            following = threading.Event()
            events, errors = [], []

            def follow() -> None:
                follower = ServiceClient(handle.host, handle.port,
                                         timeout=10)
                try:
                    for event in follower.stream(queued, follow=True):
                        events.append(event)
                        following.set()
                except Exception as exc:  # noqa: BLE001 - report below
                    errors.append(exc)
                following.set()

            thread = threading.Thread(target=follow)
            thread.start()
            assert following.wait(timeout=30)
            self._kill_workers(svc)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert errors == []
            assert events[-1]["event"] == "job_done"
            assert client.status(slow)["state"] == "failed"


class TestDrainResume:
    def test_drain_journals_and_resume_completes(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        campaign = dict(TINY, seeds=[1, 2, 3, 4])  # 16 cells
        spec = CampaignSpec.from_dict(campaign)

        handle = ServiceThread(
            ServiceConfig(state_dir=state_dir, jobs=1)
        ).start()
        try:
            client = client_of(handle)
            job_id = client.submit(campaign)["job_id"]
            deadline = time.monotonic() + 120
            while (
                client.status(job_id)["progress"]["cells_done"] < 2
            ):
                assert time.monotonic() < deadline, "no progress"
                time.sleep(0.01)
        finally:
            handle.stop()  # graceful drain mid-campaign

        journal = json.load(
            open(os.path.join(state_dir, "jobs", f"{job_id}.json"))
        )
        assert journal["state"] == "queued"  # resumable, not lost

        handle = ServiceThread(
            ServiceConfig(state_dir=state_dir, jobs=2)
        ).start()
        try:
            client = client_of(handle)
            final = client.wait(job_id, timeout=240)
            assert final["state"] == "done"
            # Work finished before the drain is served from the store.
            assert final["progress"]["cells_from_cache"] >= 2
            assert (
                final["progress"]["cells_scheduled"] < spec.size()
            )
            fps = [
                c["fingerprint"]
                for c in client.results(job_id, lite=True)["cells"]
            ]
            serial = spec.to_sweep().run()
            assert fps == [fingerprint(r.stats) for r in serial.records]
        finally:
            handle.stop()
