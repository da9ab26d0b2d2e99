"""Backpressure edges and the service concurrency and crash pins.

The service has one FIFO queue of cells under one bound,
``ServiceConfig.max_queued_cells``.  Covers: FIFO order across jobs,
admission at and over the bound, a zero bound over HTTP, cancel
returning queue room, resumed jobs counted but not re-gated, cancel
mid-run and resubmit dedup, nine concurrent campaigns deduplicated
onto twelve executions, SIGTERM or SIGKILL mid-campaign followed by
a restart that resumes the journal (a SIGKILL leaves no pool worker
behind), and discovery skipping a dead server's ``server.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common.errors import ConfigError
from repro.common.stats import RunStats
from repro.harness.export import fingerprint
from repro.harness.runcache import RunCache, decode_entry
from repro.service import (
    CampaignSpec,
    QueueFull,
    ServiceClient,
    ServiceError,
)
from repro.service.server import (
    ReproService,
    ServiceConfig,
    ServiceThread,
)

TINY = {
    "kind": "sweep",
    "workloads": ["kmeans+", "ssca2"],
    "systems": ["CGL", "LockillerTM"],
    "threads": [2],
    "seeds": [1],
    "scale": 0.05,
}

#: The smallest campaign: one cell.
ONE = {
    "kind": "sweep",
    "workloads": ["ssca2"],
    "systems": ["CGL"],
    "threads": [1],
    "seeds": [1],
    "scale": 0.01,
}


def store_stand_ins(service, campaign: CampaignSpec) -> None:
    """Store a stand-in result under every cell's key, so the scheduler
    serves the campaign from the store without running anything."""
    for cell in campaign.cells():
        service.store.put(
            cell.key, RunStats(execution_cycles=cell.index, cores=[]))


async def until_terminal(jobs, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not all(job.state.terminal for job in jobs):
        assert time.monotonic() < deadline, "jobs did not finish"
        await asyncio.sleep(0.01)


def run_scenario(tmp_path, scenario, **config_kwargs):
    """Run an async scenario against a live in-loop service.

    Inside ``scenario`` no other coroutine runs between awaits, so
    back-to-back submits see deterministic queue accounting.
    """

    async def main():
        service = ReproService(
            ServiceConfig(state_dir=str(tmp_path / "svc"),
                          **config_kwargs)
        )
        await service.start()
        try:
            await scenario(service)
        finally:
            service.request_stop()
            await service.serve_until_stopped()

    asyncio.run(main())


class TestAdmissionEdges:
    def test_cells_are_taken_in_submit_order(self, tmp_path):
        """One FIFO: every cell of the first job before any of the
        second, whatever label each job carries."""
        campaigns = [
            CampaignSpec.from_dict(dict(TINY, seeds=[seed]))
            for seed in (1, 2, 3)
        ]

        async def scenario(service):
            for campaign in campaigns:
                store_stand_ins(service, campaign)
            served = []
            get = service.store.get

            def watched_get(key):
                served.append(key)
                return get(key)

            service.store.get = watched_get
            jobs = [
                service.submit(label, campaign)
                for label, campaign in zip("abc", campaigns)
            ]
            await until_terminal(jobs)
            assert [job.state.value for job in jobs] == ["done"] * 3
            assert served == [cell.key for job in jobs for cell in job.cells]

        run_scenario(tmp_path, scenario, jobs=1)

    def test_queue_full_rejection_is_deterministic(self, tmp_path):
        campaign8 = CampaignSpec.from_dict(dict(TINY, seeds=[1, 2]))
        campaign4 = CampaignSpec.from_dict(TINY)

        async def scenario(service):
            service.submit("t", campaign8)
            service.submit("u", campaign4)  # exactly at the bound
            with pytest.raises(QueueFull) as err:
                service.submit("v", CampaignSpec.from_dict(ONE))
            assert (err.value.queued, err.value.requested,
                    err.value.limit) == (12, 1, 12)
            assert len(service.queue) == 12
            assert service.stats_dict()["queue"] == {
                "queued_cells": 12,
                "max_queued_cells": 12,
                "rejected_submits": 1,
            }

        run_scenario(tmp_path, scenario, jobs=1, max_queued_cells=12)

    def test_bound_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceConfig(state_dir=str(tmp_path), max_queued_cells=-1)

    def test_zero_bound_gets_429_over_http(self, tmp_path):
        config = ServiceConfig(
            state_dir=str(tmp_path / "svc"), jobs=1, max_queued_cells=0,
        )
        with ServiceThread(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                for campaign, cells in ((TINY, 4), (ONE, 1)):
                    with pytest.raises(ServiceError) as err:
                        client.submit(campaign, tenant="anyone")
                    assert err.value.status == 429
                    assert err.value.is_backpressure
                    payload = err.value.payload
                    assert payload["queued_cells"] == 0
                    assert payload["requested_cells"] == cells
                    assert payload["max_queued_cells"] == 0
                    assert "queue full" in payload["error"]
                assert client.jobs()["jobs"] == []
                assert client.stats()["queue"]["rejected_submits"] == 2

    def test_cancel_while_queued_returns_budget(self, tmp_path):
        campaign = CampaignSpec.from_dict(dict(TINY, seeds=[1, 2]))

        async def scenario(service):
            kept = service.submit("t", CampaignSpec.from_dict(ONE))
            job = service.submit("t", campaign)  # 9 of 9 queued
            with pytest.raises(QueueFull):
                service.submit("t", CampaignSpec.from_dict(ONE))
            service.cancel(job.job_id)  # drops only its own cells
            assert list(service.queue) == [(kept.job_id, 0)]
            service.submit("t", campaign)  # the room is back

        run_scenario(tmp_path, scenario, jobs=1, max_queued_cells=9)

    def test_resumed_jobs_count_but_are_not_gated(self, tmp_path):
        campaigns = [
            CampaignSpec.from_dict(dict(TINY, seeds=[seed]))
            for seed in (1, 2)
        ]
        state_dir = str(tmp_path / "svc")

        async def journal_two_jobs():
            service = ReproService(ServiceConfig(state_dir=state_dir))
            service._wake = asyncio.Event()  # never started: stays queued
            for campaign in campaigns:
                service.submit("t", campaign)
                store_stand_ins(service, campaign)

        asyncio.run(journal_two_jobs())

        async def scenario(service):
            # 8 resumed cells over a bound of 4: all re-queued.
            assert len(service.queue) == 8
            with pytest.raises(QueueFull) as err:
                service.submit("t", CampaignSpec.from_dict(ONE))
            assert err.value.queued == 8
            await until_terminal(service.jobs.values())
            assert all(
                job.state.value == "done" for job in service.jobs.values()
            )
            assert len(service.queue) == 0
            service.submit("t", CampaignSpec.from_dict(TINY))

        run_scenario(tmp_path, scenario, jobs=1, max_queued_cells=4)


class TestCancel:
    def test_cancel_mid_run_and_resubmit_dedups(self, tmp_path):
        campaign = dict(TINY, seeds=[1, 2, 3])  # 12 cells
        total = CampaignSpec.from_dict(campaign).size()
        config = ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        with ServiceThread(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                job_id = client.submit(campaign)["job_id"]
                deadline = time.monotonic() + 120
                while (
                    client.status(job_id)["progress"]["cells_done"] < 1
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                cancelled = client.cancel(job_id)
                assert cancelled["state"] == "cancelled"
                assert client.status(job_id)["state"] == "cancelled"
                # Cancelling is idempotent.
                assert client.cancel(job_id)["state"] == "cancelled"

                # Resubmit: completed cells come from the cache, any cell
                # still in flight at cancel time is joined, and no key is
                # ever executed twice service-wide.
                job2 = client.submit(campaign)
                final = client.wait(job2["job_id"], timeout=180)
                progress = final["progress"]
                assert final["state"] == "done"
                assert progress["cells_done"] == total
                assert (
                    progress["cells_from_cache"]
                    + progress["cells_deduped"] >= 1
                )
                assert progress["cells_scheduled"] < total
                assert client.stats()["cells_executed"] <= total

    def test_cancel_wakes_stream_followers(self, tmp_path):
        """A follower of a queued job sees the cancel at once, not at
        its client timeout."""

        async def scenario():
            service = ReproService(
                ServiceConfig(state_dir=str(tmp_path / "svc")))
            service._wake = asyncio.Event()  # never started: stays queued
            job = service.submit("t", CampaignSpec.from_dict(TINY))
            follower = asyncio.ensure_future(
                job.wait_events(len(job.event_lines)))
            await asyncio.sleep(0)
            assert not follower.done()
            service.cancel(job.job_id)
            assert await asyncio.wait_for(follower, 5) == 2
            with open(job.events_path, "rb") as fh:
                assert fh.read() == b"".join(job.event_lines)

        asyncio.run(scenario())

    def test_cancelled_job_keeps_no_results(self, tmp_path):
        config = ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        with ServiceThread(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                job_id = client.submit(TINY)["job_id"]
                client.cancel(job_id)
                results = client.results(job_id, lite=True)
                assert results["state"] == "cancelled"
                # Journal records the terminal state (no resume on restart).
                with open(os.path.join(
                    str(tmp_path / "svc"), "jobs", f"{job_id}.json"
                )) as fh:
                    journal = json.load(fh)
                assert journal["state"] == "cancelled"


class TestConcurrentCampaigns:
    def test_nine_campaigns_dedup_onto_twelve_executions(self, tmp_path):
        """Nine campaigns in flight at once, three of each: every copy
        gets the same fingerprints, and no key runs twice."""
        config = ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=4)
        campaigns = [
            dict(TINY, seeds=[seed]) for seed in (1, 2, 3)
        ]
        with ServiceThread(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                # Overlapping seeds, so the in-flight and store dedup paths
                # get real concurrent traffic.
                submitted = [
                    client.submit(campaign)["job_id"]
                    for _ in range(3) for campaign in campaigns
                ]
                expected = {}
                for job_id in submitted:
                    final = client.wait(job_id, timeout=300)
                    assert final["state"] == "done", final
                    fps = tuple(
                        c["fingerprint"]
                        for c in client.results(job_id, lite=True)["cells"]
                    )
                    key = json.dumps(final["campaign"], sort_keys=True)
                    assert expected.setdefault(key, fps) == fps
                assert len(expected) == 3

                stats = client.stats()
                # 3 distinct campaigns x 4 cells: at most 12 executions
                # for 9 campaigns (36 cells).
                assert stats["cells_executed"] <= 12
                assert stats["queue"]["queued_cells"] == 0


def spawn_service(state_dir):
    """``python -m repro serve`` with one worker, as a subprocess.

    It leads its own process group, so a test can reap the pool
    workers a killed server leaves behind.
    """
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", state_dir, "--jobs", "1", "--port", "0"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )


def live_group_members(pgid: int) -> list:
    """Pids in process group ``pgid`` that have not exited.

    An exited orphan stays a zombie until its new parent reaps it,
    and ``killpg(pgid, 0)`` still finds zombies, so read ``/proc``.
    """
    live = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(name))
    return live


def wait_for_cells_done(client, job_id, cells: int) -> None:
    deadline = time.monotonic() + 120
    while client.status(job_id)["progress"]["cells_done"] < cells:
        assert time.monotonic() < deadline, "no progress"
        time.sleep(0.01)


class TestDiscover:
    def test_dead_pid_counts_as_no_server(self, tmp_path):
        from repro.service.client import discover

        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid is not running
        with open(tmp_path / "server.json", "w") as fh:
            json.dump({"host": "127.0.0.1", "port": 1, "pid": child.pid}, fh)
        t0 = time.monotonic()
        with pytest.raises(FileNotFoundError, match=str(child.pid)):
            discover(str(tmp_path), wait_s=0.3)
        assert time.monotonic() - t0 >= 0.3  # kept polling


@pytest.mark.slow
class TestSigtermResume:

    def test_sigterm_mid_campaign_then_resume(self, tmp_path):
        from repro.service.client import discover

        state_dir = str(tmp_path / "svc")
        campaign = dict(TINY, seeds=[1, 2, 3, 4])  # 16 cells
        spec = CampaignSpec.from_dict(campaign)

        proc = spawn_service(state_dir)
        try:
            with discover(state_dir, wait_s=30) as client:
                job_id = client.submit(campaign)["job_id"]
                wait_for_cells_done(client, job_id, 2)
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        with open(os.path.join(state_dir, "jobs", f"{job_id}.json")) as fh:
            journal = json.load(fh)
        assert journal["state"] == "queued"  # resumable checkpoint

        proc = spawn_service(state_dir)
        try:
            with discover(state_dir, wait_s=30) as client:
                final = client.wait(job_id, timeout=240)
                assert final["state"] == "done"
                assert final["progress"]["cells_from_cache"] >= 2
                fps = [
                    c["fingerprint"]
                    for c in client.results(job_id, lite=True)["cells"]
                ]
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        serial = spec.to_sweep().run()
        assert fps == [fingerprint(r.stats) for r in serial.records]


@pytest.mark.slow
class TestSigkillResume:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """``kill -9`` skips the drain, so the journal still says
        ``running``.  A restart on the same state dir resumes the job
        and serves the cells that landed from the store.  A SIGKILL
        mid-write may leave an orphaned temp file; that is not
        asserted on."""
        from repro.service.client import discover

        state_dir = str(tmp_path / "svc")
        campaign = dict(TINY, seeds=[1, 2, 3, 4])  # 16 cells
        spec = CampaignSpec.from_dict(campaign)

        proc = spawn_service(state_dir)
        try:
            with discover(state_dir, wait_s=30) as client:
                job_id = client.submit(campaign)["job_id"]
                wait_for_cells_done(client, job_id, 2)
                proc.kill()
                proc.wait(timeout=60)
                # Its pool worker notices the lost parent and exits.
                deadline = time.monotonic() + 10
                while live_group_members(proc.pid):
                    assert time.monotonic() < deadline, (
                        f"orphans left: {live_group_members(proc.pid)}"
                    )
                    time.sleep(0.1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            # Fallback reaping, should the assertion above have failed.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        with open(os.path.join(state_dir, "jobs", f"{job_id}.json")) as fh:
            assert json.load(fh)["state"] == "running"
        # The killed server's server.json is still there; discover
        # skips it because its pid is dead.

        proc = spawn_service(state_dir)
        try:
            with discover(state_dir, wait_s=30) as client:
                final = client.wait(job_id, timeout=240)
                assert final["state"] == "done"
                assert final["progress"]["cells_from_cache"] >= 2
                fps = [
                    c["fingerprint"]
                    for c in client.results(job_id, lite=True)["cells"]
                ]
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        serial = spec.to_sweep().run()
        assert fps == [fingerprint(r.stats) for r in serial.records]
        root = os.path.join(state_dir, "runcache")
        entries = [
            os.path.join(d, name)
            for d, _dirs, names in os.walk(root)
            for name in names if name.endswith(".json")
        ]
        assert len(entries) == spec.size()
        for path in entries:
            with open(path, "rb") as fh:
                decode_entry(fh.read())
        # The harness's own cache reads the same files.
        cache = RunCache(root)
        assert [fingerprint(cache.get(c.key)) for c in spec.cells()] == fps
