"""Quota/backpressure edges and the service concurrency pins.

Covers the ISSUE 9 satellite list: zero-quota tenant, queue-full
rejection, cancel mid-run, resubmit-after-cancel dedup — plus the
acceptance pins: >= 8 simultaneous campaigns from >= 3 tenants complete
under quota limits with correct 429 responses, and SIGTERM mid-campaign
leaves a journal the service resumes on restart.
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

from repro.harness.export import fingerprint
from repro.service import (
    CampaignSpec,
    QuotaExceeded,
    ServiceClient,
    ServiceError,
    TenantQuota,
)
from repro.service.quotas import FairQueue, parse_quota
from repro.service.server import (
    ReproService,
    ServiceConfig,
    ServiceThread,
)
from repro.common.errors import ConfigError

TINY = {
    "kind": "sweep",
    "workloads": ["kmeans+", "ssca2"],
    "systems": ["CGL", "LockillerTM"],
    "threads": [2],
    "seeds": [1],
    "scale": 0.05,
}


class TestQuotaModel:
    def test_quota_validation(self):
        with pytest.raises(ConfigError):
            TenantQuota(max_queued_cells=-1)
        with pytest.raises(ConfigError):
            TenantQuota(max_concurrent_cells=0)
        assert TenantQuota(max_queued_cells=0).max_queued_cells == 0

    def test_parse_quota(self):
        quota = parse_quota("100:4")
        assert quota.max_queued_cells == 100
        assert quota.max_concurrent_cells == 4
        assert parse_quota("50").max_concurrent_cells == 8
        with pytest.raises(ConfigError):
            parse_quota("many:few")

    def test_zero_quota_tenant_always_rejected(self):
        queue = FairQueue(TenantQuota(max_queued_cells=0))
        with pytest.raises(QuotaExceeded):
            queue.admit("anyone", 1)
        assert queue.tenant("anyone").rejected_submits == 1

    def test_queue_full_rejection_and_release(self):
        queue = FairQueue(TenantQuota(max_queued_cells=10))
        queue.admit("t", 8)
        with pytest.raises(QuotaExceeded) as err:
            queue.admit("t", 4)
        assert err.value.queued == 8
        assert err.value.requested == 4
        queue.admit("t", 2)  # exactly at the limit is allowed
        queue.release_queued("t", 10)
        queue.admit("t", 10)

    def test_round_robin_is_fair(self):
        queue = FairQueue(TenantQuota())
        for tenant, job in (("a", "j1"), ("b", "j2"), ("c", "j3")):
            for i in range(3):
                queue.push(tenant, job, i)
        order = [queue.take()[0] for _ in range(9)]
        assert order == ["a", "b", "c"] * 3

    def test_concurrency_limit_skips_not_blocks(self):
        queue = FairQueue(
            TenantQuota(max_concurrent_cells=1),
            {"big": TenantQuota(max_concurrent_cells=8)},
        )
        for i in range(2):
            queue.push("small", "js", i)
            queue.push("big", "jb", i)
        first = queue.take()
        assert first[0] == "small"
        queue.mark_running("small")  # small is now at its limit
        takes = [queue.take() for _ in range(2)]
        assert [t[0] for t in takes] == ["big", "big"]
        assert queue.take() is None  # small blocked, big drained
        queue.mark_finished("small")
        assert queue.take()[0] == "small"

    def test_drop_job_removes_only_that_job(self):
        queue = FairQueue(TenantQuota())
        for i in range(3):
            queue.push("t", "keep", i)
            queue.push("t", "drop", i)
        assert queue.drop_job("t", "drop") == 3
        remaining = [queue.take()[1] for _ in range(3)]
        assert remaining == ["keep"] * 3
        assert queue.take() is None


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
    def test_queue_full_rejection_is_deterministic(self, tmp_path):
        campaign8 = CampaignSpec.from_dict(dict(TINY, seeds=[1, 2]))
        campaign4 = CampaignSpec.from_dict(TINY)

        async def scenario(service):
            service.submit("t", campaign8)  # 8 cells queued
            with pytest.raises(QuotaExceeded):
                service.submit("t", campaign4)  # 8 + 4 > 10
            assert service.queue.tenant("t").rejected_submits == 1

        run_scenario(
            tmp_path, scenario, jobs=1,
            quotas={"t": TenantQuota(max_queued_cells=10)},
        )

    def test_cancel_while_queued_returns_budget(self, tmp_path):
        campaign = CampaignSpec.from_dict(dict(TINY, seeds=[1, 2]))

        async def scenario(service):
            job = service.submit("t", campaign)  # 8 of 8 queued
            with pytest.raises(QuotaExceeded):
                service.submit("t", campaign)
            service.cancel(job.job_id)  # every queued cell dropped
            assert service.queue.tenant("t").queued == 0
            service.submit("t", campaign)  # budget is back

        run_scenario(
            tmp_path, scenario, jobs=1,
            quotas={"t": TenantQuota(max_queued_cells=8)},
        )

    def test_zero_quota_tenant_gets_429_over_http(self, tmp_path):
        config = ServiceConfig(
            state_dir=str(tmp_path / "svc"), jobs=1,
            quotas={"walled-off": TenantQuota(max_queued_cells=0)},
        )
        with ServiceThread(config) as handle:
            client = ServiceClient(handle.host, handle.port)
            with pytest.raises(ServiceError) as err:
                client.submit(TINY, tenant="walled-off")
            assert err.value.status == 429
            assert err.value.is_backpressure
            assert err.value.payload["max_queued_cells"] == 0
            assert err.value.payload["tenant"] == "walled-off"
            # Other tenants are untouched by the walled-off tenant.
            job = client.submit(TINY, tenant="open")
            assert client.wait(job["job_id"], 120)["state"] == "done"


class TestCancel:
    def test_cancel_mid_run_and_resubmit_dedups(self, tmp_path):
        campaign = dict(TINY, seeds=[1, 2, 3])  # 12 cells
        total = CampaignSpec.from_dict(campaign).size()
        config = ServiceConfig(state_dir=str(tmp_path / "svc"), jobs=1)
        with ServiceThread(config) as handle:
            client = ServiceClient(handle.host, handle.port)
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
            client = ServiceClient(handle.host, handle.port)
            job_id = client.submit(TINY)["job_id"]
            client.cancel(job_id)
            results = client.results(job_id, lite=True)
            assert results["state"] == "cancelled"
            # Journal records the terminal state (no resume on restart).
            journal = json.load(open(os.path.join(
                str(tmp_path / "svc"), "jobs", f"{job_id}.json"
            )))
            assert journal["state"] == "cancelled"


class TestConcurrentCampaigns:
    def test_eight_campaigns_three_tenants_under_quota(self, tmp_path):
        """The ISSUE 9 concurrency pin."""
        tenants = {
            "alpha": TenantQuota(max_queued_cells=100,
                                 max_concurrent_cells=2),
            "beta": TenantQuota(max_queued_cells=100,
                                max_concurrent_cells=1),
            "gamma": TenantQuota(max_queued_cells=100,
                                 max_concurrent_cells=2),
            "zero": TenantQuota(max_queued_cells=0),
        }
        config = ServiceConfig(
            state_dir=str(tmp_path / "svc"), jobs=4, quotas=tenants
        )
        campaigns = [
            dict(TINY, seeds=[seed]) for seed in (1, 2, 3)
        ]
        with ServiceThread(config) as handle:
            client = ServiceClient(handle.host, handle.port)
            submitted = []
            # 9 campaigns across 3 tenants, overlapping seeds so the
            # in-flight/cache dedup paths get real concurrent traffic.
            for tenant in ("alpha", "beta", "gamma"):
                for campaign in campaigns:
                    job = client.submit(campaign, tenant=tenant)
                    submitted.append((tenant, job["job_id"]))
            assert len(submitted) == 9
            # Backpressure is per-tenant: the zero tenant is rejected
            # while the others' campaigns are in flight.
            with pytest.raises(ServiceError) as err:
                client.submit(campaigns[0], tenant="zero")
            assert err.value.status == 429

            expected = {}
            for tenant, job_id in submitted:
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done", (tenant, final)
                fps = tuple(
                    c["fingerprint"]
                    for c in client.results(job_id, lite=True)["cells"]
                )
                key = json.dumps(
                    client.status(job_id)["campaign"], sort_keys=True
                )
                # Same campaign => same fingerprints, every tenant.
                assert expected.setdefault(key, fps) == fps

            stats = client.stats()
            for name in ("alpha", "beta", "gamma"):
                acct = stats["tenants"][name]
                assert acct["peak_running_cells"] <= tenants[
                    name
                ].max_concurrent_cells, name
            # 3 distinct campaigns x 4 cells: dedup means at most 12
            # executions despite 9 submitted campaigns (36 cells).
            assert stats["cells_executed"] <= 12


@pytest.mark.slow
class TestSigtermResume:
    def _env(self):
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _spawn(self, state_dir):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", state_dir, "--jobs", "1", "--port", "0"],
            env=self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def test_sigterm_mid_campaign_then_resume(self, tmp_path):
        from repro.service.client import discover

        state_dir = str(tmp_path / "svc")
        campaign = dict(TINY, seeds=[1, 2, 3, 4])  # 16 cells
        spec = CampaignSpec.from_dict(campaign)

        proc = self._spawn(state_dir)
        try:
            client = discover(state_dir, wait_s=30)
            job_id = client.submit(campaign)["job_id"]
            deadline = time.monotonic() + 120
            while (
                client.status(job_id)["progress"]["cells_done"] < 2
            ):
                assert time.monotonic() < deadline, "no progress"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        journal = json.load(open(
            os.path.join(state_dir, "jobs", f"{job_id}.json")
        ))
        assert journal["state"] == "queued"  # resumable checkpoint

        proc = self._spawn(state_dir)
        try:
            client = discover(state_dir, wait_s=30)
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
