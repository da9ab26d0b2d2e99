"""Warm service campaigns: a closed loop of one client thread.

Set-up starts an in-process ``ServiceThread`` with one worker process
and fills its store with a 48-cell grid through the service itself.
Each iteration then submits the warm 48-cell sweep (tenant ``a``) and
the same one-cell campaign from tenants ``a`` and ``b`` back to back,
after deleting that cell's store entry so it runs through the pool.
Completion is read from the ``job_done`` event on each job's followed
NDJSON stream, then results are fetched.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.service.campaigns import CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceConfig, ServiceThread
from repro.service.store import ShardedStore

import calibrate
import metrics
from tracing import Tracer, trace_store

SYSTEMS = ("CGL", "Baseline", "LosaTM-SAFU", "LockillerTM")


def warm_campaign(seed: int) -> Dict:
    return {
        "kind": "sweep",
        "workloads": ["genome", "intruder", "kmeans+", "ssca2",
                      "vacation-", "yada"],
        "systems": list(SYSTEMS),
        "threads": [4, 8],
        "seeds": [seed],
        "scale": 0.05,
    }


def cold_campaign(seed: int) -> Dict:
    """One cell outside the warm grid, re-run every iteration.

    It is the smallest cell (about 0.2 ms of simulation in-process), so
    the pool's dispatch, not the simulator, is what it adds.
    """
    return {
        "kind": "sweep",
        "workloads": ["ssca2"],
        "systems": ["LockillerTM"],
        "threads": [1],
        "seeds": [seed],
        "scale": 0.01,
    }


class ServiceRun:
    """One live service plus the closed-loop client driving it."""

    def __init__(self, seed: int, scratch: str,
                 pins: Optional[Dict[str, str]]) -> None:
        self.seed = seed
        self.pins = pins
        self.warm = warm_campaign(seed)
        self.cold = cold_campaign(seed)
        cache_dir = os.path.join(scratch, "store")
        self.thread = ServiceThread(ServiceConfig(
            state_dir=os.path.join(scratch, "state"), jobs=1,
            cache_dir=cache_dir,
        )).start()
        self.client = ServiceClient(self.thread.host, self.thread.port)
        self.cold_key = CampaignSpec.from_dict(self.cold).cells()[0].key
        self.cold_path = ShardedStore(cache_dir).path_for(self.cold_key)
        #: label -> fingerprint seen first (round-to-round check).
        self.reference: Dict[str, str] = {}
        #: Round-trip times of successful iterations, and the calibration
        #: slice measured right after each.
        self.samples_ms: List[float] = []
        self.slices: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.rejects_429 = 0
        self.errors: List[str] = []
        self.progress = {"cells_from_cache": 0, "cells_deduped": 0,
                         "cells_scheduled": 0}

    def fill(self) -> None:
        """Fill the store through the service (spawns the worker)."""
        job = self.client.submit(self.warm, tenant="setup")
        bad = self._finish(job["job_id"], None)
        if bad:
            raise RuntimeError(f"store fill failed: {bad} bad cell(s)")

    def close(self) -> None:
        self.thread.stop()

    def check(self, cells: List[Dict]) -> int:
        """Cells not done or whose fingerprint misses pin/first sight."""
        bad = 0
        for cell in cells:
            fp = cell.get("fingerprint")
            ref = self.reference.setdefault(cell["label"], fp)
            if cell.get("state") != "done" or fp != ref or (
                self.pins is not None and self.pins.get(cell["label"]) != fp
            ):
                bad += 1
        return bad

    def _finish(self, job_id: str, tracer: Optional[Tracer]) -> int:
        """Wait for ``job_done`` on the stream, fetch results, check."""
        done = False
        with _maybe_span(tracer, "service.complete"):
            for event in self.client.stream(job_id, follow=True):
                if event["event"] == "job_done":
                    done = True
                    break
        with _maybe_span(tracer, "service.results"):
            results = self.client.results(job_id)
        for name in self.progress:
            self.progress[name] += results["progress"][name]
        bad = self.check(results["cells"])
        return bad if done else max(bad, 1)

    def iteration(self, tracer: Optional[Tracer] = None,
                  op: Optional[int] = None) -> None:
        """One closed-loop campaign round trip (one operation)."""
        self.attempted += 1
        try:
            os.unlink(self.cold_path)
        except FileNotFoundError:
            pass
        try:
            with _maybe_span(tracer, "campaign", op):
                start = time.perf_counter()
                ids = []
                for campaign, tenant in ((self.warm, "a"), (self.cold, "a"),
                                         (self.cold, "b")):
                    with _maybe_span(tracer, "service.submit"):
                        ids.append(self.client.submit(
                            campaign, tenant=tenant)["job_id"])
                bad = sum(self._finish(job_id, tracer) for job_id in ids)
                elapsed = time.perf_counter() - start
        except ServiceError as exc:
            self.failed += 1
            if exc.is_backpressure:
                self.rejects_429 += 1
            self.errors.append(str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        if bad:
            self.failed += 1
            return
        self.samples_ms.append(1e3 * elapsed)
        self.slices.append(calibrate.slice_time())

    def normalized_ms(self) -> List[float]:
        """Round-trip times rescaled to the reference host speed."""
        return metrics.normalize(self.samples_ms, self.slices,
                                 calibrate.REF_S)


def _maybe_span(tracer: Optional[Tracer], name: str, op=None):
    return nullcontext() if tracer is None else tracer.span(name, op)


def time_cell(store, key: str, tracer: Tracer) -> None:
    """Record a ``service.cold_cell`` span per execution of cell ``key``.

    The span runs from the store miss on ``key`` (the scheduler starts
    the cell right after it) to the put of its result: pool dispatch,
    the simulation in the worker process and the result's way back.
    """
    get, put = store.get, store.put
    missed: List[float] = []

    def watched_get(k):
        hit = get(k)
        if hit is None and k == key:
            missed.append(time.perf_counter())
        return hit

    def watched_put(k, stats, meta=None):
        if k == key and missed:
            tracer.add("service.cold_cell", missed.pop(), time.perf_counter())
        return put(k, stats, meta)

    store.get, store.put = watched_get, watched_put


def layer_report(run: ServiceRun, iterations: int, untraced_ms: float):
    """Per-layer metrics from ``iterations`` traced round trips.

    ``untraced_ms`` is the normalized time of as many untraced ones.
    """
    tracer = Tracer()
    store = run.thread.service.store
    trace_store(store, tracer)
    time_cell(store, run.cold_key, tracer)
    hits0, misses0, stores0 = store.hits, store.misses, store.stores
    before = dict(run.progress)
    samples0 = len(run.samples_ms)
    for i in range(iterations):
        run.iteration(tracer, op=i)
    traced_ms = sum(run.normalized_ms()[samples0:])
    own = metrics.self_times(tracer.spans)
    got = {k: run.progress[k] - before[k] for k in before}
    traced = run.samples_ms[samples0:]
    cold_ms = 1e3 * tracer.total("service.cold_cell")
    return {
        "runcache.get_ms": 1e3 * tracer.total("runcache.get"),
        "runcache.put_ms": 1e3 * tracer.total("runcache.put"),
        "runcache.hits": store.hits - hits0,
        "runcache.misses": store.misses - misses0,
        "runcache.stores": store.stores - stores0,
        "service.submit_ms": 1e3 * own.get("service.submit", 0.0),
        "service.complete_ms": 1e3 * own.get("service.complete", 0.0),
        "service.results_ms": 1e3 * own.get("service.results", 0.0),
        "service.cells_from_cache": got["cells_from_cache"],
        "service.cells_deduped": got["cells_deduped"],
        "service.cells_scheduled": got["cells_scheduled"],
        "service.dedup_ratio": metrics.dedup_ratio(
            got["cells_from_cache"], got["cells_deduped"],
            got["cells_scheduled"]),
        "service.rejects_429": run.rejects_429,
        "service.cold_cell_ms": cold_ms,
        "service.cold_cell_share": metrics.ratio(
            cold_ms, 1e3 * tracer.total("campaign")),
        "service.campaign_ms_p90":
            metrics.percentile(traced, 90) if traced else 0.0,
        "trace.overhead_ms": traced_ms - untraced_ms,
    }, tracer
