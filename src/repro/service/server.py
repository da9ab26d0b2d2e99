"""The always-on sweep service: HTTP API, scheduler, drain.

:class:`ReproService` is a single-event-loop asyncio service (pure
stdlib — the HTTP/1.1 layer is a minimal parser over
``asyncio.start_server``) that turns the harness substrate into a
long-running experiment backend:

* **Submit** (``POST /v1/jobs``) admits a campaign while the queue
  stays within ``max_queued_cells`` (429 + ``Retry-After`` when it
  would not), journals it, and appends its cells to the one FIFO queue.
* **Schedule** — the scheduler takes cells in submit order.  Each cell
  is deduplicated *at schedule time*, first against in-flight
  executions (a second campaign asking for a running cell subscribes to
  the same future), then against the content-addressed store (an
  already-computed cell is delivered without scheduling).  Only true
  misses fan out to the :func:`repro.harness.parallel.execute_cell`
  process pool, bounded by the worker count.
* **Stream** (``GET /v1/jobs/<id>/events?follow=1``) tails the job's
  JSONL event feed as one chunked NDJSON response.
* **Connections** are persistent HTTP/1.1: each serves requests until
  the peer closes it, asks for ``Connection: close`` or speaks
  HTTP/1.0, sends a malformed request, or the service drains.
* **Drain** — SIGTERM (or :meth:`request_stop`) stops admission (503),
  stops scheduling, lets in-flight cells finish and land in the store,
  journals every non-terminal job, and exits.  On restart the service
  re-expands journaled campaigns and schedule-time dedup serves every
  completed cell from the store: journal + store = checkpoint.

Determinism: cells execute through the exact same pure
``execute_cell`` the serial harness uses, and results are slotted by
campaign cell index — a served campaign is bit-identical to
``Sweep.run``.  Scheduling order, admission and dedup can change *when*
a cell runs, never *what* it computes.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import ConfigError
from repro.harness.parallel import CellTask, execute_cell, resolve_jobs
from repro.harness.runcache import StoredResult
from repro.service.campaigns import CampaignSpec, CellSpec
from repro.service.jobs import Job, JobState
from repro.service.store import ShardedStore

API_VERSION = "v1"
DEFAULT_TENANT = "default"
#: How ``json.dumps`` encodes a results cell's ``"stats": None``.
_STATS_PLACEHOLDER = '"stats": null'
#: How often a pool worker checks that the service is still its parent.
_PARENT_POLL_S = 0.2


def _init_worker(parent: int) -> None:
    """Pool-worker set-up: the worker ends with the service.

    A forked worker inherits the service's asyncio signal handlers,
    which swallow SIGTERM and SIGINT, so those go back to the default
    action.  A service killed with SIGKILL cannot shut its pool down;
    a daemon thread exits the worker once its parent pid changes
    instead of leaving it orphaned.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch_parent, name="parent-watch", daemon=True
    ).start()


@dataclass
class ServiceConfig:
    """Everything needed to bring the service up."""

    state_dir: str
    host: str = "127.0.0.1"
    #: 0 = pick a free port (the bound port lands in ``server.json``).
    port: int = 0
    #: Worker processes (``repro.harness.parallel`` jobs convention).
    jobs: Optional[int] = None
    #: Most cells queued at once, over all jobs; a submit that would
    #: pass it is rejected whole (HTTP 429).  0 rejects every submit.
    max_queued_cells: int = 10_000
    #: Store root; defaults to ``<state_dir>/runcache``.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_queued_cells < 0:
            raise ConfigError("max_queued_cells must be >= 0")


class QueueFull(Exception):
    """Raised at admission when a submit would overfill the queue."""

    def __init__(self, queued: int, requested: int, limit: int) -> None:
        self.queued = queued
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"queue full: {queued} cell(s) queued + {requested} "
            f"requested > max_queued_cells={limit}"
        )


class BadRequest(Exception):
    """Malformed client input; answered 400, never 500."""


class _InFlight:
    """One executing cell and every (job, index) waiting on it."""

    __slots__ = ("cell", "subscribers")

    def __init__(self, cell: CellSpec, job_id: str, index: int) -> None:
        self.cell = cell
        self.subscribers: List[Tuple[str, int]] = [(job_id, index)]


class ReproService:
    """Sweep service over the harness substrate."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.store = ShardedStore(
            config.cache_dir
            or os.path.join(config.state_dir, "runcache")
        )
        #: ``(job_id, cell_index)`` in submit order.
        self.queue: Deque[Tuple[str, int]] = deque()
        self.rejected_submits = 0
        self.jobs: Dict[str, Job] = {}
        self.workers = resolve_jobs(config.jobs)
        self.draining = False
        self.cells_executed = 0
        #: Executed results whose store write raised (delivered anyway).
        self.store_put_failures = 0
        self.last_store_error: Optional[str] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._inflight: Dict[str, _InFlight] = {}
        self._executing = 0
        self._submit_seq = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._cell_tasks: "set[asyncio.Task]" = set()
        self.connections_accepted = 0
        self.requests_served = 0
        #: Connection handlers, and the writers of those waiting for
        #: their next request.
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._idle: "set[asyncio.StreamWriter]" = set()
        #: Set by the drain: streams end and connections close.
        self._closing = False
        #: Jobs that emitted since the last :meth:`_publish`.
        self._emitted: Dict[str, Job] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def server_file(self) -> str:
        return os.path.join(self.config.state_dir, "server.json")

    async def start(self) -> None:
        """Bind, resume journaled jobs, and start the scheduler."""
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._write_server_file()
        self._resume_journaled_jobs()
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        self._wake.set()

    def _write_server_file(self) -> None:
        payload = {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "api": API_VERSION,
            "state_dir": os.path.abspath(self.config.state_dir),
        }
        tmp = f"{self.server_file}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, self.server_file)

    def _resume_journaled_jobs(self) -> None:
        """Re-enqueue every non-terminal journaled job (drain resume)."""
        jobs_dir = os.path.join(self.config.state_dir, "jobs")
        if not os.path.isdir(jobs_dir):
            return
        loaded: List[Job] = []
        for name in sorted(os.listdir(jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(jobs_dir, name)
            try:
                job = Job.load_journal(path, self.config.state_dir)
            except (OSError, ValueError, KeyError, ConfigError):
                continue  # unreadable journal: skip, never crash startup
            loaded.append(job)
        loaded.sort(key=lambda j: j.submit_seq)
        for job in loaded:
            self._submit_seq = max(self._submit_seq, job.submit_seq)
            self.jobs[job.job_id] = job
            if job.state.terminal:
                continue
            # Continue the event seq from the on-disk feed so resumed
            # jobs keep appending monotonically.
            try:
                with open(job.events_path, encoding="utf-8") as fh:
                    job._event_seq = sum(1 for _ in fh)
            except OSError:
                pass
            job.state = JobState.QUEUED
            job.save_journal()
            # Resumed cells were admitted before the restart: they
            # count against the bound but are not gated again.
            self.queue.extend((job.job_id, cell.index) for cell in job.cells)
            job.emit("resumed", cells_total=job.cells_total)
            job.close_events()

    async def serve_until_stopped(self) -> None:
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Begin graceful drain; ``serve_until_stopped`` returns after."""
        if self.draining:
            return
        self.draining = True
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        # Stop admission (503 from here on) and scheduling, let every
        # in-flight cell finish and land in the store, journal the rest.
        self._wake.set()
        if self._cell_tasks:
            await asyncio.gather(*self._cell_tasks,
                                 return_exceptions=True)
        for job in self.jobs.values():
            if not job.state.terminal:
                job.state = JobState.QUEUED
                job.save_journal()
                self._emit(job, "drained", resumable=True)
        # Follow streams end after the lines published here, with their
        # terminating chunk, and no connection waits for a new request.
        self._closing = True
        self._publish()
        for job in self.jobs.values():
            job.close_events()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        if self._server is not None:
            self._server.close()
            # On Python >= 3.12.1 wait_closed() waits for every
            # connection, so idle keep-alive ones are hung up first.
            for writer in list(self._idle):
                _hang_up(writer)
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        try:
            # A stale advertisement would point clients at a dead port.
            os.unlink(self.server_file)
        except OSError:
            pass
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, ValueError):
                return

    # -- submission ----------------------------------------------------

    def submit(self, tenant: str, campaign: CampaignSpec) -> Job:
        """Admit one campaign; raises QueueFull / RuntimeError.

        ``tenant`` is a free-text label kept on the job; it selects
        nothing.
        """
        if self.draining:
            raise RuntimeError("service is draining")
        requested = campaign.size()
        if len(self.queue) + requested > self.config.max_queued_cells:
            self.rejected_submits += 1
            raise QueueFull(len(self.queue), requested,
                            self.config.max_queued_cells)
        self._submit_seq += 1
        job_id = f"j{self._submit_seq:05d}-{uuid.uuid4().hex[:6]}"
        job = Job(job_id, tenant, campaign, self.config.state_dir,
                  submit_seq=self._submit_seq)
        self.jobs[job_id] = job
        job.save_journal()
        job.emit("submitted", tenant=tenant,
                 cells_total=job.cells_total,
                 campaign_digest=campaign.digest())
        # A queued job holds no feed handle until the scheduler reaches
        # it, so open handles grow with the cells in progress, not with
        # the queue.
        job.close_events()
        self.queue.extend((job_id, cell.index) for cell in job.cells)
        self._wake.set()
        return job

    def cancel(self, job_id: str) -> Job:
        job = self.jobs[job_id]
        if job.state.terminal:
            return job
        queued = len(self.queue)
        self.queue = deque(e for e in self.queue if e[0] != job_id)
        dropped = queued - len(self.queue)
        # Detach from in-flight executions; the executions themselves
        # finish and land in the store (deterministic and reusable).
        for inflight in self._inflight.values():
            inflight.subscribers = [
                s for s in inflight.subscribers if s[0] != job_id
            ]
        job.state = JobState.CANCELLED
        job.save_journal()
        self._emit(job, "cancelled", cells_dropped=dropped)
        self._publish()
        return job

    # -- event feed ----------------------------------------------------

    def _emit(self, job: Job, event_type: str, **fields) -> None:
        job.emit(event_type, **fields)
        self._emitted[job.job_id] = job

    def _publish(self) -> None:
        """Write every job's new feed lines, then wake its watchers.

        Runs before anything that lets a stream handler run, so every
        line a handler can send is already in the feed file.
        """
        if not self._emitted:
            return
        jobs = list(self._emitted.values())
        self._emitted.clear()
        for job in jobs:
            job.flush_events()
        for job in jobs:
            job.notify_watchers()

    # -- scheduler -----------------------------------------------------

    async def _scheduler(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            self._publish()
            await self._wake.wait()
            self._wake.clear()
            while (
                self.queue
                and not self.draining
                and self._executing < self.workers
            ):
                job_id, index = self.queue.popleft()
                job = self.jobs[job_id]
                if job.state.terminal:
                    continue  # cancelled while queued
                cell = job.cells[index]
                inflight = self._inflight.get(cell.key)
                if inflight is not None:
                    inflight.subscribers.append((job_id, index))
                    job.cells_deduped += 1
                    self._emit(job, "cell_deduped", index=index,
                               key=cell.key, label=cell.label())
                    continue
                hit = self.store.get(cell.key)
                if hit is not None:
                    self._deliver(job, index, hit, "cache")
                    continue
                self._start_cell(loop, job, cell)

    def _start_cell(self, loop, job: Job, cell: CellSpec) -> None:
        inflight = _InFlight(cell, job.job_id, cell.index)
        self._inflight[cell.key] = inflight
        self._executing += 1
        job.cells_scheduled += 1
        if job.state is JobState.QUEUED:
            job.state = JobState.RUNNING
            job.save_journal()
        self._emit(job, "cell_scheduled", index=cell.index, key=cell.key,
                   label=cell.label())
        task = CellTask(
            cell.index, cell.workload, cell.spec, cell.threads,
            cell.scale, cell.seed, cell.params,
        )
        pool, fut = self._submit_task(loop, task)
        runner = asyncio.ensure_future(self._run_cell(inflight, pool, fut))
        self._cell_tasks.add(runner)
        runner.add_done_callback(self._cell_tasks.discard)

    def _submit_task(self, loop, task: CellTask):
        """Hand ``task`` to the pool; return the pool and the future.

        A worker that died while idle leaves the pool broken, and the
        submit then raises at once.  Nothing was lost yet, so the
        broken pool is replaced and the task goes to the fresh one.
        """
        if self._pool is not None:
            try:
                return self._pool, loop.run_in_executor(
                    self._pool, execute_cell, task)
            except BrokenProcessPool:
                self._drop_pool(self._pool)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )
        return self._pool, loop.run_in_executor(
            self._pool, execute_cell, task)

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool; the next cold cell starts a fresh one."""
        pool.shutdown(wait=False, cancel_futures=True)
        if self._pool is pool:
            self._pool = None

    async def _run_cell(self, inflight: _InFlight,
                        pool: ProcessPoolExecutor, fut) -> None:
        cell = inflight.cell
        error: Optional[str] = None
        stats = None
        try:
            _, stats = await fut
        except Exception as exc:  # noqa: BLE001 - fail the cell, not us
            error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, BrokenProcessPool):
                # A worker died mid-run: this execution is lost, and so
                # is every other one on the pool.
                self._drop_pool(pool)
        self._executing -= 1
        self._inflight.pop(cell.key, None)
        record = None
        if stats is not None:
            self.cells_executed += 1
            self._persist(cell, stats)
            record = StoredResult.of(stats)
        for i, (job_id, index) in enumerate(inflight.subscribers):
            job = self.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            if record is not None:
                source = "executed" if i == 0 else "deduped"
                self._deliver(job, index, record, source)
            else:
                self._fail_cell(job, index, error)
        self._publish()
        self._wake.set()

    def _persist(self, cell: CellSpec, stats) -> None:
        """Store an executed result.  A failed write costs only reuse:
        the result is still valid, so it is counted, not raised."""
        try:
            self.store.put(cell.key, stats, meta={
                "workload": cell.workload,
                "system": cell.system,
                "threads": cell.threads,
                "scale": cell.scale,
                "seed": cell.seed,
            })
        except Exception as exc:  # noqa: BLE001 - deliver regardless
            self.store_put_failures += 1
            self.last_store_error = f"{type(exc).__name__}: {exc}"

    def _deliver(self, job: Job, index: int, record: StoredResult,
                 source: str) -> None:
        job.results[index] = record
        job.cells_done += 1
        if source == "cache":
            job.cells_from_cache += 1
        self._emit(job, "cell_done", index=index, source=source,
                   label=job.cells[index].label(),
                   fingerprint=record.fingerprint,
                   done=job.cells_done, total=job.cells_total)
        self._maybe_finish(job)

    def _fail_cell(self, job: Job, index: int,
                   error: Optional[str]) -> None:
        job.cells_failed += 1
        job.failures[index] = error or "unknown error"
        self._emit(job, "cell_failed", index=index,
                   label=job.cells[index].label(), error=error)
        self._maybe_finish(job)

    def _maybe_finish(self, job: Job) -> None:
        if not job.complete or job.state.terminal:
            return
        if job.cells_failed:
            job.state = JobState.FAILED
            job.error = (
                f"{job.cells_failed} cell(s) failed; "
                f"first: {next(iter(job.failures.values()))}"
            )
        else:
            job.state = JobState.DONE
        job.save_journal()
        self._emit(job, "job_" + job.state.value, progress=job.progress())

    # -- payloads ------------------------------------------------------

    def stats_dict(self) -> Dict:
        return {
            "draining": self.draining,
            "workers": self.workers,
            "cells_executed": self.cells_executed,
            "cells_inflight": self._executing,
            "connections_accepted": self.connections_accepted,
            "requests_served": self.requests_served,
            "store": {
                "root": self.store.root,
                "hits": self.store.hits,
                "misses": self.store.misses,
                "stores": self.store.stores,
                "put_failures": self.store_put_failures,
                "last_put_error": self.last_store_error,
            },
            "jobs": {
                state.value: sum(
                    1 for j in self.jobs.values() if j.state is state
                )
                for state in JobState
            },
            "queue": {
                "queued_cells": len(self.queue),
                "max_queued_cells": self.config.max_queued_cells,
                "rejected_submits": self.rejected_submits,
            },
        }

    def results_body(self, job: Job, lite: bool = False) -> bytes:
        """The results route's JSON body.

        The bytes equal ``json.dumps(doc, sort_keys=True)`` of the
        results document, but each done cell's stats are spliced in as
        its record's ``stats_json`` instead of being encoded again.
        """
        cells = []
        spliced: List[str] = []
        for cell in job.cells:
            record = job.results[cell.index]
            entry: Dict = {
                "index": cell.index,
                "label": cell.label(),
                "key": cell.key,
            }
            if record is not None:
                entry["state"] = "done"
                entry["fingerprint"] = record.fingerprint
                if not lite:
                    entry["stats"] = None
                    spliced.append(record.stats_json)
            elif cell.index in job.failures:
                entry["state"] = "failed"
                entry["error"] = job.failures[cell.index]
            else:
                entry["state"] = "pending"
            cells.append(entry)
        out = job.status_dict()
        out["cells"] = cells
        if job.campaign.kind == "multiseed" and job.state is JobState.DONE:
            from repro.harness.multiseed import summarize_values

            values = [
                float(r.execution_cycles)
                for r in job.results if r is not None
            ]
            summary = summarize_values(values)
            out["summary"] = {
                "metric": "execution_cycles",
                "mean": summary.mean,
                "stdev": summary.stdev,
                "min": summary.minimum,
                "max": summary.maximum,
                "n": summary.n,
                "ci95_half_width": summary.ci95_half_width,
            }
        # Only cell entries have a "stats" key, and a string value
        # cannot hold an unescaped quote, so the placeholder's encoding
        # occurs once per spliced cell, in cell order.
        parts = json.dumps(out, sort_keys=True).split(_STATS_PLACEHOLDER)
        pieces = [parts[0]]
        for stats_json, rest in zip(spliced, parts[1:]):
            pieces += ('"stats": ', stats_json, rest)
        return "".join(pieces).encode("utf-8")

    # -- HTTP layer ----------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                *request, keep_alive = request
                await self._route(*request, writer)
                self.requests_served += 1
                if not keep_alive or self.draining:
                    return
        except ConnectionError:
            pass
        except Exception as exc:  # noqa: BLE001 - one bad conn, not us
            if writer.is_closing():  # hung up by the drain mid-request
                return
            if isinstance(exc, BadRequest):
                status, error = 400, str(exc)
            else:
                status, error = 500, f"{type(exc).__name__}: {exc}"
            try:
                _write_response(writer, status, {"error": error},
                                {"Connection": "close"})
            except ConnectionError:
                pass
        finally:
            self._conn_tasks.discard(task)
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            raise BadRequest(f"malformed request line {line!r}") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _nonnegative_int(
            headers.get("content-length") or "0", "Content-Length")
        body = await reader.readexactly(length) if length else b""
        keep_alive = (version.upper() == "HTTP/1.1"
                      and "close" not in headers.get("connection", "").lower())
        return method.upper(), target, body, keep_alive

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if not parts or parts[0] != API_VERSION:
            return _write_response(writer, 404, {
                "error": f"unknown path {url.path!r} (expected /v1/...)"
            })
        route = parts[1:]
        if method == "GET" and route == ["healthz"]:
            return _write_response(writer, 200, {
                "ok": True, "draining": self.draining,
            })
        if method == "GET" and route == ["stats"]:
            return _write_response(writer, 200, self.stats_dict())
        if method == "POST" and route == ["jobs"]:
            return self._http_submit(body, writer)
        if method == "GET" and route == ["jobs"]:
            return _write_response(writer, 200, {
                "jobs": [
                    job.status_dict()
                    for job in sorted(self.jobs.values(),
                                      key=lambda j: j.submit_seq)
                ]
            })
        if len(route) >= 2 and route[0] == "jobs":
            job = self.jobs.get(route[1])
            if job is None:
                return _write_response(writer, 404, {
                    "error": f"unknown job {route[1]!r}"
                })
            tail = route[2:]
            if method == "GET" and tail == []:
                return _write_response(writer, 200, job.status_dict())
            if method == "GET" and tail == ["results"]:
                lite = query.get("lite", ["0"])[0] not in ("0", "")
                return _write_body(
                    writer, 200, self.results_body(job, lite=lite)
                )
            if method == "GET" and tail == ["events"]:
                return await self._http_events(job, query, writer)
            if method == "POST" and tail == ["cancel"]:
                return _write_response(
                    writer, 200, self.cancel(job.job_id).status_dict()
                )
        return _write_response(writer, 404, {
            "error": f"no route for {method} {url.path}"
        })

    def _http_submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        if self.draining:
            return _write_response(writer, 503, {
                "error": "service is draining; resubmit after restart"
            })
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _write_response(writer, 400, {
                "error": f"request body is not JSON: {exc}"
            })
        if not isinstance(payload, dict):
            return _write_response(writer, 400, {
                "error": "request body must be a JSON object, got "
                         f"{type(payload).__name__}"
            })
        tenant = payload.get("tenant") or DEFAULT_TENANT
        try:
            campaign = CampaignSpec.from_dict(
                payload.get("campaign", payload.get("sweep"))
            )
        except ConfigError as exc:
            return _write_response(writer, 400, {"error": str(exc)})
        try:
            job = self.submit(str(tenant), campaign)
        except QueueFull as exc:
            return _write_response(writer, 429, {
                "error": str(exc),
                "queued_cells": exc.queued,
                "requested_cells": exc.requested,
                "max_queued_cells": exc.limit,
            }, extra_headers={"Retry-After": "1"})
        return _write_response(writer, 202, job.status_dict())

    async def _http_events(self, job: Job, query: Dict,
                           writer: asyncio.StreamWriter) -> None:
        follow = query.get("follow", ["0"])[0] not in ("0", "")
        cursor = _nonnegative_int(query.get("cursor", ["0"])[0] or "0",
                                  "cursor")
        out = (b"HTTP/1.1 200 OK\r\n"
               b"Content-Type: application/x-ndjson\r\n"
               b"Cache-Control: no-store\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n")
        while True:
            if cursor < len(job.event_lines):
                lines = b"".join(job.event_lines[cursor:])
                cursor = len(job.event_lines)
                out += b"%x\r\n%s\r\n" % (len(lines), lines)
            if not follow or job.state.terminal or self._closing:
                # The last lines and the zero-length chunk go out in
                # one write: a reader that stops at the terminal event
                # has already read the end of the body.
                writer.write(out + b"0\r\n\r\n")
                await writer.drain()
                return
            writer.write(out)
            out = b""
            await writer.drain()
            await job.wait_events(cursor)


def _nonnegative_int(text: str, name: str) -> int:
    """``int(text)``, or BadRequest when it is not a count."""
    try:
        value = int(text)
    except ValueError:
        raise BadRequest(f"invalid {name} {text!r}") from None
    if value < 0:
        raise BadRequest(f"invalid {name} {text!r}: must be >= 0")
    return value


def _write_response(writer: asyncio.StreamWriter, status: int,
                    payload: Dict,
                    extra_headers: Optional[Dict[str, str]] = None
                    ) -> None:
    _write_body(writer, status,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                extra_headers)


def _write_body(writer: asyncio.StreamWriter, status: int, body: bytes,
                extra_headers: Optional[Dict[str, str]] = None) -> None:
    reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
               404: "Not Found", 429: "Too Many Requests",
               500: "Internal Server Error", 503: "Service Unavailable"}
    head = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(
        ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    )


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Half-close, then close.

    Half-close first: a pool worker forked while the connection was
    open holds a copy of its socket, so close alone would not send the
    peer its end of stream.
    """
    try:
        writer.write_eof()
    except OSError:
        pass
    writer.close()


def run_service(config: ServiceConfig) -> int:
    """Blocking entry point (``python -m repro serve``)."""

    async def _main() -> None:
        service = ReproService(config)
        await service.start()
        service.install_signal_handlers()
        print(
            f"repro service listening on "
            f"http://{service.host}:{service.port} "
            f"(state: {config.state_dir}, workers: {service.workers})",
            flush=True,
        )
        await service.serve_until_stopped()
        print("repro service drained; all jobs journaled", flush=True)

    asyncio.run(_main())
    return 0


class ServiceThread:
    """Host a service on a background thread (tests, examples).

    Usage::

        with ServiceThread(ServiceConfig(state_dir=...)) as handle:
            client = ServiceClient(handle.host, handle.port)
            ...

    The context exit requests a graceful drain and joins the thread.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[ReproService] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        async def _main() -> None:
            try:
                self.service = ReproService(self.config)
                await self.service.start()
                self.host = self.service.host
                self.port = self.service.port
                self._loop = asyncio.get_event_loop()
            except BaseException as exc:  # surface on the caller's side
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.service.serve_until_stopped()

        asyncio.run(_main())

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError(
                "service failed to start"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
