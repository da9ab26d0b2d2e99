"""Job records, the per-job JSONL event feed, and the resume journal.

A *job* is one submitted campaign.  Its lifecycle::

    queued -> running -> done
                     \\-> failed      (some cell raised)
           \\-> cancelled             (client cancel, any time)

The service journals every job as ``<state_dir>/jobs/<job_id>.json``
(atomic temp-file + ``os.replace``, exactly the checkpoint discipline of
:mod:`repro.resilience.harness`): the journal stores the campaign
definition and coarse state, *not* results — results live in the
content-addressed store, so resuming a job is just re-expanding its
campaign and letting schedule-time dedup serve every already-computed
cell from the cache.  That is what makes SIGTERM drain cheap: the
journal plus the store *is* the checkpoint.

Progress streams as a JSONL event feed: every event is encoded once
and kept as that line in memory, where HTTP stream watchers tail it.
:meth:`Job.flush_events` appends the lines emitted since the last flush
to ``<state_dir>/events/<job_id>.jsonl`` with one write, through one
handle per live job (closed at a terminal state or on service stop).
Whoever emits flushes before anything lets a stream handler run, so a
watcher never sends a line the file does not hold yet; then
:meth:`Job.notify_watchers` wakes the watchers.
"""

from __future__ import annotations

import asyncio
import json
import os
from enum import Enum
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.harness.runcache import StoredResult
from repro.service.campaigns import CampaignSpec, CellSpec

JOURNAL_SCHEMA = "repro-service-job/1"


def _open_for_write(path: str, mode: str) -> BinaryIO:
    """``open(path, mode)`` in a binary write mode, making the directory
    only when it is missing."""
    try:
        return open(path, mode)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, mode)


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


class Job:
    """One campaign's live state inside the service."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        campaign: CampaignSpec,
        state_dir: str,
        submit_seq: int = 0,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.campaign = campaign
        self.state_dir = state_dir
        self.submit_seq = submit_seq
        self.state = JobState.QUEUED
        self.error: Optional[str] = None
        self.cells: Tuple[CellSpec, ...] = campaign.cells()
        #: Per-cell record, set when the cell is delivered.
        self.results: List[Optional[StoredResult]] = (
            [None] * len(self.cells)
        )
        #: Per-cell failure messages (index -> error string).
        self.failures: Dict[int, str] = {}
        # Counters (the status payload's vocabulary).
        self.cells_total = len(self.cells)
        self.cells_from_cache = 0
        self.cells_deduped = 0
        self.cells_scheduled = 0
        self.cells_done = 0
        self.cells_failed = 0
        # Event feed: each event's JSONL line, encoded once.
        self.event_lines: List[bytes] = []
        #: How many of ``event_lines`` the feed file holds.
        self._flushed = 0
        self._event_seq = 0
        self._events_fh: Optional[BinaryIO] = None
        self._waiters: List[asyncio.Future] = []

    # -- paths ---------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.state_dir, "jobs", f"{self.job_id}.json")

    @property
    def events_path(self) -> str:
        return os.path.join(
            self.state_dir, "events", f"{self.job_id}.jsonl"
        )

    # -- journal -------------------------------------------------------

    def journal_dict(self) -> Dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "campaign": self.campaign.to_dict(),
            "state": self.state.value,
            "submit_seq": self.submit_seq,
            "error": self.error,
        }

    def save_journal(self) -> None:
        path = self.journal_path
        tmp = f"{path}.tmp.{os.getpid()}"
        with _open_for_write(tmp, "wb") as fh:
            fh.write(json.dumps(self.journal_dict(),
                                sort_keys=True).encode("utf-8"))
        os.replace(tmp, path)

    @classmethod
    def load_journal(cls, path: str, state_dir: str) -> "Job":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("schema") != JOURNAL_SCHEMA:
            raise ValueError(
                f"unsupported job journal schema {data.get('schema')!r}"
            )
        job = cls(
            job_id=data["job_id"],
            tenant=data["tenant"],
            campaign=CampaignSpec.from_dict(data["campaign"]),
            state_dir=state_dir,
            submit_seq=int(data.get("submit_seq", 0)),
        )
        job.state = JobState(data["state"])
        job.error = data.get("error")
        return job

    # -- events --------------------------------------------------------

    def emit(self, event_type: str, **fields) -> None:
        """Append one event to the feed in memory.

        The file gets it at the next :meth:`flush_events`, which an
        event at a terminal state runs at once, closing the handle.
        """
        self._event_seq += 1
        event = {"seq": self._event_seq, "event": event_type,
                 "job_id": self.job_id, **fields}
        self.event_lines.append(
            (json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
        if self.state.terminal:
            self.close_events()

    def flush_events(self) -> None:
        """Append every line not yet in the feed file, in one write."""
        if self._flushed == len(self.event_lines):
            return
        fh = self._events_fh
        if fh is None:
            fh = self._events_fh = _open_for_write(self.events_path, "ab")
        fh.write(b"".join(self.event_lines[self._flushed:]))
        fh.flush()
        self._flushed = len(self.event_lines)

    def close_events(self) -> None:
        """Flush the feed and close its handle; a later flush reopens it."""
        self.flush_events()
        if self._events_fh is not None:
            self._events_fh.close()
            self._events_fh = None

    def notify_watchers(self) -> None:
        """Wake every stream handler blocked in :meth:`wait_events`."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def wait_events(self, cursor: int) -> int:
        """Block until the feed has grown past ``cursor`` (or job ends)."""
        while len(self.event_lines) <= cursor and not self.state.terminal:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter
        return len(self.event_lines)

    # -- status --------------------------------------------------------

    def progress(self) -> Dict[str, int]:
        return {
            "cells_total": self.cells_total,
            "cells_from_cache": self.cells_from_cache,
            "cells_deduped": self.cells_deduped,
            "cells_scheduled": self.cells_scheduled,
            "cells_done": self.cells_done,
            "cells_failed": self.cells_failed,
        }

    def status_dict(self) -> Dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state.value,
            "kind": self.campaign.kind,
            "campaign": self.campaign.to_dict(),
            "error": self.error,
            "progress": self.progress(),
        }

    @property
    def complete(self) -> bool:
        return self.cells_done + self.cells_failed >= self.cells_total
