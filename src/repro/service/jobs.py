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

Progress streams as a JSONL event feed: every event is encoded once,
appended to ``<state_dir>/events/<job_id>.jsonl`` through one handle
per live job (flushed per event, closed at a terminal state or on
service stop) and kept as that encoded line in memory, where HTTP
stream watchers tail it via an :class:`asyncio.Condition`.
"""

from __future__ import annotations

import asyncio
import json
import os
from enum import Enum
from typing import BinaryIO, Dict, List, Optional

from repro.harness.runcache import StoredResult
from repro.service.campaigns import CampaignSpec, CellSpec

JOURNAL_SCHEMA = "repro-service-job/1"


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
        self.cells: List[CellSpec] = campaign.cells()
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
        self._event_seq = 0
        self._events_fh: Optional[BinaryIO] = None
        self._watchers = asyncio.Condition()

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
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.journal_dict(), fh, sort_keys=True)
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
        """Append one event to the feed (memory + JSONL file)."""
        self._event_seq += 1
        event = {"seq": self._event_seq, "event": event_type,
                 "job_id": self.job_id, **fields}
        line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        self.event_lines.append(line)
        fh = self._events_fh
        if fh is None:
            os.makedirs(os.path.dirname(self.events_path), exist_ok=True)
            fh = self._events_fh = open(self.events_path, "ab")
        fh.write(line)
        fh.flush()
        if self.state.terminal:
            self.close_events()

    def close_events(self) -> None:
        """Close the feed's file handle; a later event reopens it."""
        if self._events_fh is not None:
            self._events_fh.close()
            self._events_fh = None

    async def notify_watchers(self) -> None:
        async with self._watchers:
            self._watchers.notify_all()

    async def wait_events(self, cursor: int) -> int:
        """Block until the feed has grown past ``cursor`` (or job ends)."""
        async with self._watchers:
            await self._watchers.wait_for(
                lambda: len(self.event_lines) > cursor
                or self.state.terminal
            )
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
