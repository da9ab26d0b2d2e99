"""Always-on sweep service over the experiment harness.

ROADMAP item 1: lift the harness substrate — pure cell functions, the
content-addressed run cache, process-pool fan-out, crash-tolerant
checkpointing — into a long-running experiment backend.  The package is
pure stdlib (asyncio + http-over-``asyncio.start_server``):

* :mod:`repro.service.campaigns` — the wire-level campaign model: a
  sweep or multiseed grid whose cells are its
  :class:`~repro.harness.sweeps.Sweep`'s cells, each addressed by its
  :func:`repro.harness.runcache.cell_key`.
* :mod:`repro.service.store` — :class:`ShardedStore`, a
  :class:`~repro.harness.runcache.RunCache` in the same on-disk layout
  whose reads return memoized result records.
* :mod:`repro.service.jobs` — job records, the JSONL event feed, and
  the atomic journal that makes every campaign resumable.
* :mod:`repro.service.server` — :class:`ReproService`: the asyncio
  HTTP API (submit/status/stream/results/cancel), one FIFO queue under
  one ``max_queued_cells`` bound, the dedup-aware scheduler over the
  :func:`repro.harness.parallel.execute_cell` process pool, and
  graceful SIGTERM drain.
* :mod:`repro.service.client` — a stdlib HTTP client mirroring the API.

Determinism is sacred: a campaign served through the service produces
bit-identical :class:`~repro.common.stats.RunStats` to the same
campaign run serially via ``Sweep.run`` (pinned by the service test
suite).
"""

from repro.service.campaigns import CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobState
from repro.service.server import QueueFull, ReproService, ServiceConfig
from repro.service.store import ShardedStore

__all__ = [
    "CampaignSpec",
    "Job",
    "JobState",
    "QueueFull",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardedStore",
]
