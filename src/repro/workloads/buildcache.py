"""Process-wide memoization of :class:`WorkloadBuild` objects.

A build is a pure function of ``(workload, threads, scale, seed)`` —
:meth:`Workload.build` derives its RNG substream from exactly those
coordinates — and nothing in the simulator mutates a build after
construction: programs are read-only op lists, ``expected`` is only read
by verification, and each segment's burst plan (``_bursts``) is built
once, by ``Segment.__post_init__``, and only read by the CPUs.  So the
same build can back every cell of a sweep that shares its coordinates
(every system of the Table-II grid, for one), and ``make_txn``'s RNG
stream runs once per distinct key instead of once per cell.  Builds
also share their compute ops and burst ``steps`` tuples with each other
(:mod:`repro.htm.isa` interns them), so a cached build costs less than
its op count suggests.

Bit-identity of shared-vs-fresh builds is pinned by the golden
equivalence test.  The cache is per-process (sweep workers each warm
their own), bounded LRU so long multi-scale campaigns cannot grow it
without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.workloads.base import Workload, WorkloadBuild

#: Distinct (workload, threads, scale, seed) keys kept per process.
MAX_ENTRIES = 64


class BuildCache:
    """Bounded LRU of WorkloadBuilds with hit/miss accounting."""

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, WorkloadBuild]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(
        self, workload: Workload, threads: int, scale: float, seed: int
    ) -> WorkloadBuild:
        # Same numeric normalization as the run cache key: scale=1 and
        # scale=1.0 are the same build.
        key = (workload.name, int(threads), float(scale), int(seed))
        build = self._entries.get(key)
        if build is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return build
        self.misses += 1
        build = workload.build(threads, scale, seed)
        self._entries[key] = build
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return build

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache used by the runner when build sharing is on.
_SHARED: BuildCache = BuildCache()


def shared_builds() -> BuildCache:
    return _SHARED
