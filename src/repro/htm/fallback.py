"""The fallback lock (and the CGL global lock): a FIFO ticket lock model.

The lock is a single cache line; acquisitions are serialized FIFO (ticket
semantics).  Timing: an uncontended acquire costs a round trip to the
lock's home LLC bank; a contended hand-off costs a cache-to-cache
transfer from the releaser to the next waiter.  Waiting time is what the
paper's breakdown charts bill as ``waitlock``.

The same class also implements the *subscription* behaviour of Listing 1
for best-effort HTM: cores may register as *elision waiters* (threads
spinning at ``xbegin`` because the lock is held); they are all notified
on release (the lock-line invalidation wakes every subscriber).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.common.errors import SimulationError


class LockManager:
    """FIFO lock over the simulated interconnect."""

    __slots__ = (
        "name",
        "line",
        "home_tile",
        "_network",
        "_tile_of_core",
        "holder",
        "_queue",
        "_elision_waiters",
        "acquisitions",
        "contended_acquisitions",
        "_engine",
    )

    def __init__(
        self,
        name: str,
        line: int,
        home_tile: int,
        engine,
        network,
        tile_of_core: Callable[[int], int],
    ) -> None:
        self.name = name
        self.line = line
        self.home_tile = home_tile
        self._engine = engine
        self._network = network
        self._tile_of_core = tile_of_core
        #: FIFO of (core, grant_callback) waiting for ownership.
        self._queue: Deque[Tuple[int, Callable[[int], None]]] = deque()
        #: Elision subscribers: (core, callback) resumed on next release.
        self._elision_waiters: List[Tuple[int, Callable[[int], None]]] = []
        self.reset()

    def reset(self) -> None:
        """Set the run state: lock free, no waiters, counters zeroed."""
        self.holder: Optional[int] = None
        self._queue.clear()
        self._elision_waiters.clear()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def held(self) -> bool:
        return self.holder is not None

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def acquire(self, core: int, now: int, on_granted: Callable[[int], None]) -> None:
        """Request ownership; ``on_granted(grant_time)`` fires when owned."""
        if self.holder == core:
            raise SimulationError(f"core {core} re-acquiring {self.name}")
        if any(c == core for c, _ in self._queue):
            raise SimulationError(f"core {core} already queued on {self.name}")
        if self.holder is None and not self._queue:
            # Uncontended: round trip to the lock's home bank.
            latency = self._network.round_trip(
                self._tile_of_core(core), self.home_tile
            )
            self.holder = core
            self.acquisitions += 1
            self._engine.schedule_after_nocancel(latency, on_granted)
        else:
            self.contended_acquisitions += 1
            self._queue.append((core, on_granted))

    def release(self, core: int, now: int) -> None:
        """Release; hands off FIFO and wakes elision subscribers."""
        if self.holder != core:
            raise SimulationError(
                f"core {core} releasing {self.name} held by {self.holder}"
            )
        self.holder = None
        if self._queue:
            nxt, cb = self._queue.popleft()
            # Hand-off: dirty lock line moves releaser -> next owner.
            latency = self._network.data_latency(
                self._tile_of_core(core), self._tile_of_core(nxt)
            )
            self.holder = nxt
            self.acquisitions += 1
            self._engine.schedule_after_nocancel(max(1, latency), cb)
        if self._elision_waiters and self.holder is None:
            waiters, self._elision_waiters = self._elision_waiters, []
            for wcore, wcb in waiters:
                latency = self._network.control_latency(
                    self._tile_of_core(core), self._tile_of_core(wcore)
                )
                self._engine.schedule_after_nocancel(max(1, latency), wcb)

    def publish_telemetry(self, registry, prefix: str = "lock_tx") -> None:
        """Publish lock counters under ``lock_tx.<name>.*``."""
        scope = registry.scope(f"{prefix}.{self.name}")
        scope.set("acquisitions", self.acquisitions)
        scope.set("contended_acquisitions", self.contended_acquisitions)
        scope.set("queue_depth", self.queue_depth)
        scope.set("elision_waiters", len(self._elision_waiters))
        scope.set("held", self.held)
        scope.set("holder", self.holder if self.holder is not None else -1)

    def wait_free(self, core: int, on_free: Callable[[int], None]) -> None:
        """Subscribe until the lock is released (Listing 1 spin at xbegin).

        If currently free, resumes next cycle.
        """
        if not self.held:
            self._engine.schedule_after_nocancel(1, on_free)
        else:
            self._elision_waiters.append((core, on_free))

    def cancel_wait(self, core: int) -> None:
        """Drop any elision subscription for ``core`` (abort cleanup)."""
        waiters = self._elision_waiters
        if any(c == core for c, _cb in waiters):
            self._elision_waiters = [
                (c, cb) for c, cb in waiters if c != core
            ]
