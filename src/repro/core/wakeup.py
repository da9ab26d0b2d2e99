"""Wake-up bookkeeping for rejected requests (§III-A, Fig. 2 ⑦/⑧).

When a request is rejected under the ``WaitWakeup`` policy, the rejecting
side records which core must be notified; the table is drained when the
holder commits or aborts, sending a wake-up message to each parked
requester (modeled after the ACE stash transaction).  Entries carry the
waiter's attempt sequence number so a stale wake-up (the waiter already
aborted and moved on) is ignored by the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Waiter:
    core: int
    attempt_seq: int
    resume: Callable[[int], None]


class WakeupTable:
    """Per-holder lists of parked requesters."""

    __slots__ = ("_table", "registered", "drained", "chaos_drop", "dropped")

    def __init__(self) -> None:
        self._table: Dict[int, List[Waiter]] = {}
        self.reset()

    def reset(self) -> None:
        """Set the run state: no waiters, counters zeroed, no chaos hook."""
        self._table.clear()
        self.registered = 0
        self.drained = 0
        #: Fault-injection hook: () -> bool, True to lose the wake-up
        #: message for one waiter.  Wired by the Machine when a FaultPlan
        #: is armed; the stranded waiter must recover via its timeout.
        self.chaos_drop: Optional[Callable[[], bool]] = None
        self.dropped = 0

    def register(
        self,
        holder: int,
        waiter_core: int,
        attempt_seq: int,
        resume: Callable[[int], None],
    ) -> None:
        if holder == waiter_core:
            raise ValueError("core cannot wait on itself")
        self._table.setdefault(holder, []).append(
            Waiter(waiter_core, attempt_seq, resume)
        )
        self.registered += 1

    def drain(self, holder: int) -> List[Waiter]:
        """Remove and return every waiter parked on ``holder``.

        Waiters whose wake-up message the fault injector drops are
        removed from the table but *not* returned: the message was sent
        and lost, and the waiter is on its own (timeout guard).
        """
        waiters = self._table.pop(holder, [])
        if self.chaos_drop is not None and waiters:
            delivered = []
            for w in waiters:
                if self.chaos_drop():
                    self.dropped += 1
                else:
                    delivered.append(w)
            waiters = delivered
        self.drained += len(waiters)
        return waiters

    def discard_waiter(self, waiter_core: int) -> None:
        """Remove ``waiter_core`` everywhere (it aborted while parked)."""
        for holder in list(self._table):
            kept = [w for w in self._table[holder] if w.core != waiter_core]
            if kept:
                self._table[holder] = kept
            else:
                del self._table[holder]

    def pending_for(self, holder: int) -> int:
        return len(self._table.get(holder, ()))

    @property
    def total_pending(self) -> int:
        return sum(len(v) for v in self._table.values())

    def publish_telemetry(self, registry) -> None:
        """Publish wake-up counters under ``htm.wakeup.*``."""
        scope = registry.scope("htm.wakeup")
        scope.set("registered", self.registered)
        scope.set("drained", self.drained)
        scope.set("dropped", self.dropped)
        scope.set("pending", self.total_pending)
