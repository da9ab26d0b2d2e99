"""Minimal deterministic discrete-event engine.

Events are totally ordered by ``(time, vtime, seq)``:

* ``time`` — the cycle the event fires;
* ``vtime`` — the event's *virtual allocation time*: for ordinary
  events the cycle it was scheduled at, equal for every entry a single
  callback schedules, so same-cycle events fire in schedule order and
  runs are bit-reproducible regardless of hash seeds;
* ``seq`` — a monotonically increasing sequence number breaking the
  remaining ties by call order.

``vtime`` exists for **compute-burst coalescing** (repro.sim.cpu): when
a chain of one-per-op continuations is folded into one event, the
surviving event passes the time its *last elided predecessor* would have
been scheduled at as ``vtime``.  Same-cycle ordering against other
cores' events then matches the one-event-per-op chain, because for
ordinary events sorting by (vtime, seq) *is* sorting by seq (alloc time
is monotone in seq).  Callbacks receive the current time; the vtime of
the event being processed is exposed as :attr:`SimEngine.now_vtime`.

Storage is **one binary heap** of plain ``(time, vtime, seq, token,
fn)`` tuples.  ``seq`` is globally unique, so a tuple comparison never
reaches the token field and ``heapq``'s C push/pop orders events by
exactly ``(time, vtime, seq)``.  Dispatch is one pop-check-fire loop.
On the cold Table-II grid the bare heap measured faster than a
near-future bucket ring in front of it, and plain tuples at least as
fast as recycled list records (docs/PERFORMANCE.md, PR 14).

Cancellation uses the standard lazy-invalidate idiom (events carry a
token that can be voided).  Tokens report their cancellation back to
the engine so it can (a) keep an exact count of *live* events — see
:meth:`SimEngine.pending` — and (b) compact the heap when cancellation
storms leave it dominated by dead entries.  A token is consumed when
its event fires, making a late ``cancel()`` a harmless no-op instead of
an accounting leak.  Events that are never cancelled can skip the
per-event token allocation entirely via the ``*_nocancel`` scheduling
variants, which share one immortal token.

A consumed token can be **re-armed**: :meth:`SimEngine.schedule_after_virtual`
takes it back and schedules a new entry under it, so a caller with one
cancellable continuation in flight at a time (each CPU's burst chain)
allocates one token, not one per event.  A cancelled token is never
re-armed: its dead entry may still sit in the heap, and re-arming would
bring it back to life.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

from repro.common.errors import EventBudgetError, SimulationError

EventFn = Callable[[int], None]

#: Heap compaction policy: rebuild when at least this many cancelled
#: entries are resident *and* they are the majority of the heap.
_COMPACT_MIN = 256


class EventToken:
    """Handle allowing a scheduled event to be cancelled lazily."""

    __slots__ = ("cancelled", "_engine")

    def __init__(self, engine: Optional["SimEngine"] = None) -> None:
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        # Consumed (already-fired) tokens have cancelled == True, so a
        # late cancel falls through without corrupting the live count.
        # Dropping the engine marks the token cancelled rather than
        # consumed, which is what forbids re-arming it.
        if not self.cancelled:
            self.cancelled = True
            eng = self._engine
            if eng is not None:
                self._engine = None
                eng._note_cancel()


#: Shared token for events that are never cancelled (the no-allocation
#: ``*_nocancel`` fast paths).  Deliberately not connected to any engine
#: and never consumed on fire.
_IMMORTAL = EventToken()


class SimEngine:
    """Binary-heap event scheduler in whole cycles."""

    __slots__ = (
        "_heap",
        "_seq",
        "now",
        "now_vtime",
        "events_processed",
        "_max_events",
        "_cancelled_resident",
        "heap_compactions",
    )

    #: Events routed through a near-future ring tier.  The ring is gone,
    #: so this stays 0; kept for readers of the old tier counters.
    ring_events = 0

    def __init__(self, max_events: int = 200_000_000) -> None:
        #: Heap of (time, vtime, seq, token, fn) tuples.
        self._heap: List[tuple] = []
        self._max_events = max_events
        self.reset()

    @property
    def heap_events(self) -> int:
        """Events scheduled since construction or :meth:`reset`.

        Every event goes through the heap, so this counts all of them,
        cancelled ones included.
        """
        return self._seq

    def reset(self) -> None:
        """Set the run state: an empty heap at cycle 0, counters zeroed.

        The only place the clock, sequence counter and live/cancelled
        accounting are set, so a run on a reset engine is bit-identical
        to a run on a fresh one.
        """
        self._heap.clear()
        self._seq = 0
        self.now = 0
        #: vtime of the event currently being processed.
        self.now_vtime = 0
        self.events_processed = 0
        #: Cancelled entries still physically resident.
        self._cancelled_resident = 0
        self.heap_compactions = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_after(self, delay: int, fn: EventFn) -> EventToken:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        token = EventToken(self)
        heappush(self._heap, (now + delay, now, self._seq, token, fn))
        self._seq += 1
        return token

    def schedule_after_nocancel(self, delay: int, fn: EventFn) -> None:
        """Token-free ``schedule_after`` for never-cancelled events.

        The entry shares one immortal token, so no token is allocated
        and nothing is returned.  Use only when no code path can want
        to cancel the event; the event budget and the
        ``(time, vtime, seq)`` total order apply exactly as for the
        token path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        heappush(self._heap, (now + delay, now, self._seq, _IMMORTAL, fn))
        self._seq += 1

    def schedule_after_virtual(
        self,
        delay: int,
        fn: EventFn,
        vdelay: int,
        token: Optional[EventToken] = None,
    ) -> EventToken:
        """Schedule with an explicit virtual allocation time.

        The event fires at ``now + delay`` but orders against same-cycle
        events as if it had been scheduled at ``now + vdelay`` — the
        burst-coalescing hook (``vdelay`` is the offset of the last
        elided continuation; it may be negative for abort checkpoints
        replaying an already-past allocation point).  ``vdelay`` must
        not exceed ``delay``: an event cannot be allocated after it
        fires.

        ``token``, when given, is a consumed token of this engine to
        re-arm for the new entry instead of allocating one; a live or
        cancelled token raises :class:`SimulationError`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        now = self.now
        if token is None:
            token = EventToken(self)
        elif token.cancelled and token._engine is self:
            token.cancelled = False  # fired: its entry left the heap
        else:
            state = (
                "live" if not token.cancelled
                else "cancelled" if token._engine is None
                else "another engine's"
            )
            raise SimulationError(f"cannot re-arm a {state} token")
        heappush(
            self._heap, (now + delay, now + vdelay, self._seq, token, fn)
        )
        self._seq += 1
        return token

    def schedule_after_virtual_nocancel(
        self, delay: int, fn: EventFn, vdelay: int
    ) -> None:
        """:meth:`schedule_after_virtual` on the shared immortal token."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        now = self.now
        heappush(
            self._heap, (now + delay, now + vdelay, self._seq, _IMMORTAL, fn)
        )
        self._seq += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Number of *live* (not-yet-fired, not-cancelled) events.

        Cancelled-but-resident entries are excluded — cancellation
        storms used to make this overcount until the corpses happened
        to be popped.  Every resident entry is live unless cancelled,
        so this is derived rather than counted on every event.
        """
        return len(self._heap) - self._cancelled_resident

    def resident(self) -> int:
        """Entries physically resident in the heap (live or dead)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Cancellation accounting & heap compaction
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_resident += 1
        if (
            self._cancelled_resident >= _COMPACT_MIN
            and self._cancelled_resident * 2 >= len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Rewrites the heap list in place, so a :meth:`run` loop holding
        it in a local (compaction fires from inside callbacks) keeps
        draining the live one.  Compaction preserves the (time, vtime,
        seq) order of live events, so it is invisible to the simulation.
        """
        heap = self._heap
        kept = [entry for entry in heap if not entry[3].cancelled]
        removed = len(heap) - len(kept)
        if removed:
            heapify(kept)
            heap[:] = kept
            self._cancelled_resident -= removed
            self.heap_compactions += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Drain events (optionally stopping after cycle ``until``).

        With ``until``, every event up to and including cycle ``until``
        fires and the clock then *advances to exactly* ``until`` — a
        truncated run ends at the truncation point, not at the time of
        whatever event happened to fire last, so callers report the
        cycle they asked for and a subsequent :meth:`schedule_after` is
        anchored at the cutoff rather than a stale ``now``.  Returns
        ``self.now``.
        """
        # Hot loop: the heap and the budget live in locals; the
        # processed count is mirrored back on every exit path (events
        # fired inside a callback raising included).  An event is
        # popped before it fires, so an exception unwind leaves exactly
        # the unfired events queued.
        heap = self._heap
        budget = self._max_events
        processed = self.events_processed
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                t, vtime, _, token, fn = heappop(heap)
                if token.cancelled:
                    self._cancelled_resident -= 1
                    continue
                if token is not _IMMORTAL:
                    token.cancelled = True  # consumed
                self.now = t
                self.now_vtime = vtime
                processed += 1
                if processed > budget:
                    raise EventBudgetError(budget, t)
                fn(t)
        finally:
            self.events_processed = processed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Process exactly one live event; False when none are pending.

        Enforces the same event budget as :meth:`run` — a stepped
        simulation must not be allowed to livelock forever either.
        """
        heap = self._heap
        while heap:
            t, vtime, _, token, fn = heappop(heap)
            if token.cancelled:
                self._cancelled_resident -= 1
                continue
            if token is not _IMMORTAL:
                token.cancelled = True  # consumed
            self.now = t
            self.now_vtime = vtime
            self.events_processed += 1
            if self.events_processed > self._max_events:
                raise EventBudgetError(self._max_events, t)
            fn(t)
            return True
        return False

    # ------------------------------------------------------------------

    def publish_telemetry(self, registry) -> None:
        """Publish scheduler counters under ``sim.*`` (pull-model)."""
        sim = registry.scope("sim")
        sim.set("now", self.now)
        sim.set("events_processed", self.events_processed)
        sim.set("events_pending", self.pending())
        sim.set("events_resident", self.resident())
        sim.set("ring_events", self.ring_events)
        sim.set("heap_events", self.heap_events)
        sim.set("heap_compactions", self.heap_compactions)
