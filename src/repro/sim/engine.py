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
a chain of per-op continuations is folded into one event, the surviving
event passes the time its *last elided predecessor* would have been
scheduled at as ``vtime``.  Same-cycle ordering against other cores'
events then matches the uncoalesced event chain exactly, because for
ordinary events sorting by (vtime, seq) *is* sorting by seq (alloc time
is monotone in seq).  Callbacks receive the current time; the vtime of
the event being processed is exposed as :attr:`SimEngine.now_vtime`.

Two storage tiers share that order (the hot-path layout):

* a **near-future bucket ring** (a calendar queue of
  :data:`RING_SPAN` slots) holds events whose
  delay from ``now`` is under the span — the vast majority in a
  cycle-accurate CMP model (cache latencies, directory round trips,
  per-burst continuations, wake-ups).  Insertion is a plain
  ``list.append``; a bucket is sorted once when its cycle is drained
  (almost always already in order — Timsort makes that a linear scan)
  and walked with no heap sifting.  "Earliest non-empty slot >= t" is
  a plain slot walk — the dominant chained-dispatch path short-circuits
  it with an inline ``t + 1`` probe, so actual scans are rare (a
  per-slot occupancy bitmask was tried and lost; see
  :meth:`SimEngine._scan_ring_next`).
* a binary **heap** keeps the long-delay tail (back-off, timeouts).
  When the heap holds events for the cycle being drained they are
  spilled into the bucket first, so one sorted walk covers both tiers.

Both tiers carry **slab event records**: recycled 5-slot field arrays
``[time, vtime, seq, token, fn]`` drawn from a freelist, so the
``schedule_after_nocancel`` fast path allocates nothing at steady state
— a fired record goes back on the freelist and the next schedule reuses
it in place.  Records compare elementwise exactly like the tuples they
replace (``seq`` is globally unique, so a comparison never reaches the
token field), which keeps heap ordering and the bucket sort bit-exact.

A bucket is single-epoch by construction: an entry lands in slot
``when & (span - 1)`` only while ``now <= when < now + span``, and the
engine never advances past a pending ring event, so a slot never mixes
entries for two different cycles.

Cancellation uses the standard lazy-invalidate idiom (events carry a
token that can be voided).  Tokens report their cancellation back to
the engine so it can (a) keep an exact count of *live* events — see
:meth:`SimEngine.pending` — and (b) compact the heap when cancellation
storms leave it dominated by dead entries.  A token is consumed when
its event fires, making a late ``cancel()`` a harmless no-op instead of
an accounting leak.  Events that are never cancelled can skip the
per-event token allocation entirely via the ``*_nocancel`` scheduling
variants, which share one immortal token.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.common.errors import EventBudgetError, SimulationError

EventFn = Callable[[int], None]

#: Ring geometry: delays in ``[0, RING_SPAN)`` are bucketed; power of
#: two so the slot index is a mask away.  64 is the measured end-to-end
#: winner of a 64/128/256 sweep (docs/PERFORMANCE.md PR 8): although
#: ~80% of e2e events carry directory-round-trip delays past 64 cycles
#: and route via the heap, heapq's C push/pop on the resulting small
#: heap beats the wider ring's longer empty-slot scans — the "ring
#: sized for the common case" worry measured as a non-problem.
RING_SPAN = 64
_MASK = RING_SPAN - 1

#: Sentinel "infinitely far" time for empty-tier comparisons.
_NEVER = float("inf")

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
        if not self.cancelled:
            self.cancelled = True
            eng = self._engine
            if eng is not None:
                eng._note_cancel()


#: Shared token for events that are never cancelled (the no-allocation
#: ``*_nocancel`` fast paths).  Deliberately not connected to any engine
#: and never consumed on fire.
_IMMORTAL = EventToken()

#: Slab record layout: [time, vtime, seq, token, fn].
_TOK = 3
_FN = 4


class SimEngine:
    """Calendar-queue + heap event scheduler in whole cycles."""

    __slots__ = (
        "_heap",
        "_ring",
        "_ring_count",
        "_ring_next",
        "_free",
        "_seq",
        "now",
        "now_vtime",
        "events_processed",
        "_max_events",
        "_live",
        "_cancelled_resident",
        "heap_compactions",
        "ring_events",
        "heap_events",
    )

    def __init__(self, max_events: int = 200_000_000) -> None:
        #: Long-delay tier of slab records [time, vtime, seq, token, fn].
        self._heap: List[list] = []
        #: Near-future tier: ``RING_SPAN`` buckets of slab records.
        self._ring: List[list] = [[] for _ in range(RING_SPAN)]
        self._ring_count = 0
        #: Earliest cycle holding a ring entry (``_NEVER`` when empty).
        self._ring_next = _NEVER
        #: Recycled slab records (freelist reuse — no per-event
        #: allocation at steady state).
        self._free: List[list] = []
        self._seq = 0
        self.now = 0
        #: vtime of the event currently being processed.
        self.now_vtime = 0
        self.events_processed = 0
        self._max_events = max_events
        #: Scheduled, not yet fired, not cancelled.
        self._live = 0
        #: Cancelled entries still physically resident.
        self._cancelled_resident = 0
        self.heap_compactions = 0
        #: Tier routing counters (profiling attribution).
        self.ring_events = 0
        self.heap_events = 0

    def reset(self) -> None:
        """Return to the just-constructed state (machine-pool reuse).

        Everything observable — clock, sequence counter, both storage
        tiers, live/cancelled accounting, telemetry counters — starts
        over, so a run on a reset engine is bit-identical to a run on a
        fresh one.  The slab freelist is deliberately *kept*: recycled
        records carry no observable state (token/fn are cleared on
        recycle) and reusing them across runs is the point of pooling.
        """
        self._heap.clear()
        for bucket in self._ring:
            bucket.clear()
        self._ring_count = 0
        self._ring_next = _NEVER
        self._seq = 0
        self.now = 0
        self.now_vtime = 0
        self.events_processed = 0
        self._live = 0
        self._cancelled_resident = 0
        self.heap_compactions = 0
        self.ring_events = 0
        self.heap_events = 0

    def trim_slab(self) -> None:
        """Drop the recycled-record freelist (parked-machine slimming)."""
        self._free.clear()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _insert(self, when: int, vtime: int, token: EventToken, fn: EventFn) -> None:
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = vtime
            rec[2] = self._seq
            rec[3] = token
            rec[4] = fn
        else:
            rec = [when, vtime, self._seq, token, fn]
        if when - self.now < RING_SPAN:
            self._ring[when & _MASK].append(rec)
            self._ring_count += 1
            self.ring_events += 1
            if when < self._ring_next:
                self._ring_next = when
        else:
            heapq.heappush(self._heap, rec)
            self.heap_events += 1
        self._seq += 1
        self._live += 1

    def schedule(self, when: int, fn: EventFn) -> EventToken:
        """Schedule ``fn`` to fire at absolute cycle ``when``."""
        if when < self.now:
            raise SimulationError(
                f"scheduling into the past: {when} < now {self.now}"
            )
        token = EventToken(self)
        self._insert(when, self.now, token, fn)
        return token

    def schedule_after(self, delay: int, fn: EventFn) -> EventToken:
        # Hottest cancellable entry point — inlines _insert (a relative
        # delay >= 0 can never land in the past, so no bounds re-check).
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        token = EventToken(self)
        now = self.now
        when = now + delay
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = now
            rec[2] = self._seq
            rec[3] = token
            rec[4] = fn
        else:
            rec = [when, now, self._seq, token, fn]
        if delay < RING_SPAN:
            self._ring[when & _MASK].append(rec)
            self._ring_count += 1
            self.ring_events += 1
            if when < self._ring_next:
                self._ring_next = when
        else:
            heapq.heappush(self._heap, rec)
            self.heap_events += 1
        self._seq += 1
        self._live += 1
        return token

    def schedule_after_nocancel(self, delay: int, fn: EventFn) -> None:
        """No-allocation ``schedule_after`` for never-cancelled events.

        The entry shares one immortal token and reuses a recycled slab
        record, so nothing is allocated and nothing is returned.  Use
        only when no code path can want to cancel the event; the event
        budget and the ``(time, vtime, seq)`` total order apply exactly
        as for the token path.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self.now
        when = now + delay
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = now
            rec[2] = self._seq
            rec[3] = _IMMORTAL
            rec[4] = fn
        else:
            rec = [when, now, self._seq, _IMMORTAL, fn]
        if delay < RING_SPAN:
            self._ring[when & _MASK].append(rec)
            self._ring_count += 1
            self.ring_events += 1
            if when < self._ring_next:
                self._ring_next = when
        else:
            heapq.heappush(self._heap, rec)
            self.heap_events += 1
        self._seq += 1
        self._live += 1

    def schedule_after_virtual(
        self, delay: int, fn: EventFn, vdelay: int
    ) -> EventToken:
        """Schedule with an explicit virtual allocation time.

        The event fires at ``now + delay`` but orders against same-cycle
        events as if it had been scheduled at ``now + vdelay`` — the
        burst-coalescing hook (``vdelay`` is the offset of the last
        elided continuation; it may be negative for abort checkpoints
        replaying an already-past allocation point).  ``vdelay`` must
        not exceed ``delay``: an event cannot be allocated after it
        fires.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        token = EventToken(self)
        self._insert(self.now + delay, self.now + vdelay, token, fn)
        return token

    def schedule_after_virtual_nocancel(
        self, delay: int, fn: EventFn, vdelay: int
    ) -> None:
        """:meth:`schedule_after_virtual` on the shared immortal token."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if vdelay > delay:
            raise SimulationError(f"vdelay {vdelay} > delay {delay}")
        self._insert(self.now + delay, self.now + vdelay, _IMMORTAL, fn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending(self) -> int:
        """Number of *live* (not-yet-fired, not-cancelled) events.

        Cancelled-but-resident entries are excluded — cancellation
        storms used to make this overcount until the corpses happened
        to be popped.
        """
        return self._live

    def resident(self) -> int:
        """Entries physically resident in heap + ring (live or dead)."""
        return len(self._heap) + self._ring_count

    # ------------------------------------------------------------------
    # Cancellation accounting & heap compaction
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_resident += 1
        if (
            self._cancelled_resident >= _COMPACT_MIN
            and self._cancelled_resident * 2 >= len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Ring corpses are left alone: they drain within the ring span
        anyway.  Compaction preserves the (time, vtime, seq) order of
        live events, so it is invisible to the simulation.  Dropped
        records are recycled onto the slab freelist.
        """
        heap = self._heap
        free = self._free
        kept = []
        for rec in heap:
            if rec[_TOK].cancelled:
                rec[_TOK] = None
                rec[_FN] = None
                free.append(rec)
            else:
                kept.append(rec)
        removed = len(heap) - len(kept)
        if removed:
            heapq.heapify(kept)
            self._heap = kept
            self._cancelled_resident -= removed
            self.heap_compactions += 1
        # No removals: the corpses must stay where they are (they were
        # appended to `free` only when dropped, so nothing to undo).

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _scan_ring_next(self, start: int) -> None:
        """Recompute ``_ring_next``: earliest ring cycle >= ``start``.

        A plain slot walk.  An occupancy bitmask (bit per slot, rotate
        + lowest-set-bit probe) was tried here and *lost*: its
        per-event set/clear upkeep taxes the dominant chained-dispatch
        path, which never scans at all (the inline ``t + 1`` probe in
        the drain loop short-circuits it), while actual scans are rare
        and short — every resident entry fires within the span of its
        scheduling cycle, so the walk stops at the first non-empty
        slot.
        """
        if self._ring_count == 0:
            self._ring_next = _NEVER
            return
        ring = self._ring
        mask = _MASK
        for d in range(RING_SPAN):
            t = start + d
            if ring[t & mask]:
                self._ring_next = t
                return
        self._ring_next = _NEVER  # pragma: no cover - count/ring desync

    def _merge_heap_into_bucket(self, t: int, bucket: list) -> None:
        """Spill heap entries firing at cycle ``t`` into ``t``'s bucket.

        The bucket is then sorted once, giving the (vtime, seq) walk
        order across both tiers (records are [time, vtime, seq, ...]
        and time is uniform within a bucket, so list comparison orders
        by (vtime, seq) exactly).  ``_ring_next`` is pulled back to
        ``t`` so an exception unwind mid-drain leaves the unfired
        remainder discoverable.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] == t:
            bucket.append(pop(heap))
            self._ring_count += 1
        self._ring_next = t

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
        # Hot loop: bind heap/ring/freelist and the budget to locals;
        # mirror the processed count back on every exit path (events
        # fired inside a callback raising included).  Cycles holding
        # exactly one event — the overwhelming case in a sparse
        # cycle-accurate model — take dedicated fast paths that skip the
        # spill/sort/rescan machinery; ordering is trivially exact
        # because there is nothing to order against.  Records are
        # recycled the moment their fields are read: a consumed bucket
        # position is never re-read, so a callback reusing the record
        # for a new event cannot alias a pending one.
        heap = self._heap
        ring = self._ring
        free = self._free
        mask = _MASK
        heappop = heapq.heappop
        budget = self._max_events
        processed = self.events_processed
        try:
            while True:
                t_ring = self._ring_next
                if heap:
                    t_heap = heap[0][0]
                    t = t_ring if t_ring <= t_heap else t_heap
                elif t_ring is not _NEVER:
                    t = t_ring
                else:
                    break
                if until is not None and t > until:
                    break

                bucket = ring[t & mask]
                if heap and heap[0][0] == t:
                    if not bucket and (
                        len(heap) == 1
                        or (
                            heap[1][0] != t
                            and (len(heap) < 3 or heap[2][0] != t)
                        )
                    ):
                        # Lone heap event this cycle: fire it in place.
                        # The ring is untouched (zero-delay events fn
                        # schedules min-update _ring_next themselves),
                        # so no bucket spill and no slot rescan.
                        rec = heappop(heap)
                        vtime = rec[1]
                        token = rec[3]
                        fn = rec[4]
                        free.append(rec)
                        if token.cancelled:
                            self._cancelled_resident -= 1
                            continue
                        if token is not _IMMORTAL:
                            token.cancelled = True  # consumed
                        self.now = t
                        self.now_vtime = vtime
                        self._live -= 1
                        processed += 1
                        if processed > budget:
                            raise EventBudgetError(budget, t)
                        fn(t)
                        if self._heap is not heap:
                            heap = self._heap
                        continue
                    self._merge_heap_into_bucket(t, bucket)
                if len(bucket) == 1:
                    # Lone ring entry: pop + fire, then recompute the
                    # next ring cycle from the occupancy mask.
                    rec = bucket.pop()
                    self._ring_count -= 1
                    vtime = rec[1]
                    token = rec[3]
                    fn = rec[4]
                    free.append(rec)
                    if token.cancelled:
                        self._cancelled_resident -= 1
                    else:
                        if token is not _IMMORTAL:
                            token.cancelled = True  # consumed
                        self.now = t
                        self.now_vtime = vtime
                        self._live -= 1
                        processed += 1
                        if processed > budget:
                            raise EventBudgetError(budget, t)
                        fn(t)
                    if bucket:
                        # fn appended zero-delay events for this cycle.
                        self._ring_next = t
                    elif self._ring_count == 0:
                        self._ring_next = _NEVER
                    elif ring[(t + 1) & mask]:
                        # Inline probe of the next cycle: chained
                        # delay-1 events (bursts) skip the mask scan.
                        self._ring_next = t + 1
                    else:
                        self._scan_ring_next(t + 2)
                    if self._heap is not heap:
                        heap = self._heap
                    continue
                if len(bucket) > 1:
                    # Near-sorted in the common case (alloc order), so
                    # this is a linear verification scan, not a sort.
                    bucket.sort()
                i = 0
                try:
                    # Walk by index: zero-delay events appended
                    # mid-drain extend this same list and are picked up
                    # in schedule order.
                    while i < len(bucket):
                        rec = bucket[i]
                        i += 1
                        vtime = rec[1]
                        token = rec[3]
                        fn = rec[4]
                        free.append(rec)
                        if token.cancelled:
                            self._cancelled_resident -= 1
                            continue
                        if token is not _IMMORTAL:
                            token.cancelled = True  # consumed
                        self.now = t
                        self.now_vtime = vtime
                        self._live -= 1
                        processed += 1
                        if processed > budget:
                            raise EventBudgetError(budget, t)
                        fn(t)
                finally:
                    # Keep unfired entries on an exception unwind so a
                    # resumed engine does not re-fire processed ones.
                    del bucket[:i]
                    self._ring_count -= i
                self._scan_ring_next(t + 1)
                if self._heap is not heap:
                    heap = self._heap  # compaction swapped the list
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
        while True:
            heap = self._heap
            t_ring = self._ring_next
            if heap:
                t_heap = heap[0][0]
                t = t_ring if t_ring <= t_heap else t_heap
            elif t_ring is not _NEVER:
                t = t_ring
            else:
                return False
            bucket = self._ring[t & _MASK]
            if heap and heap[0][0] == t:
                self._merge_heap_into_bucket(t, bucket)
            if len(bucket) > 1:
                bucket.sort()
            rec = bucket.pop(0)
            self._ring_count -= 1
            vtime = rec[1]
            token = rec[3]
            fn = rec[4]
            self._free.append(rec)
            if not bucket:
                self._scan_ring_next(t + 1)
            if token.cancelled:
                self._cancelled_resident -= 1
                continue
            if token is not _IMMORTAL:
                token.cancelled = True  # consumed
            self.now = t
            self.now_vtime = vtime
            self._live -= 1
            self.events_processed += 1
            if self.events_processed > self._max_events:
                raise EventBudgetError(self._max_events, self.now)
            fn(t)
            return True

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
        sim.set("slab_free_records", len(self._free))
