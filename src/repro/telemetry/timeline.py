"""Transaction timeline reconstruction from lifecycle events.

Fed by the :class:`~repro.telemetry.session.Telemetry` session, it
folds the machine's event stream into per-transaction **spans**: one
:class:`TxSpan` per critical-section attempt, from ``xbegin`` (or
irrevocable lock entry) through its NACKs, stalls, spills and wake-ups
to the commit or abort that closes it.  Spans carry the attempt's mode
trajectory (``htm``, ``htm->stl``, ``tl``, ``fallback``), outcome,
abort reason and the priority the conflict manager saw at close — the
per-cell "why" behind the paper's aggregate bars.

Alongside spans the builder samples two machine-level counter tracks at
span boundaries: the total transactional live set (lines pinned across
all cores) and the LLC overflow-signature fill, the two capacity
signals of the HTMLock mechanism.  Render everything with
:func:`repro.telemetry.chrometrace.chrome_trace` and load the JSON in
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.events import TraceEvent

#: Span-boundary kinds that trigger a counter-track sample.
_SAMPLE_KINDS = (
    TraceEvent.TX_BEGIN,
    TraceEvent.LOCK_BEGIN,
    TraceEvent.TX_COMMIT,
    TraceEvent.TX_ABORT,
    TraceEvent.SPILL,
)


class TxSpan:
    """One critical-section attempt on one core."""

    __slots__ = (
        "core",
        "index",
        "start",
        "end",
        "mode",
        "switched",
        "outcome",
        "kind",
        "abort_reason",
        "nacks",
        "wakeups",
        "overflows",
        "spills",
        "priority",
        "marks",
    )

    def __init__(self, core: int, index: int, start: int, mode: str) -> None:
        self.core = core
        self.index = index
        self.start = start
        self.end: Optional[int] = None
        self.mode = mode
        self.switched = False
        #: "commit" | "abort" | "open" (never closed; truncated run).
        self.outcome = "open"
        #: Commit kind ("htm" / "lock" / "switched") when committed.
        self.kind: Optional[str] = None
        self.abort_reason: Optional[str] = None
        self.nacks = 0
        self.wakeups = 0
        self.overflows = 0
        self.spills = 0
        self.priority: Optional[int] = None
        #: (time, label) annotations inside the span (bounded).
        self.marks: List[Tuple[int, str]] = []

    @property
    def duration(self) -> int:
        end = self.end if self.end is not None else self.start
        return max(end - self.start, 0)

    def label(self) -> str:
        if self.outcome == "commit":
            return f"{self.mode} commit"
        if self.outcome == "abort":
            return f"{self.mode} abort:{self.abort_reason}"
        return f"{self.mode} (open)"


class TimelineBuilder:
    """Folds the telemetry event stream into spans + counter tracks."""

    #: Per-span annotation cap (runaway NACK storms stay bounded).
    MAX_MARKS_PER_SPAN = 64
    #: Cap on spans, instants and counter samples each.
    CAPACITY = 200_000

    def __init__(self) -> None:
        self.spans: List[TxSpan] = []
        #: Instant events outside any span (e.g. plain-access NACKs).
        self.instants: List[Tuple[int, int, str]] = []
        #: (time, live_set_lines, signature_bits_set) samples.
        self.counter_samples: List[Tuple[int, int, int]] = []
        self.dropped = 0
        self._open: Dict[int, TxSpan] = {}
        self._span_seq: Dict[int, int] = {}
        #: The observed machine, set by the session while attached; the
        #: counter samples and close-time priorities read it.
        self.machine = None
        self._last_sample_time = -1

    # -- event folding -------------------------------------------------

    def _begin(self, time: int, core: int, mode: str) -> None:
        prev = self._open.pop(core, None)
        if prev is not None:
            # Defensive: a begin with a span still open closes it as-is.
            prev.end = time
        seq = self._span_seq.get(core, 0)
        self._span_seq[core] = seq + 1
        span = TxSpan(core, seq, time, mode)
        self._open[core] = span
        self._record(span)

    def _close(self, time: int, core: int, outcome: str, arg) -> None:
        span = self._open.pop(core, None)
        if span is None:
            return
        span.end = time
        span.outcome = outcome
        if outcome == "commit":
            span.kind = arg
        else:
            span.abort_reason = arg
        machine = self.machine
        if machine is not None:
            span.priority = machine.memsys.priority_of(core, time)

    def _mark(self, span: TxSpan, time: int, label: str) -> None:
        if len(span.marks) < self.MAX_MARKS_PER_SPAN:
            span.marks.append((time, label))

    def _record(self, span: TxSpan) -> None:
        if len(self.spans) >= self.CAPACITY:
            self.dropped += 1
            return
        self.spans.append(span)

    def handle(
        self, time: int, kind: TraceEvent, core: int, line: int, arg
    ) -> None:
        """Fold one lifecycle event (the event slot's arguments)."""
        if kind is TraceEvent.TX_BEGIN:
            self._begin(time, core, "htm")
        elif kind is TraceEvent.LOCK_BEGIN:
            self._begin(time, core, arg or "lock")
        elif kind is TraceEvent.TX_COMMIT:
            self._close(time, core, "commit", arg)
        elif kind is TraceEvent.TX_ABORT:
            self._close(time, core, "abort", arg)
        else:
            span = self._open.get(core)
            if kind is TraceEvent.REJECT:
                if span is not None:
                    span.nacks += 1
                    self._mark(span, time, f"nack by core{arg}")
                else:
                    self._instant(time, core, f"nack by core{arg}")
            elif kind is TraceEvent.WAKEUP:
                if span is not None:
                    span.wakeups += int(arg or 0)
                self._instant(time, core, f"wakeup x{arg}")
            elif kind is TraceEvent.OVERFLOW:
                if span is not None:
                    span.overflows += 1
                    self._mark(span, time, f"overflow line={line:#x}")
            elif kind is TraceEvent.SPILL:
                if span is not None:
                    span.spills += 1
                    self._mark(span, time, f"spill line={line:#x}")
            elif kind is TraceEvent.FALLBACK:
                self._instant(time, core, "fallback entry")
            elif kind is TraceEvent.SWITCH_OK:
                if span is not None:
                    span.switched = True
                    span.mode = "htm->stl"
                    self._mark(span, time, "switched to STL")
            elif kind is TraceEvent.SWITCH_ATTEMPT:
                if span is not None:
                    self._mark(span, time, "STL application denied")
        if kind in _SAMPLE_KINDS:
            self._sample(time)

    def _instant(self, time: int, core: int, label: str) -> None:
        if len(self.instants) < self.CAPACITY:
            self.instants.append((time, core, label))
        else:
            self.dropped += 1

    def _sample(self, time: int) -> None:
        machine = self.machine
        if machine is None or time == self._last_sample_time:
            return
        self._last_sample_time = time
        memsys = machine.memsys
        live = sum(
            len(tx.read_set) + len(tx.write_set) for tx in memsys.tx_states
        )
        sig = memsys.of_rd_sig.popcount + memsys.of_wr_sig.popcount
        if len(self.counter_samples) < self.CAPACITY:
            self.counter_samples.append((time, live, sig))

    # -- finalization / queries ----------------------------------------

    def close(self, end_time: Optional[int] = None) -> None:
        """Close any still-open span (truncated or failed runs)."""
        for span in self._open.values():
            span.end = end_time if end_time is not None else span.start
        self._open.clear()

    def committed(self) -> List[TxSpan]:
        return [s for s in self.spans if s.outcome == "commit"]

    def aborted(self) -> List[TxSpan]:
        return [s for s in self.spans if s.outcome == "abort"]

    def cores(self) -> List[int]:
        return sorted({s.core for s in self.spans})

    def summary(self) -> Dict[str, object]:
        by_outcome: Dict[str, int] = {}
        for s in self.spans:
            by_outcome[s.outcome] = by_outcome.get(s.outcome, 0) + 1
        return {
            "spans": len(self.spans),
            "by_outcome": by_outcome,
            "nacks": sum(s.nacks for s in self.spans),
            "instants": len(self.instants),
            "counter_samples": len(self.counter_samples),
            "dropped": self.dropped,
        }
