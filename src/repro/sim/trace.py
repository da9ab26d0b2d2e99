"""Execution tracing and contention profiling.

Real simulator releases live or die by their observability; this module
provides an opt-in trace recorder for the machine's transaction
lifecycle and conflict events, plus a per-line contention profile.  The
recorder is **off by default** and costs nothing when disabled.

The tracer subscribes to the machine's
:class:`~repro.telemetry.events.TelemetryHub`, which points the event
slots the machine, memory system and CPUs declare at one fan-out shared
by every consumer (tracer, timeline, metrics).  That makes
:meth:`Tracer.attach` idempotent — attaching twice to the same machine
is a no-op — and :meth:`Tracer.detach` exact: when the last hub
subscriber leaves, every slot is None again.

Typical use::

    machine = Machine(params, spec, programs)
    tracer = Tracer(capacity=50_000)
    tracer.attach(machine)
    machine.run()
    print(tracer.render_tail(20))
    hot = tracer.contention_profile().hottest(5)
    tracer.detach()   # event slots cleared
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import TelemetryEvent, TelemetryHub, TraceEvent

__all__ = [
    "ContentionProfile",
    "TraceEvent",
    "TraceRecord",
    "Tracer",
]


@dataclass(frozen=True)
class TraceRecord:
    time: int
    event: TraceEvent
    core: int
    detail: str = ""
    line: int = -1

    def render(self) -> str:
        extra = f" line={self.line:#x}" if self.line >= 0 else ""
        detail = f" {self.detail}" if self.detail else ""
        return f"[{self.time:>10d}] core{self.core:<2d} {self.event.value}{extra}{detail}"


@dataclass
class ContentionProfile:
    """Per-line conflict counts gathered from reject/abort events."""

    conflicts: Counter

    def hottest(self, n: int = 10) -> List[Tuple[int, int]]:
        return self.conflicts.most_common(n)

    @property
    def total(self) -> int:
        return sum(self.conflicts.values())


def _detail_for(ev: TelemetryEvent) -> str:
    """Human-readable detail string, matching the classic tracer output."""
    kind = ev.kind
    if kind is TraceEvent.REJECT:
        return f"by core{ev.arg}"
    if kind is TraceEvent.WAKEUP:
        return f"{ev.arg} waiter(s)"
    if ev.arg is None:
        return ""
    return str(ev.arg)


class Tracer:
    """Bounded in-memory trace of machine-level events."""

    def __init__(
        self,
        capacity: int = 100_000,
        events: Optional[set] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.filter = events  # None = record everything
        self.records: List[TraceRecord] = []
        self.dropped = 0
        self._line_conflicts: Counter = Counter()
        self._machine = None

    # ------------------------------------------------------------------

    def record(
        self,
        time: int,
        event: TraceEvent,
        core: int,
        detail: str = "",
        line: int = -1,
    ) -> None:
        if self.filter is not None and event not in self.filter:
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time, event, core, detail, line))

    def note_conflict(self, line: int) -> None:
        self._line_conflicts[line] += 1

    def _on_event(self, ev: TelemetryEvent) -> None:
        if ev.kind is TraceEvent.REJECT and ev.line >= 0:
            self.note_conflict(ev.line)
        self.record(ev.time, ev.kind, ev.core, _detail_for(ev), ev.line)

    # ------------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._machine is not None

    def attach(self, machine) -> "Tracer":
        """Wire this tracer into a machine (before ``machine.run()``).

        Idempotent: attaching again to the *same* machine is a no-op.
        Attaching to a different machine while attached raises — one
        tracer buffers one machine's history; detach first.
        """
        if self._machine is machine:
            return self
        if self._machine is not None:
            raise RuntimeError("tracer already attached")
        self._machine = machine
        TelemetryHub.of(machine).subscribe(self._on_event)
        return self

    def detach(self) -> None:
        """Unsubscribe; the hub clears the machine's event slots when
        the last subscriber leaves.  Safe to call when not attached.
        Recorded history is kept."""
        if self._machine is None:
            return
        TelemetryHub.of(self._machine).unsubscribe(self._on_event)
        self._machine = None

    # ------------------------------------------------------------------

    def contention_profile(self) -> ContentionProfile:
        return ContentionProfile(Counter(self._line_conflicts))

    def counts(self) -> Dict[TraceEvent, int]:
        out: Counter = Counter(r.event for r in self.records)
        return dict(out)

    def events_for_core(self, core: int) -> List[TraceRecord]:
        return [r for r in self.records if r.core == core]

    def between(self, start: int, end: int) -> List[TraceRecord]:
        return [r for r in self.records if start <= r.time <= end]

    def render_tail(self, n: int = 50) -> str:
        tail = self.records[-n:]
        lines = [r.render() for r in tail]
        if self.dropped:
            lines.append(f"... ({self.dropped} records dropped at capacity)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.records)
