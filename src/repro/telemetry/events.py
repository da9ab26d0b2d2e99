"""The telemetry event bus: declared event slots, many consumers.

:class:`~repro.sim.machine.Machine`,
:class:`~repro.coherence.memsys.MemorySystem` and every
:class:`~repro.sim.cpu.CPU` each declare one slot, ``_emit``, None by
default; each lifecycle site runs ``if self._emit is not None:
self._emit(time, kind, core, line, arg)`` before it changes any state.
``TelemetryHub`` points every slot at its fan-out while it has
subscribers (tracer, timeline, live metric counters) and clears them
when the last one leaves, so an un-instrumented machine pays one
attribute test per lifecycle site and nothing on the access fast path.
Observation never schedules events or mutates architectural state, so
an instrumented run is cycle-for-cycle identical to a bare one.
:class:`TraceEvent` (from :mod:`repro.common.events`) is re-exported.
"""

from __future__ import annotations

from typing import Callable, List

from repro.common.events import TraceEvent


class TelemetryEvent:
    """One structured lifecycle record delivered to subscribers.

    ``arg`` is event-specific: the abort reason value (``TX_ABORT``),
    commit kind (``TX_COMMIT``), rejecting holder core (``REJECT``),
    pending-waiter count (``WAKEUP``), ``"granted"``/``"denied"``
    (``SWITCH_*``), or the entered mode (``LOCK_BEGIN``: ``"tl"``,
    ``"fallback"`` or ``"cgl"``).
    """

    __slots__ = ("time", "kind", "core", "line", "arg")

    def __init__(
        self, time: int, kind: TraceEvent, core: int, line: int = -1, arg=None
    ) -> None:
        self.time = time
        self.kind = kind
        self.core = core
        self.line = line
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TelemetryEvent(t={self.time}, {self.kind.value}, "
            f"core={self.core}, line={self.line}, arg={self.arg!r})"
        )


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryHub:
    """Per-machine fan-out of lifecycle events.

    Use :meth:`of` to get the machine's hub (created on first use and
    cached on the machine object).  ``subscribe`` points every
    component's event slot at :meth:`_emit`; ``unsubscribe`` sets them
    all back to None once the last subscriber leaves, so attach/detach
    cycles are safe and repeatable.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._subs: List[Subscriber] = []

    @classmethod
    def of(cls, machine) -> "TelemetryHub":
        hub = machine._telemetry_hub
        if hub is None:
            hub = machine._telemetry_hub = cls(machine)
        return hub

    @property
    def wired(self) -> bool:
        return bool(self._subs)

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    def subscribe(self, sub: Subscriber) -> None:
        """Add ``sub``; idempotent for an already-subscribed callback."""
        if sub in self._subs:
            return
        self._subs.append(sub)
        self._set_slots(self._emit)

    def unsubscribe(self, sub: Subscriber) -> None:
        """Remove ``sub``; the last removal clears every slot."""
        if sub in self._subs:
            self._subs.remove(sub)
        if not self._subs:
            self._set_slots(None)

    def _set_slots(self, emit) -> None:
        machine = self.machine
        machine._emit = machine.memsys._emit = emit
        for cpu in machine.cpus:
            cpu._emit = emit

    def _emit(
        self, time: int, kind: TraceEvent, core: int, line: int = -1, arg=None
    ) -> None:
        ev = TelemetryEvent(time, kind, core, line, arg)
        for sub in self._subs:
            sub(ev)
