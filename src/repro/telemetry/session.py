"""The telemetry session: the one observer of a run.

:class:`~repro.sim.machine.Machine`,
:class:`~repro.coherence.memsys.MemorySystem` and every
:class:`~repro.sim.cpu.CPU` each declare one event slot, ``_emit``,
None by default; each lifecycle site runs ``if self._emit is not None:
self._emit(time, kind, core, line, arg)`` before it changes any state.
``Telemetry.attach`` points every slot at the session's handler, which
counts ``events.<kind>``, tallies REJECTs per line and folds the event
into the :class:`TimelineBuilder`; ``detach`` (and ``Machine.reset``)
set them back to None.  An unobserved machine pays one attribute test
per lifecycle site and nothing on the access fast path.  Observation
never schedules events or mutates architectural state, so an observed
run is cycle-for-cycle identical to a bare one.

At ``finalize`` time the session asks every component to publish its
counters into the :class:`MetricsRegistry` (pull model, so the
simulator's hot paths carry no metric calls).  Typical use, via
:func:`repro.sim.runner.run_workload`::

    tel = Telemetry()
    stats = run_workload(RunConfig(spec, 4, 0.05, seed=3,
                                   telemetry=tel))
    tel.registry.snapshot()      # flat {name: value}
    tel.trace_dict("intruder")   # Chrome trace-event JSON (Perfetto)
    tel.reject_lines.most_common(5)  # hottest contended lines

``RunConfig(telemetry=None)`` is the unobserved run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.common.events import TraceEvent
from repro.telemetry.chrometrace import chrome_trace, validate_chrome_trace
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sinks import write_json_atomic
from repro.telemetry.timeline import TimelineBuilder


class Telemetry:
    """Registry, timeline and per-line reject counts for one run."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.timeline = TimelineBuilder()
        #: Line -> REJECT events on it: the run's contention profile.
        self.reject_lines: Counter = Counter()
        self._machine = None
        self._finalized = False

    # -- lifecycle -----------------------------------------------------

    def attach(self, machine) -> "Telemetry":
        """Point ``machine``'s event slots at this session.

        Idempotent per machine.  A machine has at most one observer, so
        attaching to a machine another session observes raises, as does
        attaching this session to a second machine.
        """
        if self._machine is machine:
            return self
        if self._machine is not None:
            raise RuntimeError(
                "telemetry session already attached to another machine"
            )
        if machine._emit is not None:
            raise RuntimeError("machine already has a telemetry session")
        self._machine = machine
        self.timeline.machine = machine
        self._set_slots(machine, self._on_event)
        return self

    def detach(self) -> None:
        """Clear the machine's event slots; safe when not attached."""
        machine = self._machine
        if machine is None:
            return
        self._set_slots(machine, None)
        self.timeline.machine = None
        self._machine = None

    @staticmethod
    def _set_slots(machine, emit) -> None:
        machine._emit = machine.memsys._emit = emit
        for cpu in machine.cpus:
            cpu._emit = emit

    def _on_event(
        self, time: int, kind: TraceEvent, core: int, line: int = -1, arg=None
    ) -> None:
        self.registry.counter(f"events.{kind.value}").inc()
        if kind is TraceEvent.REJECT:
            self.reject_lines[line] += 1
        self.timeline.handle(time, kind, core, line, arg)

    def finalize(self, stats=None, build=None) -> "Telemetry":
        """Pull component metrics into the registry; close the timeline.

        Call once after the run: ``stats`` is the finished
        :class:`~repro.common.stats.RunStats`, ``build`` the
        :class:`~repro.workloads.base.WorkloadBuild` (both optional —
        whatever is given gets published).  The machine stays attached
        until :meth:`detach`, so artifacts can still be rendered.
        """
        if self._finalized:
            return self
        self._finalized = True
        machine = self._machine
        reg = self.registry
        end_time = None
        if stats is not None:
            end_time = stats.execution_cycles
        elif machine is not None:
            end_time = machine.engine.now
        self.timeline.close(end_time)
        if machine is not None:
            machine.publish_telemetry(reg)
        if stats is not None:
            run = reg.scope("run")
            run.set("execution_cycles", stats.execution_cycles)
            run.set("commits", stats.commits)
            run.set("tx_attempts", stats.tx_attempts)
            run.set("sanity_failures", len(stats.sanity_failures))
        if build is not None:
            wl = reg.scope("workload")
            wl.set("name", build.name)
            wl.set("programs", len(build.programs))
            for key, value in sorted(build.meta.items()):
                if isinstance(value, (bool, int, float, str)):
                    wl.set(f"meta.{key}", value)
        return self

    # -- artifacts -----------------------------------------------------

    def metrics_dict(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def trace_dict(self, run_label: str = "repro") -> Dict[str, object]:
        doc = chrome_trace(self.timeline, run_label=run_label)
        problems = validate_chrome_trace(doc)
        if problems:  # pragma: no cover - renderer bug guard
            raise AssertionError(
                f"generated invalid chrome trace: {problems[:3]}"
            )
        return doc

    def write_metrics(self, path: str) -> str:
        return write_json_atomic(path, self.metrics_dict(), indent=2)

    def write_trace(self, path: str, run_label: str = "repro") -> str:
        return write_json_atomic(path, self.trace_dict(run_label))
