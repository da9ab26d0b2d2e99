#!/usr/bin/env python
"""Observe a contended run: metrics, transaction timeline, Perfetto trace.

Runs a small high-contention workload on LockillerTM with a
``repro.telemetry.Telemetry`` session attached, then shows the
debugging loop you would actually use when a workload misbehaves:

* the per-transaction timeline (spans with abort reasons and NACK
  annotations), written to ``trace_inspection.trace.json`` — open it at
  https://ui.perfetto.dev (or ``chrome://tracing``) to see one track
  per core plus live-set / signature-fill counter tracks;
* the hierarchical metrics registry (``core.N.*``, ``htm.nack.*``,
  ``noc.*``, ``lock_tx.*``);
* the classic event tracer, which now rides the same telemetry event
  bus — note ``attach`` is idempotent and ``detach`` restores the
  machine's callbacks.

Run:  python examples/trace_inspection.py
"""

from repro.common.params import typical_params
from repro.harness.systems import get_system
from repro.sim.machine import Machine
from repro.sim.trace import TraceEvent, Tracer
from repro.telemetry import Telemetry
from repro.workloads.registry import get_workload

TRACE_PATH = "trace_inspection.trace.json"


def main() -> None:
    telemetry = Telemetry()
    tracer = Tracer(capacity=200_000)

    build = get_workload("intruder").build(threads=6, scale=0.15, seed=42)
    machine = Machine(
        typical_params(), get_system("LockillerTM"), build.programs, seed=42
    )
    # Both consumers subscribe to the machine's telemetry hub, which
    # feeds them from the components' event slots; attaching either
    # twice is a harmless no-op.
    telemetry.attach(machine)
    tracer.attach(machine)
    tracer.attach(machine)  # idempotent: no second subscription, no error
    cycles = machine.run()
    failures = build.verify(machine.memsys.memory)
    assert not failures, failures
    telemetry.finalize(None, build)

    print(f"run finished in {cycles} cycles; {len(tracer)} trace records\n")

    # -- the transaction timeline ------------------------------------
    timeline = telemetry.timeline
    summary = timeline.summary()
    print(
        f"timeline: {summary['spans']} spans, outcomes {summary['by_outcome']},"
        f" {summary['nacks']} NACKs inside transactions"
    )
    longest = max(timeline.spans, key=lambda s: s.duration)
    print(
        f"longest span: core{longest.core} tx#{longest.index} "
        f"[{longest.start}, {longest.end}] {longest.label()} "
        f"(nacks={longest.nacks}, wakeups={longest.wakeups})"
    )
    telemetry.write_trace(TRACE_PATH, run_label="intruder/LockillerTM")
    print(
        f"\nPerfetto trace written to {TRACE_PATH} — open it at "
        "https://ui.perfetto.dev\n"
    )

    # -- the metrics registry ----------------------------------------
    reg = telemetry.registry
    print(f"metrics registry: {len(reg)} metrics")
    for name in (
        "htm.nack.received.total",
        "htm.wakeup.registered",
        "lock_tx.arbiter.stl_grants",
        "noc.messages_sent",
    ):
        print(f"  {name:32s} {reg.value(name)}")

    print("\nhottest contended lines (by reject events):")
    for line, hits in tracer.contention_profile().hottest(5):
        print(f"  line {line:#x}: {hits} rejected requests")

    counts = tracer.counts()
    print("\nevent counts:")
    for event in TraceEvent:
        if counts.get(event):
            print(f"  {event.value:15s} {counts[event]}")

    print("\nlast 8 trace records:")
    print(tracer.render_tail(8))

    # Restore the machine's callbacks (reverse order, exact originals).
    tracer.detach()
    telemetry.detach()


if __name__ == "__main__":
    main()
