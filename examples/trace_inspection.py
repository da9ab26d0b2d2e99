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
* the hottest contended lines, from the session's per-line REJECT
  counts;
* the lifecycle event counts (``events.*``).

The session is the machine's one observer: ``attach`` points the
machine's event slots at it and ``detach`` clears them.

Run:  python examples/trace_inspection.py
"""

from repro.common.params import typical_params
from repro.harness.systems import get_system
from repro.sim.machine import Machine
from repro.telemetry import Telemetry
from repro.workloads.registry import get_workload

TRACE_PATH = "trace_inspection.trace.json"


def main() -> None:
    telemetry = Telemetry()
    build = get_workload("intruder").build(threads=6, scale=0.15, seed=42)
    machine = Machine(
        typical_params(), get_system("LockillerTM"), build.programs, seed=42
    )
    telemetry.attach(machine)
    cycles = machine.run()
    failures = build.verify(machine.memsys.memory)
    assert not failures, failures
    telemetry.finalize(None, build)

    # -- the transaction timeline ------------------------------------
    timeline = telemetry.timeline
    summary = timeline.summary()
    print(f"run finished in {cycles} cycles\n")
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
    for line, hits in telemetry.reject_lines.most_common(5):
        print(f"  line {line:#x}: {hits} rejected requests")

    print("\nevent counts:")
    for name, count in reg.query("events").items():
        print(f"  {name[len('events.'):]:15s} {count}")

    telemetry.detach()  # every event slot is None again
    assert machine._emit is None


if __name__ == "__main__":
    main()
