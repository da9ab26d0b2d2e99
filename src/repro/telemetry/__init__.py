"""repro.telemetry — observability for the simulator.

Four layers, composable a-la-carte:

- :mod:`repro.telemetry.registry` — hierarchical metrics (counters,
  gauges, log2 histograms) under dotted namespaces (``core.N.*``,
  ``dir.bank.N.*``, ``noc.link.X_Y.*``, ``htm.nack.*``, ``lock_tx.*``).
- :mod:`repro.telemetry.events` — the per-machine event bus
  (:class:`TelemetryHub`) that points the components' declared event
  slots at its fan-out only while subscribers exist; re-exports
  :class:`TraceEvent`.
- :mod:`repro.telemetry.timeline` — per-transaction span
  reconstruction; :mod:`repro.telemetry.chrometrace` renders spans as
  Chrome trace-event JSON for Perfetto.
- :mod:`repro.telemetry.sinks` — atomic JSON/JSONL artifact writers
  and runcache-sibling artifact paths.

:class:`Telemetry` (in :mod:`repro.telemetry.session`) is the facade
that `run_workload(RunConfig(..., telemetry=...))` consumes.  See
docs/OBSERVABILITY.md for the namespace catalog and overhead numbers.
"""

from repro.telemetry.chrometrace import (
    chrome_trace,
    timeline_summary_lines,
    validate_chrome_trace,
)
from repro.telemetry.events import TelemetryEvent, TelemetryHub, TraceEvent
from repro.telemetry.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    Scope,
)
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.telemetry.sinks import (
    ARTIFACT_SUFFIXES,
    artifact_path,
    read_jsonl,
    write_json_atomic,
    write_jsonl_atomic,
)
from repro.telemetry.timeline import TimelineBuilder, TxSpan

__all__ = [
    "ARTIFACT_SUFFIXES",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "Scope",
    "Telemetry",
    "TelemetryEvent",
    "TelemetryHub",
    "TimelineBuilder",
    "TraceEvent",
    "TxSpan",
    "artifact_path",
    "chrome_trace",
    "read_jsonl",
    "timeline_summary_lines",
    "validate_chrome_trace",
    "write_json_atomic",
    "write_jsonl_atomic",
]
