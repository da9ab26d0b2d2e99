"""repro.telemetry — observability for the simulator.

:class:`Telemetry` (in :mod:`repro.telemetry.session`) is the one
observer of a run: ``run_workload(RunConfig(..., telemetry=...))``
points the machine's declared event slots at it, and it feeds three
layers:

- :mod:`repro.telemetry.registry` — hierarchical metrics (counters,
  gauges, log2 histograms) under dotted namespaces (``events.*``,
  ``core.N.*``, ``dir.bank.N.*``, ``noc.link.X_Y.*``, ``htm.nack.*``,
  ``lock_tx.*``).
- :mod:`repro.telemetry.timeline` — per-transaction span
  reconstruction; :mod:`repro.telemetry.chrometrace` renders spans as
  Chrome trace-event JSON for Perfetto.
- :mod:`repro.telemetry.sinks` — the atomic JSON artifact writer and
  runcache-sibling artifact paths.

The session also counts REJECT events per line (``reject_lines``), the
run's contention profile.  :class:`TraceEvent` is re-exported from
:mod:`repro.common.events`.  See docs/OBSERVABILITY.md for the
namespace catalog and overhead numbers.
"""

from repro.common.events import TraceEvent
from repro.telemetry.chrometrace import (
    chrome_trace,
    timeline_summary_lines,
    validate_chrome_trace,
)
from repro.telemetry.registry import Counter, Gauge, MetricsRegistry, Scope
from repro.telemetry.session import Telemetry
from repro.telemetry.sinks import (
    ARTIFACT_SUFFIXES,
    artifact_path,
    write_json_atomic,
)
from repro.telemetry.timeline import TimelineBuilder, TxSpan

__all__ = [
    "ARTIFACT_SUFFIXES",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Scope",
    "Telemetry",
    "TimelineBuilder",
    "TraceEvent",
    "TxSpan",
    "artifact_path",
    "chrome_trace",
    "timeline_summary_lines",
    "validate_chrome_trace",
    "write_json_atomic",
]
