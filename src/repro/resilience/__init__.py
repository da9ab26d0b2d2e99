"""Fault injection, forward-progress watchdog, crash-tolerant harness.

The resilience subsystem answers "does the simulated machine — and the
experiment harness around it — keep its promises under adversity?"
Three layers, all deterministic and all zero-overhead when off:

* :mod:`repro.resilience.faults` — seedable, composable
  :class:`FaultPlan`\\ s injecting interconnect jitter/duplication, lost
  wake-up and NACK messages, transient core stalls, signature
  false-positive storms, and adversarial directory reject storms;
* :mod:`repro.resilience.watchdog` — per-run commit-progress tracking
  raising a structured ``LivelockError`` (per-core diagnostics + replay
  coordinates) instead of the opaque event-budget crash;
* :mod:`repro.resilience.harness` — per-run timeouts, bounded retries
  and quarantine for sweeps and multi-seed campaigns, which resume
  through the run cache.

See ``docs/RESILIENCE.md`` for the guided tour.
"""

from repro.common.errors import (
    CoreDiagnostic,
    EventBudgetError,
    LivelockError,
    RunTimeoutError,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    chaos_monkey,
    core_stalls,
    default_campaign,
    delay_jitter,
    get_plan,
    lossy_delivery,
    nack_storm,
    plan_names,
    signature_storm,
)
from repro.resilience.watchdog import WatchdogConfig, diagnose_machine

__all__ = [
    "CoreDiagnostic",
    "EventBudgetError",
    "FaultInjector",
    "FaultPlan",
    "LivelockError",
    "RunTimeoutError",
    "WatchdogConfig",
    "chaos_monkey",
    "core_stalls",
    "default_campaign",
    "delay_jitter",
    "diagnose_machine",
    "get_plan",
    "lossy_delivery",
    "nack_storm",
    "plan_names",
    "signature_storm",
]
