"""The transaction-lifecycle event vocabulary.

Kept out of :mod:`repro.telemetry` (which re-exports it) so the
components that emit events do not import the telemetry package.
"""

from __future__ import annotations

from enum import Enum


class TraceEvent(str, Enum):
    """Machine-level lifecycle events observable on the bus."""

    TX_BEGIN = "tx_begin"
    TX_COMMIT = "tx_commit"
    TX_ABORT = "tx_abort"
    REJECT = "reject"
    WAKEUP = "wakeup"
    FALLBACK = "fallback"
    SWITCH_ATTEMPT = "switch_attempt"
    SWITCH_OK = "switch_ok"
    OVERFLOW = "overflow"
    SPILL = "spill"
    #: An irrevocable (TL/FALLBACK/CGL) critical section began executing.
    LOCK_BEGIN = "lock_begin"
