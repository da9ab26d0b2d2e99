"""The transaction-lifecycle event vocabulary.

Each lifecycle site calls its component's ``_emit(time, kind, core,
line, arg)`` slot (see :mod:`repro.telemetry.session`).  ``line`` is
the cache line of ``REJECT``, ``OVERFLOW`` and ``SPILL``, else -1;
``arg`` is the abort reason value (``TX_ABORT``), commit kind
(``TX_COMMIT``), rejecting holder core (``REJECT``), pending-waiter
count (``WAKEUP``), ``"granted"``/``"denied"`` (``SWITCH_*``) or the
entered mode (``LOCK_BEGIN``: ``"tl"``, ``"fallback"`` or ``"cgl"``).

Kept out of :mod:`repro.telemetry` (which re-exports it) so the
components that emit events do not import the telemetry package.
"""

from __future__ import annotations

from enum import Enum


class TraceEvent(str, Enum):
    """Machine-level lifecycle events passed to the event slots."""

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
