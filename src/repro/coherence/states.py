"""MESI stable states as cheap int constants.

Transient states of the blocking directory protocol are modeled by the
per-line ``busy_until`` serialization window in :class:`~repro.coherence.
directory.Directory` — while a line's transaction is in flight the
directory is "in a transient state" and later requests for the same line
queue behind it, exactly the effect the SLICC transient states produce.
"""

from __future__ import annotations


class MESI:
    """Stable cache-line states (per private L1)."""

    I = 0  # noqa: E741 - canonical protocol letter
    S = 1
    E = 2
    M = 3

    NAMES = {0: "I", 1: "S", 2: "E", 3: "M"}

    @staticmethod
    def name(state: int) -> str:
        return MESI.NAMES[state]
