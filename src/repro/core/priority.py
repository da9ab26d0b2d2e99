"""Transaction priority providers (§III-A, *user-defined priority*).

The recovery mechanism only requires a consistent global order; the paper
adopts a **dynamic, committed-instructions-based** priority: a
transaction's priority is the number of instructions it has committed in
its *current attempt*, so a defeated transaction restarts at the lowest
priority and cannot immediately friendly-fire the transaction that beat
it.  Ties are broken by the smaller core id winning (Fig. 4).

LosaTM's *progression-based* priority (elapsed cycles in the attempt) is
provided for the LosaTM-SAFU comparison system; it grows even while a
transaction stalls, which is why the paper calls the insts-based variant
"more representative" of actual work done.

HTMLock-mode (TL/STL) transactions always report ``LOCK_PRIORITY``, the
globally-highest value (§III-B: the lock transaction must win every
conflict to stay consistent without rollback).
"""

from __future__ import annotations

from repro.core.policies import PriorityKind
from repro.htm.txstate import LOCK_PRIORITY, TxMode, TxState


class PriorityProvider:
    """Base: maps a core's transactional state to a priority value."""

    kind = PriorityKind.NONE

    def priority_of(self, tx: TxState, now: int) -> int:
        # Identity checks instead of mode.is_lock_mode: this runs once
        # per holder per access and the enum-property chain showed up.
        mode = tx.mode
        if mode is TxMode.TL or mode is TxMode.STL:
            return LOCK_PRIORITY
        return self._speculative_priority(tx, now)

    def _speculative_priority(self, tx: TxState, now: int) -> int:
        raise NotImplementedError

    @staticmethod
    def beats(
        pri_a: int, core_a: int, pri_b: int, core_b: int
    ) -> bool:
        """True when (pri_a, core_a) outranks (pri_b, core_b).

        Higher priority wins; on a tie the smaller core id wins (§III-A:
        "when carrying the same priority, the processor ID is compared,
        with smaller IDs having greater priority").
        """
        if pri_a != pri_b:
            return pri_a > pri_b
        return core_a < core_b


class NoPriority(PriorityProvider):
    """All speculative transactions tie; the id tie-break decides."""

    kind = PriorityKind.NONE

    def _speculative_priority(self, tx: TxState, now: int) -> int:
        return 0


class InstsBasedPriority(PriorityProvider):
    """Committed instructions in the current attempt (the paper's policy)."""

    kind = PriorityKind.INSTS

    def _speculative_priority(self, tx: TxState, now: int) -> int:
        # insts_at folds in the lazily-billed computes of a burst in
        # flight, so the value matches the one-op layout.
        return tx.insts_at(now)


class ProgressionPriority(PriorityProvider):
    """Elapsed cycles in the current attempt (LosaTM-style)."""

    kind = PriorityKind.PROGRESSION

    def _speculative_priority(self, tx: TxState, now: int) -> int:
        return max(0, now - tx.attempt_start)


class StaticPriority(PriorityProvider):
    """Fixed, pre-assigned priority (§III-A's static alternative).

    Priorities are assigned once per core (here: descending with core
    id, so core 0 is the strongest).  No priority inversion can occur,
    but the order never reflects work done — the fairness ablation
    (``bench_ext_static_priority.py``) quantifies the resulting
    starvation of the low-priority cores.
    """

    kind = PriorityKind.STATIC

    def __init__(self, num_cores: int = 1024) -> None:
        self._num_cores = num_cores

    def _speculative_priority(self, tx: TxState, now: int) -> int:
        return self._num_cores - tx.core


def make_priority_provider(kind: PriorityKind) -> PriorityProvider:
    if kind is PriorityKind.INSTS:
        return InstsBasedPriority()
    if kind is PriorityKind.PROGRESSION:
        return ProgressionPriority()
    if kind is PriorityKind.STATIC:
        return StaticPriority()
    return NoPriority()
