"""Per-core transactional state: mode flags, read/write sets, write buffer.

Modes mirror the paper's flags:

* ``HTM`` — speculative transaction (plain best-effort HTM).
* ``TL`` — *Transactional Lock*: the fallback path running under the
  HTMLock mechanism (entered via ``hlbegin`` after taking the fallback
  lock); irrevocable, tracks read/write sets for conflict detection.
* ``STL`` — *Switched Transactional Lock*: an HTM transaction that
  proactively switched into HTMLock mode under the switchingMode
  mechanism; irrevocable, did **not** take the fallback lock.
* ``FALLBACK`` — the classic best-effort fallback path (lock held, no
  set tracking; everything it touches is a plain access).

Functional versioning is publish-on-commit: speculative stores
accumulate *deltas* in :attr:`TxState.write_buffer` and are applied to
the committed memory image at commit time, so requester-wins aborts can
discard them without undo.  Lock-mode (TL/STL/FALLBACK) stores are
applied immediately — those transactions cannot abort.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Dict, Set


class TxMode(Enum):
    NONE = auto()
    HTM = auto()
    TL = auto()
    STL = auto()
    FALLBACK = auto()

    @property
    def is_speculative(self) -> bool:
        return self is TxMode.HTM

    @property
    def is_lock_mode(self) -> bool:
        """True for the irrevocable HTMLock modes (TL/STL)."""
        return self in (TxMode.TL, TxMode.STL)

    @property
    def in_transaction(self) -> bool:
        return self is not TxMode.NONE


#: Priority value that outranks every speculative transaction — the paper
#: assigns the HTMLock-mode transaction "the highest global priority".
LOCK_PRIORITY = 1 << 60


class TxState:
    """Transactional bookkeeping for one core."""

    __slots__ = (
        "core",
        "mode",
        "read_set",
        "write_set",
        "write_buffer",
        "attempt_seq",
        "insts_in_attempt",
        "attempt_start",
        "aborted",
        "abort_reason",
        "switch_attempted",
        "switched",
        "last_write_count",
        "pending_anchor",
        "pending_steps",
        "pending_alloc",
        "committing",
        "engine",
    )

    def __init__(self, core: int, engine=None) -> None:
        self.core = core
        #: The event engine whose ``now_vtime`` orders a same-cycle
        #: query against an elided compute boundary (see
        #: :meth:`insts_at`); only read while a burst is pending.
        self.engine = engine
        self.mode = TxMode.NONE
        self.read_set: Set[int] = set()
        self.write_set: Set[int] = set()
        self.write_buffer: Dict[int, int] = {}
        #: Monotonic id of the current attempt; in-flight responses from a
        #: dead attempt are ignored by comparing against this.
        self.attempt_seq = 0
        self.insts_in_attempt = 0
        self.attempt_start = 0
        self.aborted = False
        self.abort_reason = None
        self.switch_attempted = False
        self.switched = False
        #: Write-set size captured at abort time (rollback cost model).
        self.last_write_count = 0
        #: Lazily-billed compute burst in flight: the burst's elided
        #: computes retire at ``pending_anchor + offset`` for each
        #: ``(offset, n)`` step but are only folded into
        #: :attr:`insts_in_attempt` when the burst event fires.  The
        #: first step was allocated at ``pending_alloc``, each later one
        #: at its predecessor's boundary.  ``None`` anchor means no
        #: burst in flight, keeping :meth:`insts_at` a plain field read.
        self.pending_anchor = None
        self.pending_steps = ()
        self.pending_alloc = 0
        #: An HTM attempt that has published its writes and waits out
        #: the commit latency.  The classic fallback's lock write still
        #: marks it aborted, but it commits all the same, so telemetry
        #: reports no abort for it.
        self.committing = False

    # -- lifecycle -----------------------------------------------------

    def begin(self, mode: TxMode, now: int) -> None:
        if self.mode is not TxMode.NONE:
            raise RuntimeError(
                f"core {self.core}: nested transaction begin in {self.mode}"
            )
        self.mode = mode
        self.read_set.clear()
        self.write_set.clear()
        self.write_buffer.clear()
        self.attempt_seq += 1
        self.insts_in_attempt = 0
        self.attempt_start = now
        self.aborted = False
        self.abort_reason = None
        self.switch_attempted = False
        self.switched = False
        self.pending_anchor = None
        self.pending_steps = ()
        self.committing = False

    def switch_to_stl(self) -> None:
        """SwitchingMode success: HTM -> STL keeping all current state."""
        if self.mode is not TxMode.HTM:
            raise RuntimeError("only an HTM transaction can switch to STL")
        self.mode = TxMode.STL
        self.switched = True

    def clear(self) -> None:
        """Leave transactional mode (after commit or abort handling)."""
        self.mode = TxMode.NONE
        self.read_set.clear()
        self.write_set.clear()
        self.write_buffer.clear()
        self.aborted = False
        self.abort_reason = None
        self.pending_anchor = None
        self.pending_steps = ()

    def insts_at(self, now: int) -> int:
        """Instructions retired by cycle ``now`` in the current attempt.

        With a compute burst in flight this adds the elided computes
        the one-op layout would already have billed: that layout bills
        a compute's ``n`` instructions when the op's event *fires* (at
        ``anchor + off``), before sleeping ``n`` cycles.  A boundary at
        ``now`` counts only if its event would have fired before the
        current one, i.e. was allocated at a virtual time below the
        engine's ``now_vtime`` (the rule
        :meth:`~repro.sim.cpu.CPU.note_external_abort` uses), so the
        insts-based conflict priority sees exactly the one-op values.
        """
        anchor = self.pending_anchor
        total = self.insts_in_attempt
        if anchor is None:
            return total
        valloc = self.pending_alloc
        for off, n in self.pending_steps:
            b = anchor + off
            if b > now or (b == now and valloc >= self.engine.now_vtime):
                break
            total += n
            valloc = b
        return total

    def mark_aborted(self, reason) -> None:
        self.aborted = True
        if self.abort_reason is None:
            self.abort_reason = reason

    # -- set tracking ----------------------------------------------------

    def track_read(self, line: int) -> None:
        self.read_set.add(line)

    def track_write(self, line: int) -> None:
        self.write_set.add(line)

    def buffer_store(self, addr: int, delta: int) -> None:
        self.write_buffer[addr] = self.write_buffer.get(addr, 0) + delta

    @property
    def footprint_lines(self) -> int:
        return len(self.read_set | self.write_set)
