"""In-order core model executing micro-op programs.

One :class:`CPU` per hardware thread.  Each memory op or fault is an
event: it goes through :class:`~repro.coherence.memsys.MemorySystem`
and schedules its continuation after the returned latency plus the
compute cycles that precede the next one (compute runs are folded into
that delay, see :class:`CPU`).  Critical sections run under
one of four regimes, selected by the machine's :class:`SystemSpec`:

* **CGL** — acquire the global lock, execute non-speculatively, release.
* **best-effort HTM** (Listing 1) — speculative attempts with the
  requester-wins or recovery conflict manager; the fallback path takes
  the lock and (without HTMLock) kills every running transaction.
* **HTMLock** (Listing 1 greyed lines) — the fallback path enters TL
  mode: irrevocable but set-tracked, coexisting with HTM transactions.
* **switchingMode** (Listing 2 / Fig. 6) — an HTM transaction hitting a
  capacity overflow may switch to STL mode via LLC arbitration.

Execution-time billing follows the paper's categories; see
:mod:`repro.common.stats`.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.events import TraceEvent
from repro.common.rng import SplitMix64, derive_seed
from repro.common.stats import AbortReason, CoreStats, TimeCat
from repro.coherence.memsys import GRANT, REJECT, AccessResult
from repro.core.policies import RequesterPolicy
from repro.htm.isa import (
    OP_COMPUTE,
    OP_FAULT,
    OP_STORE,
    Txn,
)
from repro.htm.txstate import TxMode, TxState

#: TxMode members as module constants: an enum attribute lookup costs
#: several times a global read on the per-access hot path.
_NONE = TxMode.NONE
_HTM = TxMode.HTM
_TL = TxMode.TL
_STL = TxMode.STL
_FALLBACK = TxMode.FALLBACK
#: The irrevocable HTMLock modes (``TxMode.is_lock_mode``, inlined).
_LOCK_MODES = (_TL, _STL)
#: Committing mode -> (time category, telemetry commit kind).
_COMMIT_KIND = {
    _HTM: (TimeCat.HTM, "htm"),
    _STL: (TimeCat.SWITCH_LOCK, "switched"),
    _TL: (TimeCat.LOCK, "lock"),
    _FALLBACK: (TimeCat.LOCK, "lock"),
}


class CPU:
    """One in-order, single-issue core.

    A segment runs as a sequence of bursts (``Segment._bursts``, from
    :func:`~repro.htm.isa.coalesce_ops`): each burst is a run of
    OP_COMPUTE folded into the delay of one continuation, which then
    issues the burst's terminal op.  Two steppers walk the bursts and
    share the control flow around them (entry, retry, abort, fallback,
    commit): :meth:`_span_step` runs plain segments and CGL sections,
    :meth:`_tx_step` runs transactions in every mode.

    Same-cycle order against other cores' events is fixed by the
    virtual time (engine ``vtime``) each continuation carries:

    * an elided compute chain passes the time its last compute would
      have been scheduled at, so the continuation orders where the
      one-op layout's last compute event does;
    * a plain/CGL memop or fault with no compute after it orders its
      continuation at *completion* (``vdelay = lat``);
    * a transactional op orders its continuation at *issue*, and so
      does an OP_COMPUTE terminal in either stepper (it only appears in
      the one-op-per-burst layout, see
      :func:`~repro.htm.isa.op_layout`).

    Elided computes of a transaction are billed lazily: they retire at
    their boundaries for the insts-based priority
    (``TxState.insts_at``), and an external abort re-creates the
    boundary the one-op layout would have observed it at
    (:meth:`note_external_abort`).  The one-op layout, run through the
    same steppers, is the oracle for all of this
    (``tests/test_burst_equivalence.py``, ``repro.sim.fuzz``).
    """

    def __init__(self, core: int, tile: int, machine, program, seed: int) -> None:
        self.core = core
        self.tile = tile
        self.machine = machine
        self.engine = machine.engine
        self.memsys = machine.memsys
        self.spec = machine.spec
        self.htm_params = machine.params.htm
        self.program = program
        self.stats: CoreStats = machine.core_stats[core]
        self.tx = TxState(core, self.engine)
        self.rng = SplitMix64(derive_seed(seed, "cpu", core))

        self.seg_idx = 0
        #: Index of the current burst in ``_bursts[seg_idx]``.
        self.op_idx = 0
        self.done = False
        self.finish_time: Optional[int] = None

        self.retries_left = 0
        self.capacity_retries_left = 0
        self.attempts_this_txn = 0
        self.rejects_this_txn = 0
        self._attempt_t0 = 0
        #: Start of the current plain span or CGL critical section.  A
        #: CPU has one continuation chain in flight, so the steppers
        #: read it here instead of carrying it in a per-event closure.
        self._span_t0 = 0
        #: Fault injector (repro.resilience.faults.FaultInjector) or
        #: None; built by the Machine before CPUs are constructed.
        self._chaos = machine.injector
        #: (attempt_seq, park_seq) while parked on a wake-up, else None.
        self._parked: Optional[Tuple[int, int]] = None
        self._park_seq = 0
        #: Token of the wake-up timeout armed by the current park; the
        #: wake-up or an external abort cancels it, so a park that ends
        #: early leaves no event behind.
        self._park_timeout = None
        #: Fault ops already taken once (page mapped after first trip).
        self._faults_taken: Set[Tuple[int, int]] = set()
        #: Telemetry event slot, set while a telemetry session is
        #: attached (see :mod:`repro.telemetry.session`).
        self._emit = None

        self._bursts = [seg._bursts for seg in program]
        #: The CPU's one cancellable continuation token, used for bursts
        #: with elided compute boundaries to checkpoint.  Live while such
        #: a continuation is in flight; after it fires, re-armed for the
        #: next one (:meth:`SimEngine.schedule_after_virtual`); dropped
        #: (None) when cancelled, since its dead entry may still be in
        #: the heap.
        self._burst_token = None

    # ------------------------------------------------------------------
    # Billing helpers
    # ------------------------------------------------------------------

    def _bill(self, cat: TimeCat, cycles: int) -> None:
        # CoreStats.add_time without its call: empty slices are skipped.
        if cycles > 0:
            self.stats.time[cat] += cycles

    # ------------------------------------------------------------------
    # Top-level program driver
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.engine.schedule_after_nocancel(0, self._advance)

    def _advance(self, now: int) -> None:
        if self.seg_idx >= len(self.program):
            self.done = True
            self.finish_time = now
            self.machine.core_finished(self.core, now)
            return
        seg = self.program[self.seg_idx]
        if isinstance(seg, Txn):
            self._txn_entry(now)
        else:
            self._span_t0 = now
            self._start_segment(now)

    def _segment_done(self, now: int) -> None:
        self.seg_idx += 1
        self.op_idx = 0
        if self._chaos is not None:
            stall = self._chaos.stall()
            if stall > 0:
                # Transient core stall (noisy neighbour, DVFS glitch):
                # billed as plain time, outside any critical section.
                self._bill(TimeCat.NON_TRAN, stall)
                self.engine.schedule_after_nocancel(stall, self._advance)
                return
        self._advance(now)

    def _start_segment(self, now: int) -> None:
        """Run the current segment's first burst from ``now``.

        Leading computes become one scheduled continuation; a leading
        memop, or an empty segment, issues in this same event, as the
        one-op layout does.  Inside a transaction (classic fallback) the
        continuation goes through :meth:`_advance_burst`, which bills
        the elided computes lazily.
        """
        self.op_idx = 0
        bursts = self._bursts[self.seg_idx]
        in_tx = self.tx.mode is not _NONE
        if bursts and bursts[0][0]:
            if in_tx:
                self._advance_burst(now, 0)
            else:
                c, _steps, _op, c_last = bursts[0]
                self.engine.schedule_after_virtual_nocancel(
                    c, self._span_step, c - c_last
                )
        elif in_tx:
            self._tx_step(now)
        else:
            self._span_step(now)

    # ------------------------------------------------------------------
    # Plain segments and CGL critical sections
    # ------------------------------------------------------------------

    def _span_step(self, now: int) -> None:
        """Issue burst ``op_idx`` of a plain segment or CGL section."""
        bursts = self._bursts[self.seg_idx]
        idx = self.op_idx
        op = bursts[idx][2] if idx < len(bursts) else None
        if op is None:
            # End of the segment, or a trailing compute-only burst whose
            # cycles elapsed getting here: done in this same event.
            if isinstance(self.program[self.seg_idx], Txn):
                self._cgl_release(now)
            else:
                self._bill(TimeCat.NON_TRAN, now - self._span_t0)
                self._segment_done(now)
            return
        kind = op[0]
        if kind == OP_FAULT:
            lat = vlat = self.htm_params.trap_latency
        elif kind == OP_COMPUTE:
            lat = op[1]
            vlat = 0
        else:
            is_write = kind == OP_STORE
            res = self.memsys.access(self.core, op[1], is_write, now)
            status = res.status
            if status == REJECT and not self.spec.is_cgl:
                # Plain access bounced off an HTMLock-mode transaction:
                # hardware retry after a pause.
                self.engine.schedule_after_nocancel(
                    res.latency + self.htm_params.plain_retry_delay,
                    self._span_step,
                )
                return
            if status != GRANT:  # pragma: no cover - CGL has no holders
                raise SimulationError("plain or CGL access was not granted")
            if is_write:
                self.stats.stores += 1
                self.memsys.functional_store(self.core, op[1], op[2])
            else:
                self.stats.loads += 1
            lat = vlat = res.latency
        # Schedule the next burst's terminal ``lat`` + computes away.
        idx += 1
        self.op_idx = idx
        if idx < len(bursts):
            c, _steps, _op, c_last = bursts[idx]
            if c:
                lat += c
                vlat = lat - c_last
        self.engine.schedule_after_virtual_nocancel(
            lat, self._span_step, vlat
        )

    # ------------------------------------------------------------------
    # Critical-section entry
    # ------------------------------------------------------------------

    def _txn_entry(self, now: int) -> None:
        if self.spec.is_cgl:
            self._cgl_start(now)
            return
        self.retries_left = self.htm_params.max_retries
        self.capacity_retries_left = self.htm_params.capacity_retries
        self.attempts_this_txn = 0
        self.rejects_this_txn = 0
        self._tx_try(now)

    # -- CGL -------------------------------------------------------------

    def _cgl_start(self, now: int) -> None:
        lock = self.machine.global_lock
        lock.acquire(
            self.core, now, lambda t: self._cgl_locked(t, wait_t0=now)
        )

    def _cgl_locked(self, now: int, wait_t0: int) -> None:
        if self._emit is not None:
            self._emit(now, TraceEvent.LOCK_BEGIN, self.core, arg="cgl")
        self._bill(TimeCat.WAITLOCK, now - wait_t0)
        self.stats.tx_attempts += 1
        self._span_t0 = now
        self._start_segment(now)

    def _cgl_release(self, now: int) -> None:
        """End of the critical section: release the lock and bill it."""
        if self._emit is not None:
            self._emit(now, TraceEvent.TX_COMMIT, self.core, arg="lock")
        crit = now - self._span_t0
        self.machine.global_lock.release(self.core, now)
        self._bill(TimeCat.LOCK, crit)
        self.stats.commit_latency_hist.record(crit)
        self.stats.commits_lock += 1
        self._segment_done(now)

    # -- HTM attempt (Listing 1 loop) -------------------------------------

    def _tx_try(self, now: int) -> None:
        lock = self.machine.fallback_lock
        if not self.spec.htmlock and lock.held:
            # Listing 1 line 8-9: the lock is subscribed; spin until free.
            lock.wait_free(
                self.core, lambda t: self._tx_try_after_wait(t, now)
            )
            return
        self._xbegin(now)

    def _tx_try_after_wait(self, now: int, wait_t0: int) -> None:
        self._bill(TimeCat.WAITLOCK, now - wait_t0)
        self._tx_try(now)

    def _xbegin(self, now: int) -> None:
        if self._emit is not None:
            self._emit(now, TraceEvent.TX_BEGIN, self.core)
        self.tx.begin(_HTM, now)
        self.stats.tx_attempts += 1
        self._attempt_t0 = now
        self.op_idx = 0
        self._advance_burst(now, self.htm_params.xbegin_latency)

    def _advance_burst(self, now: int, lat: int) -> None:
        """Schedule the continuation issuing burst ``op_idx``'s terminal.

        ``lat`` is the latency of the op (or begin) before the burst;
        the burst's elided computes extend the delay.  When boundaries
        are elided the entry is cancellable (an external abort may need
        to checkpoint at one of them) and the burst is exposed on the
        TxState for lazy instruction billing; otherwise the continuation
        orders at issue and takes the no-allocation path.
        """
        bursts = self._bursts[self.seg_idx]
        idx = self.op_idx
        steps = ()
        c = 0
        c_last = 0
        if idx < len(bursts):
            c, steps, _op, c_last = bursts[idx]
        if steps:
            tx = self.tx
            tx.pending_anchor = now + lat
            tx.pending_steps = steps
            tx.pending_alloc = now
            self._burst_token = self.engine.schedule_after_virtual(
                lat + c, self._tx_step, lat + c - c_last, self._burst_token
            )
        else:
            self.engine.schedule_after_nocancel(lat, self._tx_step)

    def _tx_step(self, now: int) -> None:
        """Issue burst ``op_idx`` of the current transaction."""
        tx = self.tx
        if tx.pending_anchor is not None:
            # Fold the lazily-billed computes of the burst that just
            # completed (every boundary is <= now here).  Offsets are
            # prefix sums, so the last step's ``offset + n`` is the
            # burst's compute total.
            off, n = tx.pending_steps[-1]
            tx.insts_in_attempt += off + n
            tx.pending_anchor = None
            tx.pending_steps = ()
        if tx.aborted:
            self._rollback(now)
            return
        bursts = self._bursts[self.seg_idx]
        idx = self.op_idx
        if idx >= len(bursts):
            self._tx_commit(now)
            return
        op = bursts[idx][2]
        if op is None:
            # Trailing compute-only burst: commit in this same event.
            self.op_idx = idx + 1
            self._tx_commit(now)
            return
        kind = op[0]
        if kind == OP_FAULT:
            self._tx_fault(now, op)
            return
        if kind == OP_COMPUTE:
            # One-op layout: the compute retires at issue.
            self.op_idx = idx + 1
            tx.insts_in_attempt += op[1]
            self._advance_burst(now, op[1])
            return
        is_write = kind == OP_STORE
        res = self.memsys.access(self.core, op[1], is_write, now)
        if res.status == GRANT:
            if is_write:
                self.stats.stores += 1
                if tx.mode is _HTM:
                    # Inline TxState.buffer_store: speculative deltas.
                    buf = tx.write_buffer
                    addr = op[1]
                    buf[addr] = buf.get(addr, 0) + op[2]
                else:
                    self.memsys.functional_store(self.core, op[1], op[2])
            else:
                self.stats.loads += 1
            tx.insts_in_attempt += 1
            # _advance_burst inlined on the burst tuple in hand (the
            # access moved neither the segment nor the burst index).
            lat = res.latency
            idx += 1
            self.op_idx = idx
            if idx < len(bursts):
                c, steps, _op, c_last = bursts[idx]
                if steps:
                    tx.pending_anchor = now + lat
                    tx.pending_steps = steps
                    tx.pending_alloc = now
                    self._burst_token = self.engine.schedule_after_virtual(
                        lat + c,
                        self._tx_step,
                        lat + c - c_last,
                        self._burst_token,
                    )
                    return
            self.engine.schedule_after_nocancel(lat, self._tx_step)
        elif res.status == REJECT:
            self._on_reject(now, res)
        else:
            self._on_overflow(now)

    def note_external_abort(self, now: int) -> None:
        """Re-create the abort observation point a burst elided.

        In the one-op layout an externally-aborted transaction notices
        its abort flag at its next scheduled event.  With the burst's
        per-compute continuations elided, find the first boundary that
        event would still have fired at (strictly after ``now``, or at
        ``now`` if the boundary's virtual allocation time says it would
        have fired after the aborting event) and schedule the rollback
        checkpoint there, carrying the boundary's original virtual time
        so same-cycle ordering of the rollback — billing, backoff RNG
        draw, retry scheduling — matches the one-op layout.
        """
        tx = self.tx
        anchor = tx.pending_anchor
        if anchor is None:
            # Parked, blocked on arbitration, or the continuation is an
            # ordinary event: the regular observation paths cover it.
            return
        vprev = tx.pending_alloc
        target = None
        for off, _n in tx.pending_steps:
            b = anchor + off
            if b > now or (b == now and vprev >= self.engine.now_vtime):
                target = (b, vprev)
                break
            vprev = b
        if target is None:
            return  # past every elided boundary: the live event observes
        b, vtime = target
        self._drop_burst()
        tx.pending_anchor = None
        tx.pending_steps = ()
        attempt_seq = tx.attempt_seq
        self.engine.schedule_after_virtual_nocancel(
            b - now,
            lambda t: self._abort_checkpoint(t, attempt_seq),
            vtime - now,
        )

    def _abort_checkpoint(self, now: int, attempt_seq: int) -> None:
        tx = self.tx
        if (
            self.done
            or tx.attempt_seq != attempt_seq
            or not tx.aborted
            or tx.mode is not _HTM
        ):
            return
        self._rollback(now)

    # -- faults ------------------------------------------------------------

    def _tx_fault(self, now: int, op) -> None:
        if self.tx.mode is _HTM:
            key = (self.seg_idx, self.op_idx)
            persistent = bool(op[1])
            if persistent or key not in self._faults_taken:
                # §III-C: the paper does not apply switchingMode to
                # exceptions; the extension flag evaluates that deferred
                # design (attempt an STL switch so the trap can be taken
                # non-speculatively).
                if (
                    self.spec.switching_on_faults
                    and not self.tx.switch_attempted
                ):
                    self.tx.switch_attempted = True
                    self.stats.switch_attempts += 1
                    attempt_seq = self.tx.attempt_seq
                    self.machine.hl_arbiter.request_stl(
                        self.core,
                        lambda t, granted: self._stl_result(
                            t,
                            granted,
                            attempt_seq,
                            deny_reason=AbortReason.FAULT,
                        ),
                    )
                    return
                self._faults_taken.add(key)
                self._local_abort(now, AbortReason.FAULT)
                return
            self.op_idx += 1
            self.tx.insts_in_attempt += 1
            self._advance_burst(now, 1)
        else:
            # Lock modes are non-speculative: take the trap and continue.
            self.op_idx += 1
            self._advance_burst(now, self.htm_params.trap_latency)

    # -- rejection handling (§III-A requester options) ----------------------

    def _on_reject(self, now: int, res: AccessResult) -> None:
        if self.tx.mode in _LOCK_MODES:  # pragma: no cover
            raise SimulationError("lock-mode transaction was rejected")
        self.rejects_this_txn += 1
        chaos = self._chaos
        if chaos is not None:
            if chaos.escape_exceeded(self.rejects_this_txn):
                # Bounded-retry escape hatch: too many rejects in this
                # transaction under fault injection — zero the retry
                # budget so the abort degrades to the lock fallback.
                self.retries_left = 0
                reason = (
                    AbortReason.CONFLICT_LOCK
                    if res.reject_by_lock
                    else AbortReason.CONFLICT_HTM
                )
                self.engine.schedule_after_nocancel(
                    res.latency, lambda t: self._local_abort(t, reason)
                )
                return
            if chaos.drop_nack():
                # The NACK was lost in transit: the requester never
                # learns it was rejected and re-issues the access after
                # a hardware timeout.
                self.engine.schedule_after_nocancel(
                    res.latency + chaos.plan.nack_loss_delay, self._tx_step
                )
                return
        policy = self.spec.requester_policy
        if policy is RequesterPolicy.SELF_ABORT:
            reason = (
                AbortReason.CONFLICT_LOCK
                if res.reject_by_lock
                else AbortReason.CONFLICT_HTM
            )
            self.engine.schedule_after_nocancel(
                res.latency, lambda t: self._local_abort(t, reason)
            )
        elif policy is RequesterPolicy.RETRY_LATER:
            delay = (
                res.latency
                + self.htm_params.retry_delay
                + self.rng.below(self.htm_params.retry_delay)
            )
            self.engine.schedule_after_nocancel(delay, self._tx_step)
        else:  # WAIT_WAKEUP
            self._park(now, res.reject_holder)

    def _park(self, now: int, holder: int) -> None:
        self._park_seq += 1
        park_seq = self._park_seq
        attempt_seq = self.tx.attempt_seq
        self._parked = (attempt_seq, park_seq)
        self.machine.wakeups.register(
            holder,
            self.core,
            attempt_seq,
            lambda t: self._unpark(t, park_seq),
        )
        if (
            self._chaos is not None
            and self._chaos.plan.disable_wakeup_timeout
        ):
            return  # test-only: strand the waiter if its wake-up is lost
        self._park_timeout = self.engine.schedule_after(
            self.htm_params.wakeup_timeout, self._park_expired
        )

    def _end_park(self) -> None:
        self._parked = None
        token = self._park_timeout
        if token is not None:
            self._park_timeout = None
            token.cancel()

    def _unpark(self, now: int, park_seq: int) -> None:
        """A wake-up message arrived; stale ones (an earlier park, an
        aborted attempt, a finished core) are ignored."""
        if self._parked is None:
            return
        attempt_seq, cur_park = self._parked
        if cur_park != park_seq or attempt_seq != self.tx.attempt_seq:
            return
        self._end_park()
        self._tx_step(now)  # re-issues the same op (or handles abort)

    def _park_expired(self, now: int) -> None:
        """The wake-up never came.  Every other way out of a park
        cancels this event, so it always belongs to the current one."""
        self._end_park()  # the fired token is consumed: no cancel
        self.stats.wakeup_timeouts += 1
        self._tx_step(now)

    def force_unpark(self, now: int) -> None:
        """External abort while parked: resume so the abort is processed."""
        if self._parked is not None:
            self._end_park()
            self.engine.schedule_after_nocancel(1, self._tx_step)

    @property
    def is_parked(self) -> bool:
        """True while waiting on a wake-up message (diagnostics)."""
        return self._parked is not None

    # -- overflow / switchingMode (Fig. 6) ---------------------------------

    def _on_overflow(self, now: int) -> None:
        tx = self.tx
        if tx.mode in _LOCK_MODES:  # pragma: no cover - memsys spills inline
            raise SimulationError("lock-mode overflow escaped the spill path")
        if self.spec.switching and not tx.switch_attempted:
            tx.switch_attempted = True
            self.stats.switch_attempts += 1
            attempt_seq = tx.attempt_seq
            self.machine.hl_arbiter.request_stl(
                self.core,
                lambda t, granted: self._stl_result(t, granted, attempt_seq),
            )
            return
        self._local_abort(now, AbortReason.OVERFLOW)

    def _stl_result(
        self,
        now: int,
        granted: bool,
        attempt_seq: int,
        deny_reason: AbortReason = AbortReason.OVERFLOW,
    ) -> None:
        emit = self._emit
        if emit is not None:
            if granted:
                emit(now, TraceEvent.SWITCH_OK, self.core, arg="granted")
            else:
                emit(now, TraceEvent.SWITCH_ATTEMPT, self.core, arg="denied")
        tx = self.tx
        stale = tx.attempt_seq != attempt_seq or tx.mode is not _HTM
        if tx.aborted or stale:
            # Killed while the application was in flight: give the slot
            # back if it was granted, then roll back as usual.
            if granted:
                self.machine.hl_arbiter.release(self.core)
            if tx.aborted and not stale:
                self._rollback(now)
            return
        if granted:
            self.stats.switch_successes += 1
            tx.switch_to_stl()
            self._tx_step(now)  # re-issue the blocked op in STL mode
        else:
            if deny_reason is AbortReason.FAULT:
                # The exception will be taken on the retry/fallback path;
                # one-shot faults are then resolved.
                self._faults_taken.add((self.seg_idx, self.op_idx))
            self._local_abort(now, deny_reason)

    # -- abort & retry -------------------------------------------------------

    def _local_abort(self, now: int, reason: AbortReason) -> None:
        tx = self.tx
        if tx.mode is not _HTM:  # pragma: no cover
            raise SimulationError(f"local abort in mode {tx.mode}")
        if not tx.aborted:
            if self._emit is not None:
                self._emit(
                    now, TraceEvent.TX_ABORT, self.core, arg=reason.value
                )
            tx.mark_aborted(reason)
            self.memsys.discard_tx(self.core)
            self.machine.drain_wakeups(self.core, now)
        self._rollback(now)

    def _drop_burst(self) -> None:
        """Cancel an in-flight burst continuation and drop its token."""
        tok = self._burst_token
        if tok is not None and not tok.cancelled:
            tok.cancel()
            self._burst_token = None

    def _rollback(self, now: int) -> None:
        tx = self.tx
        self._drop_burst()  # defensive: an in-flight burst dies with us
        reason = tx.abort_reason or AbortReason.EXPLICIT
        self.stats.aborts[reason] += 1
        self._bill(TimeCat.ABORTED, now - self._attempt_t0)
        penalty = (
            self.htm_params.abort_base_penalty
            + self.htm_params.abort_per_write_penalty * tx.last_write_count
        )
        tx.clear()
        self.attempts_this_txn += 1
        if reason is AbortReason.OVERFLOW:
            # Capacity is near-deterministic: a short separate budget,
            # then the fallback path.
            self.capacity_retries_left -= 1
            if self.capacity_retries_left < 0:
                self._bill(TimeCat.ROLLBACK, penalty)
                self.engine.schedule_after_nocancel(penalty, self._go_fallback)
                return
        else:
            # Conflict and exception aborts burn Listing 1's num_retries
            # (a persistent fault exhausts the budget attempt by attempt).
            self.retries_left -= 1
        if self.retries_left <= 0:
            self._bill(TimeCat.ROLLBACK, penalty)
            self.engine.schedule_after_nocancel(penalty, self._go_fallback)
            return
        shift = min(self.attempts_this_txn, 6)
        cap = min(
            self.htm_params.backoff_base << shift, self.htm_params.backoff_cap
        )
        backoff = self.rng.below(cap) if cap > 0 else 0
        total = penalty + backoff
        self._bill(TimeCat.ROLLBACK, total)
        self.engine.schedule_after_nocancel(total, self._tx_try)

    # -- fallback path --------------------------------------------------------

    def _go_fallback(self, now: int) -> None:
        if self._emit is not None:
            self._emit(now, TraceEvent.FALLBACK, self.core)
        self.stats.fallback_entries += 1
        lock = self.machine.fallback_lock
        lock.acquire(
            self.core, now, lambda t: self._fallback_locked(t, wait_t0=now)
        )

    def _fallback_locked(self, now: int, wait_t0: int) -> None:
        if self.spec.htmlock:
            # TL entry additionally needs the LLC's authorization
            # (contention with a live STL transaction, §III-C).
            self.machine.hl_arbiter.request_tl(
                self.core, lambda t: self._enter_tl(t, wait_t0)
            )
        else:
            if self._emit is not None:
                self._emit(
                    now, TraceEvent.LOCK_BEGIN, self.core, arg="fallback"
                )
            self._bill(TimeCat.WAITLOCK, now - wait_t0)
            # Classic fallback: the lock write kills every subscriber.
            self.machine.abort_all_htm(AbortReason.MUTEX, exclude=self.core)
            self.tx.begin(_FALLBACK, now)
            self.stats.tx_attempts += 1
            self._attempt_t0 = now
            self._start_segment(now)

    def _enter_tl(self, now: int, wait_t0: int) -> None:
        if self._emit is not None:
            self._emit(now, TraceEvent.LOCK_BEGIN, self.core, arg="tl")
        self._bill(TimeCat.WAITLOCK, now - wait_t0)
        self.tx.begin(_TL, now)
        self.stats.tx_attempts += 1
        self._attempt_t0 = now
        self.op_idx = 0
        self._advance_burst(now, self.htm_params.xbegin_latency)

    # -- commit ---------------------------------------------------------------

    def _tx_commit(self, now: int) -> None:
        tx = self.tx
        mode = tx.mode
        latency = self.htm_params.commit_latency
        if mode is _HTM:
            tx.committing = True
            self.memsys.publish(tx)
            self.memsys.retire_tx(self.core)
        elif mode is _STL:
            self.memsys.publish(tx)  # buffered while it was still HTM
            self.memsys.retire_tx(self.core)
            self.machine.hl_arbiter.release(self.core)
        elif mode is _TL:
            self.memsys.retire_tx(self.core)
            self.machine.hl_arbiter.release(self.core)
            self.machine.fallback_lock.release(self.core, now)
        elif mode is _FALLBACK:
            self.machine.fallback_lock.release(self.core, now)
            latency = 1
        else:  # pragma: no cover
            raise SimulationError(f"commit in mode {mode}")
        # Nothing cancels a commit, and the mode holds until
        # _commit_done clears it, so the bound method needs no token and
        # no closure.
        self.engine.schedule_after_nocancel(latency, self._commit_done)

    def _commit_done(self, now: int) -> None:
        cat, kind = _COMMIT_KIND[self.tx.mode]
        if self._emit is not None:
            self._emit(now, TraceEvent.TX_COMMIT, self.core, arg=kind)
        self._bill(cat, now - self._attempt_t0)
        self.stats.commit_latency_hist.record(now - self._attempt_t0)
        if kind == "htm":
            self.stats.commits_htm += 1
        elif kind == "switched":
            self.stats.commits_switched += 1
        else:
            self.stats.commits_lock += 1
        self.tx.clear()
        self.machine.drain_wakeups(self.core, now)
        self._segment_done(now)
