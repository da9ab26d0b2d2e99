"""The tiled CMP machine: cores + memory subsystem + mechanisms, wired.

``Machine`` owns the event engine and every architectural component and
provides the cross-component operations the paper's mechanisms need:
external victim aborts, the subscribe-lock broadcast kill (classic
fallback), and wake-up delivery for the recovery mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import (
    ConfigError,
    DeadlockError,
    EventBudgetError,
    LivelockError,
    SimulationError,
)
from repro.common.events import TraceEvent
from repro.common.params import SystemParams
from repro.common.stats import AbortReason, CoreStats
from repro.coherence.memsys import MemorySystem
from repro.core.conflict import build_conflict_manager
from repro.core.hlarbiter import HLArbiter
from repro.core.policies import SystemSpec
from repro.core.wakeup import WakeupTable
from repro.htm.fallback import LockManager
from repro.htm.txstate import TxMode
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology
from repro.sim.cpu import CPU
from repro.sim.engine import SimEngine

#: Lock variables live far outside any workload's address space.
_LOCK_LINE = 1 << 40


class Machine:
    """One simulated run's worth of hardware."""

    def __init__(
        self,
        params: SystemParams,
        spec: SystemSpec,
        programs: List[list],
        seed: int = 0,
        fault_plan=None,
        watchdog=None,
    ) -> None:
        self.params = params
        self.spec = spec
        self.engine = SimEngine()
        self.topology = MeshTopology(params.network)
        self.network = NetworkModel(self.topology, params.network)
        if params.network.model_contention:
            # Close over the engine, not the machine: no cycle.
            engine = self.engine
            self.network.clock = lambda: engine.now
        self.manager = build_conflict_manager(spec)
        self.memsys = MemorySystem(
            params,
            self.topology,
            self.network,
            self.manager,
            self.tile_of_core,
        )
        self.memsys.abort_core = self.abort_externally
        self.wakeups = WakeupTable()
        self.hl_arbiter = HLArbiter(
            self.engine, self.network, self.tile_of_core, arbiter_tile=0
        )
        lock_home = self.topology.home_tile(_LOCK_LINE)
        self.fallback_lock = LockManager(
            "fallback" if spec.use_htm else "cgl",
            _LOCK_LINE,
            lock_home,
            self.engine,
            self.network,
            self.tile_of_core,
        )
        #: CGL and the fallback path serialize on the same variable — the
        #: paper compares "coarse-grained locking with the same
        #: granularity of transactions".
        self.global_lock = self.fallback_lock
        self.reset(programs, seed, fault_plan, watchdog)

    def reset(
        self,
        programs: List[list],
        seed: int = 0,
        fault_plan=None,
        watchdog=None,
    ) -> None:
        """Set the run state for running ``programs``.

        The only code that sets run state: the constructor builds the
        geometry and wiring and then calls this, and the machine pool
        calls it to reuse a machine and to scrub one it parks.  Every
        component's ``reset()`` sets its counters, tables and event and
        chaos slots; the CPUs and per-core stats, whose objects escape
        into the returned :class:`RunStats`, are built anew.  So a reset
        machine equals a fresh one by construction: no telemetry session,
        every event slot None, and the fault injector (when ``fault_plan``
        perturbs anything) wired before the CPUs that read it.
        """
        if len(programs) > self.params.num_cores:
            raise ConfigError(
                f"{len(programs)} threads > {self.params.num_cores} cores"
            )
        self.seed = seed
        #: Forward-progress watchdog config (repro.resilience.watchdog.
        #: WatchdogConfig or None); armed in run().
        self.watchdog = watchdog
        self._wd_commits = -1
        self._wd_stall_t0 = 0
        #: Replay coordinates carried on structured errors; harnesses
        #: (fuzz, sweeps) add their own keys (case, workload, ...).
        self.replay_info: Dict[str, object] = {
            "seed": seed,
            "system": self.spec.name,
            "fault_plan": fault_plan.name if fault_plan is not None else None,
        }
        #: Telemetry event slot: ``emit(time, kind, core, line, arg)``
        #: while a :class:`~repro.telemetry.session.Telemetry` session
        #: is attached, else None.  The session sets it and the CPUs'
        #: and memory system's slots alike.
        self._emit = None
        self.engine.reset()
        self.network.reset()
        self.core_stats = [CoreStats() for _ in range(len(programs))]
        self.manager.reset()
        self.memsys.reset(self.core_stats)
        self.wakeups.reset()
        self.hl_arbiter.reset()
        self.fallback_lock.reset()
        #: Deterministic fault injector (repro.resilience.faults); None
        #: when no plan — or an *empty* plan — is armed, so default runs
        #: pay nothing and time identically.
        self.injector = None
        if fault_plan is not None and not fault_plan.empty:
            self.injector = fault_plan.injector(seed)
            self.injector.wire(self)
        self.cpus: List[CPU] = [
            CPU(i, self.tile_of_core(i), self, prog, seed)
            for i, prog in enumerate(programs)
        ]
        self.memsys.tx_states = [cpu.tx for cpu in self.cpus]
        self._finished = 0
        self.finish_times: List[Optional[int]] = [None] * len(programs)

    # ------------------------------------------------------------------

    @staticmethod
    def tile_of_core(core: int) -> int:
        # Static, so the components it is handed hold no machine.
        return core  # one core per tile, identity placement

    def teardown(self) -> None:
        """Break the machine's reference cycles; it is unusable after.

        The CPUs, the queued events and parked callbacks, the
        victim-abort hook and an attached telemetry session point back
        at the machine.  A machine that is dropped instead of going
        back to a pool calls this, so refcounting frees it at once
        rather than the cyclic collector some time later: a reset to no
        programs drops all of them but the victim-abort hook, which is
        unwired.
        The per-core stats, which a run's :class:`RunStats` shares, are
        replaced, not cleared.
        """
        self.reset(())
        self.memsys.abort_core = MemorySystem._unwired_abort

    # ------------------------------------------------------------------
    # Cross-component operations
    # ------------------------------------------------------------------

    def abort_externally(self, core: int, reason: AbortReason, now: int) -> None:
        """Kill ``core``'s speculative transaction (conflict loser)."""
        cpu = self.cpus[core]
        tx = cpu.tx
        if tx.mode.is_lock_mode:
            raise SimulationError(
                f"attempt to abort irrevocable core {core} in {tx.mode}"
            )
        if tx.mode is not TxMode.HTM or tx.aborted:
            return
        if self._emit is not None and not tx.committing:
            self._emit(now, TraceEvent.TX_ABORT, core, arg=reason.value)
        tx.mark_aborted(reason)
        self.memsys.discard_tx(core)
        self.drain_wakeups(core, now)
        self.wakeups.discard_waiter(core)
        cpu.force_unpark(now)
        # If not parked, the CPU's in-flight continuation observes the
        # abort flag at its next event; a compute burst may need an
        # elided observation point re-created.
        cpu.note_external_abort(now)

    def abort_all_htm(self, reason: AbortReason, exclude: int) -> None:
        """The classic fallback lock acquisition: every subscriber dies."""
        now = self.engine.now
        for cpu in self.cpus:
            if cpu.core != exclude and cpu.tx.mode is TxMode.HTM:
                self.abort_externally(cpu.core, reason, now)

    def drain_wakeups(self, holder: int, now: int) -> None:
        """Commit/abort-time flush of the holder's wake-up table entry."""
        if self._emit is not None:
            # Counted before the drain: waiters whose wake-up the fault
            # injector drops were still pending on ``holder``.
            pending = self.wakeups.pending_for(holder)
            if pending:
                self._emit(now, TraceEvent.WAKEUP, holder, arg=pending)
        waiters = self.wakeups.drain(holder)
        if not waiters:
            return
        self.core_stats[holder].wakeups_sent += len(waiters)
        holder_tile = self.tile_of_core(holder)
        for w in waiters:
            latency = self.network.control_latency(
                holder_tile, self.tile_of_core(w.core)
            )
            self.engine.schedule_after_nocancel(max(1, latency), w.resume)

    def core_finished(self, core: int, now: int) -> None:
        self.finish_times[core] = now
        self._finished += 1

    # ------------------------------------------------------------------

    @property
    def all_done(self) -> bool:
        return self._finished == len(self.cpus)

    # ------------------------------------------------------------------
    # Telemetry (repro.telemetry) — pull-model metric publication
    # ------------------------------------------------------------------

    def publish_telemetry(self, registry) -> None:
        """Publish every component's counters into ``registry``.

        Called by :meth:`repro.telemetry.session.Telemetry.finalize`;
        safe at any point (during or after a run) and has no effect on
        machine state, so it can also drive live mid-run snapshots.
        """
        self.engine.publish_telemetry(registry)
        self.network.publish_telemetry(registry)
        self.memsys.publish_telemetry(registry)
        self.wakeups.publish_telemetry(registry)
        self.hl_arbiter.publish_telemetry(registry)
        self.fallback_lock.publish_telemetry(registry)
        nack = registry.scope("htm.nack")
        total_received = 0
        total_issued = 0
        for core, cs in enumerate(self.core_stats):
            cs.publish_telemetry(registry.scope(f"core.{core}"))
            nack.set(f"received.core.{core}", cs.rejects_received)
            nack.set(f"issued.core.{core}", cs.rejects_issued)
            total_received += cs.rejects_received
            total_issued += cs.rejects_issued
        nack.set("received.total", total_received)
        nack.set("issued.total", total_issued)
        run = registry.scope("run")
        run.set("cores", len(self.cpus))
        run.set("system", self.spec.name)
        run.set("seed", self.seed)
        run.set("finished_cores", self._finished)

    # ------------------------------------------------------------------
    # Forward-progress watchdog (repro.resilience.watchdog)
    # ------------------------------------------------------------------

    def diagnose(self) -> list:
        """Per-core progress snapshot (for LivelockError and debugging)."""
        from repro.resilience.watchdog import diagnose_machine

        return diagnose_machine(self)

    def _livelock(self, reason: str) -> LivelockError:
        return LivelockError(
            reason,
            now=self.engine.now,
            cores=self.diagnose(),
            replay=self.replay_info,
            pending_events=self.engine.pending(),
        )

    def _watchdog_tick(self, now: int) -> None:
        if self.all_done:
            return  # stop rescheduling; let the heap drain
        commits = sum(cs.commits for cs in self.core_stats)
        if commits > self._wd_commits:
            self._wd_commits = commits
            self._wd_stall_t0 = now
        elif now - self._wd_stall_t0 >= self.watchdog.horizon:
            raise self._livelock(
                f"no commit progress for {now - self._wd_stall_t0} cycles "
                f"(stall horizon {self.watchdog.horizon})"
            )
        self.engine.schedule_after_nocancel(
            self.watchdog.period, self._watchdog_tick
        )

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Execute to completion; returns total execution cycles."""
        for cpu in self.cpus:
            cpu.start()
        if self.watchdog is not None:
            self.engine.schedule_after_nocancel(
                self.watchdog.period, self._watchdog_tick
            )
        try:
            self.engine.run(until=max_cycles)
        except EventBudgetError as exc:
            raise self._livelock(
                f"event budget exceeded ({exc.max_events} events)"
            ) from exc
        if not self.all_done:
            stuck = [c.core for c in self.cpus if not c.done]
            raise DeadlockError(
                f"cores {stuck} never finished "
                f"(t={self.engine.now}, pending={self.engine.pending()})"
            )
        end = max(t for t in self.finish_times if t is not None)
        # Barrier: early finishers idle until the last thread arrives.
        from repro.common.stats import TimeCat

        for core, t in enumerate(self.finish_times):
            if t is not None and end > t:
                self.core_stats[core].add_time(TimeCat.NON_TRAN, end - t)
        return end
