"""Edge-case tests for the CPU state machine: parked timeouts, stale
wake-ups, retry-later storms, plain-access rejections, deadlock guard."""

from dataclasses import replace

import pytest

from repro.common.errors import DeadlockError
from repro.common.params import SystemParams, typical_params
from repro.common.stats import AbortReason, TimeCat
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from repro.resilience import get_plan
from repro.sim.cpu import CPU
from repro.sim.fuzz import replay_case
from repro.sim.machine import Machine
from conftest import line_addr, make_machine


def params_with(**htm_overrides) -> SystemParams:
    base = typical_params()
    return replace(base, htm=replace(base.htm, **htm_overrides))


class TestWakeupTimeout:
    def test_timeout_guard_fires_for_long_tl_holder(self):
        # Core 0 sits in TL mode on line 1 for far longer than the
        # wake-up timeout; core 1 parks, times out, retries, parks again.
        params = params_with(wakeup_timeout=500)
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1),
                      compute(30000)])]
        prog1 = [
            Plain([compute(2500)]),
            Txn([load(line_addr(1)), store(line_addr(1), 1)]),
        ]
        m = make_machine(
            [prog0, prog1], system="LockillerTM-RWIL", params=params
        )
        m.run()
        assert m.core_stats[1].wakeup_timeouts > 0
        assert m.memsys.memory[line_addr(1)] == 2

    def test_no_timeouts_with_generous_guard(self):
        params = params_with(wakeup_timeout=10_000_000)
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1),
                      compute(5000)])]
        prog1 = [
            Plain([compute(2500)]),
            Txn([load(line_addr(1)), store(line_addr(1), 1)]),
        ]
        m = make_machine(
            [prog0, prog1], system="LockillerTM-RWIL", params=params
        )
        m.run()
        assert m.core_stats[1].wakeup_timeouts == 0

    def test_woken_waiter_leaves_no_live_timeout(self):
        # Core 1 parks behind core 0's TL section and is woken by its
        # commit long before the 10M-cycle guard: the wake-up cancels
        # the guard, so nothing is left queued once both cores finish.
        params = params_with(wakeup_timeout=10_000_000)
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1),
                      compute(5000)])]
        prog1 = [
            Plain([compute(2500)]),
            Txn([load(line_addr(1)), store(line_addr(1), 1)]),
        ]
        m = make_machine(
            [prog0, prog1], system="LockillerTM-RWIL", params=params
        )
        for cpu in m.cpus:
            cpu.start()
        parked = False
        while not m.all_done:
            assert m.engine.step()
            parked = parked or m.cpus[1].is_parked
        assert parked and m.core_stats[0].wakeups_sent == 1
        assert m.core_stats[1].wakeup_timeouts == 0
        assert m.engine.pending() == 0
        assert m.engine.now == max(m.finish_times)


class TestStaleWakeup:
    def test_wakeup_after_finish_is_ignored(self, monkeypatch):
        # Under the nack-storm plan, chaos case 7 delivers a wake-up to
        # core 0 after it has finished its program.  A finished core is
        # never parked, so the stale-park test in _unpark drops it.
        late = []
        unpark = CPU._unpark

        def spy(cpu, now, park_seq):
            if cpu.done:
                late.append((cpu.core, cpu.is_parked))
            unpark(cpu, now, park_seq)

        monkeypatch.setattr(CPU, "_unpark", spy)
        m = replay_case(
            seed=0, case=7, system="LockillerTM", plan=get_plan("nack-storm")
        )
        assert late and all(not parked for _core, parked in late)
        assert all(cpu.done for cpu in m.cpus)
        assert m.memsys.check_quiescent() == []


class TestRetryLater:
    def test_rri_retries_same_op_until_granted(self):
        # Two cores fight over one line under RETRY_LATER; both commit,
        # memory is exact, and at least one retry round occurred.
        def prog(t):
            return [
                Plain([compute(3 + t)]),
                *[
                    Txn([compute(5), load(line_addr(0)),
                         store(line_addr(0), 1), compute(20)])
                    for _ in range(8)
                ],
            ]

        m = make_machine(
            [prog(0), prog(1), prog(2)], system="LockillerTM-RRI"
        )
        m.run()
        assert m.memsys.memory[line_addr(0)] == 24
        assert sum(cs.rejects_received for cs in m.core_stats) > 0
        # RETRY_LATER never parks, so no wake-ups are ever sent.
        assert sum(cs.wakeups_sent for cs in m.core_stats) == 0


class TestPlainRejection:
    def test_plain_access_retries_against_lock_tx(self):
        # Core 0 holds line 1 in TL mode; core 1's *plain* store must
        # bounce (REJECT) and retry until the lock transaction ends.
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1),
                      compute(4000)])]
        prog1 = [Plain([compute(2200), store(line_addr(1), 5)])]
        m = make_machine([prog0, prog1], system="LockillerTM-RWIL")
        m.run()
        assert m.memsys.memory[line_addr(1)] == 6
        assert m.core_stats[1].rejects_received >= 1


class TestBackoffAndPenalty:
    def test_abort_penalty_scales_with_write_set(self):
        # Two baseline machines: victim with a big write set pays a
        # bigger rollback bill than one with a single write.
        def build(writes):
            prog0 = [
                Txn(
                    [compute(50)]
                    + [store(line_addr(10 + i), 1) for i in range(writes)]
                    + [compute(3000)]
                )
            ]
            prog1 = [
                Plain([compute(500)]),
                Txn([store(line_addr(10), 1)]),  # stomps core 0's line
            ]
            m = make_machine([prog0, prog1], system="Baseline")
            m.run()
            return m.core_stats[0].time[TimeCat.ROLLBACK]

        assert build(8) > build(1)

    def test_explicit_reason_never_used(self):
        m = make_machine(
            [[Txn([load(line_addr(1)), store(line_addr(2), 1)])]],
        )
        m.run()
        assert m.core_stats[0].aborts[AbortReason.EXPLICIT] == 0


class TestRunGuards:
    def test_max_cycles_triggers_deadlock_error(self):
        m = make_machine([[Plain([compute(10_000)])]])
        with pytest.raises(DeadlockError):
            m.run(max_cycles=100)

    def test_machine_rejects_too_many_threads(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            Machine(
                typical_params(),
                get_system("Baseline"),
                [[] for _ in range(33)],
            )

    def test_abort_all_htm_skips_lock_modes(self):
        # A TL transaction must never be killed by the broadcast.
        m = make_machine([[], []], system="LockillerTM-RWIL")
        from repro.htm.txstate import TxMode

        m.cpus[0].tx.begin(TxMode.TL, 0)
        m.abort_all_htm(AbortReason.MUTEX, exclude=1)
        assert not m.cpus[0].tx.aborted

    def test_external_abort_is_idempotent(self):
        from repro.htm.txstate import TxMode

        m = make_machine([[], []])
        m.cpus[0].tx.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(1), True, 0)
        m.abort_externally(0, AbortReason.CONFLICT_HTM, 0)
        m.abort_externally(0, AbortReason.OVERFLOW, 0)  # ignored
        assert m.cpus[0].tx.abort_reason is AbortReason.CONFLICT_HTM

    def test_abort_on_lock_mode_raises(self):
        from repro.common.errors import SimulationError
        from repro.htm.txstate import TxMode

        m = make_machine([[], []], system="LockillerTM-RWIL")
        m.cpus[0].tx.begin(TxMode.STL, 0)
        with pytest.raises(SimulationError):
            m.abort_externally(0, AbortReason.CONFLICT_HTM, 0)
