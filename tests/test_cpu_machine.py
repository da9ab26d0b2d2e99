"""Behavioral tests of the CPU state machine via targeted micro-programs.

Each test builds a tiny machine with hand-written programs and asserts
on the exact lifecycle behaviour the paper specifies: commits, abort
reasons, fallback entry, mutex broadcast kills, HTMLock coexistence,
switchingMode, and the three requester policies.
"""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.common.stats import AbortReason, TimeCat
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from conftest import line_addr, make_machine, simple_txn


def run_machine(programs, system="Baseline", params=None, seed=0):
    m = make_machine(programs, system=system, params=params, seed=seed)
    cycles = m.run()
    return m, cycles


def overflow_params():
    """1-set, 2-way L1: any 3-line transactional footprint overflows."""
    return SystemParams(
        num_cores=4,
        l1=CacheParams(2 * 64, 2, 2),
        llc=CacheParams(4096 * 64, 16, 12),
    )


class TestBasicExecution:
    def test_empty_program_finishes(self):
        m, cycles = run_machine([[]])
        assert m.all_done and cycles == 0

    def test_plain_compute_billed_non_tran(self):
        m, cycles = run_machine([[Plain([compute(100)])]])
        assert cycles == 100
        assert m.core_stats[0].time[TimeCat.NON_TRAN] == 100

    def test_simple_txn_commits_htm(self):
        m, _ = run_machine([[simple_txn([1, 2], [3])]])
        cs = m.core_stats[0]
        assert cs.commits_htm == 1
        assert cs.tx_attempts == 1
        assert cs.total_aborts == 0
        assert m.memsys.memory[line_addr(3)] == 1

    def test_functional_sum_two_threads(self):
        prog = lambda: [Txn([store(line_addr(9), 2)]) for _ in range(5)]
        m, _ = run_machine([prog(), prog()])
        assert m.memsys.memory[line_addr(9)] == 20

    def test_barrier_bills_early_finisher(self):
        m, cycles = run_machine(
            [[Plain([compute(10)])], [Plain([compute(500)])]]
        )
        assert cycles == 500
        assert m.core_stats[0].time[TimeCat.NON_TRAN] == 500

    def test_billing_tiles_execution(self):
        progs = [
            [Plain([compute(50)]), simple_txn([1], [2]), Plain([compute(30)])],
            [simple_txn([2], [1]), Plain([compute(200)])],
        ]
        m, cycles = run_machine(progs, system="LockillerTM")
        for cs in m.core_stats:
            assert sum(cs.time.values()) == cycles
        # Compute-bound: long ALU runs that fold into compute bursts,
        # two memory ops per transaction, 4 threads x 40 transactions.
        bursts = [
            [
                seg
                for i in range(40)
                for seg in (
                    Txn(
                        [compute(20)]
                        + [compute(5 + k % 7) for k in range(12)]
                        + [load(line_addr(t * 4096 + i)), compute(30),
                           store(line_addr(16384 + i % 64), 1), compute(15)]
                    ),
                    Plain([compute(25)]),
                )
            ]
            for t in range(4)
        ]
        m, cycles = run_machine(bursts, system="LockillerTM", seed=7)
        assert sum(cs.commits for cs in m.core_stats) == 160
        for cs in m.core_stats:
            assert sum(cs.time.values()) == cycles


class TestCGL:
    def test_serializes_critical_sections(self):
        progs = [[simple_txn([1], [1])], [simple_txn([1], [1])]]
        m, _ = run_machine(progs, system="CGL")
        total = m.core_stats[0].commits_lock + m.core_stats[1].commits_lock
        assert total == 2
        # One of the two must have waited.
        waits = [cs.time[TimeCat.WAITLOCK] for cs in m.core_stats]
        assert max(waits) > 0
        assert m.memsys.memory[line_addr(1)] == 2

    def test_no_aborts_ever(self):
        progs = [[simple_txn([i], [i]) for i in range(3)] for _ in range(3)]
        m, _ = run_machine(progs, system="CGL")
        assert all(cs.total_aborts == 0 for cs in m.core_stats)

    def test_fault_survives_under_lock(self):
        m, _ = run_machine(
            [[Txn([fault(), store(line_addr(1), 1)])]], system="CGL"
        )
        assert m.core_stats[0].commits_lock == 1
        assert m.memsys.memory[line_addr(1)] == 1


class TestAbortsAndFallback:
    def test_persistent_fault_exhausts_retries_then_fallback(self):
        m, _ = run_machine(
            [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        )
        cs = m.core_stats[0]
        assert cs.aborts[AbortReason.FAULT] == m.params.htm.max_retries
        assert cs.fallback_entries == 1
        assert cs.commits_lock == 1
        assert m.memsys.memory[line_addr(1)] == 1

    def test_one_shot_fault_retries_speculatively(self):
        m, _ = run_machine([[Txn([fault(), store(line_addr(1), 1)])]])
        cs = m.core_stats[0]
        assert cs.aborts[AbortReason.FAULT] == 1
        assert cs.commits_htm == 1
        assert cs.fallback_entries == 0

    def test_overflow_goes_to_fallback_quickly(self):
        m, _ = run_machine(
            [[simple_txn([1, 2, 3], [])]], params=overflow_params()
        )
        cs = m.core_stats[0]
        assert cs.aborts[AbortReason.OVERFLOW] == (
            1 + m.params.htm.capacity_retries
        )
        assert cs.fallback_entries == 1
        assert cs.commits_lock == 1

    def test_rollback_time_billed(self):
        m, _ = run_machine(
            [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        )
        assert m.core_stats[0].time[TimeCat.ROLLBACK] > 0
        assert m.core_stats[0].time[TimeCat.ABORTED] > 0

    def test_mutex_broadcast_kill_in_baseline(self):
        # Core 0 is forced onto the fallback path; its lock acquisition
        # must abort core 1's running transaction with reason mutex.
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1)])]
        prog1 = [
            Txn(
                [compute(4000)]
                + [load(line_addr(10 + i)) for i in range(8)]
                + [compute(4000), store(line_addr(30), 1)]
            )
        ]
        m, _ = run_machine([prog0, prog1], system="Baseline")
        assert m.core_stats[1].aborts[AbortReason.MUTEX] >= 1
        assert m.memsys.memory[line_addr(30)] == 1  # still commits in the end

    def test_no_mutex_kill_under_htmlock(self):
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1)])]
        prog1 = [
            Txn(
                [compute(4000)]
                + [load(line_addr(10 + i)) for i in range(8)]
                + [compute(4000), store(line_addr(30), 1)]
            )
        ]
        m, _ = run_machine([prog0, prog1], system="LockillerTM-RWIL")
        assert m.core_stats[1].aborts[AbortReason.MUTEX] == 0
        assert m.core_stats[1].commits_htm == 1


class TestConflictPolicies:
    def _contended(self, n_txs=6):
        """All threads repeatedly RMW the same hot line."""
        def prog(t):
            out = [Plain([compute(5 + 3 * t)])]
            for _ in range(n_txs):
                out.append(
                    Txn(
                        [
                            compute(8),
                            load(line_addr(0)),
                            store(line_addr(0), 1),
                            compute(8),
                        ]
                    )
                )
            return out
        return [prog(t) for t in range(4)]

    @pytest.mark.parametrize(
        "system",
        [
            "Baseline",
            "LosaTM-SAFU",
            "LockillerTM-RAI",
            "LockillerTM-RRI",
            "LockillerTM-RWI",
            "LockillerTM-RWL",
            "LockillerTM-RWIL",
            "LockillerTM",
        ],
    )
    def test_hot_line_is_atomic_under_every_policy(self, system):
        m, _ = run_machine(self._contended(), system=system)
        assert m.memsys.memory[line_addr(0)] == 4 * 6
        assert m.memsys.check_quiescent() == []

    def test_recovery_rejects_instead_of_aborting(self):
        base, _ = run_machine(self._contended(), system="Baseline")
        rwi, _ = run_machine(self._contended(), system="LockillerTM-RWI")
        base_aborts = sum(cs.total_aborts for cs in base.core_stats)
        rwi_aborts = sum(cs.total_aborts for cs in rwi.core_stats)
        rwi_rejects = sum(cs.rejects_received for cs in rwi.core_stats)
        assert rwi_rejects > 0
        assert rwi_aborts <= base_aborts

    def test_self_abort_policy_aborts_requester(self):
        m, _ = run_machine(self._contended(), system="LockillerTM-RAI")
        merged = sum(
            cs.aborts[AbortReason.CONFLICT_HTM] for cs in m.core_stats
        )
        # Rejections turn into self-aborts under RAI.
        assert merged > 0

    def test_wait_wakeup_sends_wakeups(self):
        m, _ = run_machine(self._contended(), system="LockillerTM-RWI")
        assert sum(cs.wakeups_sent for cs in m.core_stats) > 0


class TestHTMLockMechanism:
    def test_tl_transaction_commits_as_lock(self):
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1)])]
        m, _ = run_machine([prog0], system="LockillerTM-RWIL")
        cs = m.core_stats[0]
        assert cs.commits_lock == 1
        assert cs.time[TimeCat.LOCK] > 0
        assert m.hl_arbiter.owner is None  # released at hlend

    def test_htm_coexists_with_tl_when_disjoint(self):
        prog0 = [Txn([fault(persistent=True), store(line_addr(1), 1)])]
        prog1 = [
            Plain([compute(2)]),
            Txn([load(line_addr(50)), store(line_addr(51), 1)]),
        ] * 4
        m, _ = run_machine([prog0, prog1], system="LockillerTM-RWIL")
        assert m.core_stats[1].commits_htm >= 1
        assert m.core_stats[1].aborts[AbortReason.MUTEX] == 0

    def test_conflicting_htm_waits_for_tl(self):
        # Core 0 lands in TL mode and writes line 1; core 1's HTM txs on
        # line 1 must be rejected/parked, not kill the lock transaction.
        prog0 = [
            Txn(
                [fault(persistent=True), compute(50)]
                + [store(line_addr(1), 1), compute(2000)]
            )
        ]
        prog1 = [
            Plain([compute(300)]),
            Txn([load(line_addr(1)), store(line_addr(1), 1)]),
        ]
        m, _ = run_machine([prog0, prog1], system="LockillerTM-RWIL")
        assert m.memsys.memory[line_addr(1)] == 2
        assert m.core_stats[0].commits_lock == 1


class TestSwitchingMode:
    def test_overflow_switches_to_stl(self):
        m, _ = run_machine(
            [[simple_txn([1, 2, 3], [4])]],
            system="LockillerTM",
            params=overflow_params(),
        )
        cs = m.core_stats[0]
        assert cs.switch_attempts == 1
        assert cs.switch_successes == 1
        assert cs.commits_switched == 1
        assert cs.aborts[AbortReason.OVERFLOW] == 0
        assert cs.time[TimeCat.SWITCH_LOCK] > 0
        assert m.memsys.memory[line_addr(4)] == 1
        assert m.hl_arbiter.owner is None

    def test_switch_denied_when_tl_active_aborts(self):
        # Core 0 occupies HTMLock mode via a long TL transaction; core 1
        # overflows and its STL application must be denied.
        prog0 = [
            Txn([fault(persistent=True), compute(30000), store(line_addr(40), 1)])
        ]
        prog1 = [
            Plain([compute(1500)]),
            simple_txn([1, 2, 3], [5]),
        ]
        m, _ = run_machine(
            [prog0, prog1], system="LockillerTM", params=overflow_params()
        )
        cs1 = m.core_stats[1]
        assert cs1.switch_attempts >= 1
        assert cs1.switch_successes == 0
        assert cs1.aborts[AbortReason.OVERFLOW] >= 1
        # Everything still commits eventually.
        assert m.memsys.memory[line_addr(5)] == 1

    def test_switching_disabled_in_rwil(self):
        m, _ = run_machine(
            [[simple_txn([1, 2, 3], [4])]],
            system="LockillerTM-RWIL",
            params=overflow_params(),
        )
        cs = m.core_stats[0]
        assert cs.switch_attempts == 0
        assert cs.commits_switched == 0
        assert cs.fallback_entries == 1

    def test_one_switch_attempt_per_transaction(self):
        # After a successful switch the transaction spills instead of
        # re-applying; after a failed one it aborts. Either way the
        # arbiter sees at most one application per attempt.
        m, _ = run_machine(
            [[simple_txn([1, 2, 3, 4, 5], [6])]],
            system="LockillerTM",
            params=overflow_params(),
        )
        assert m.core_stats[0].switch_attempts == 1
        assert m.core_stats[0].commits_switched == 1

    def test_fault_does_not_trigger_switching(self):
        """§III-C: switchingMode is not applied to exceptions."""
        m, _ = run_machine(
            [[Txn([fault(persistent=True), store(line_addr(1), 1)])]],
            system="LockillerTM",
        )
        cs = m.core_stats[0]
        assert cs.switch_attempts == 0
        assert cs.commits_lock == 1  # classic TL fallback


class TestDeterminism:
    def _progs(self):
        return [
            [
                Plain([compute(10)]),
                Txn([load(line_addr(0)), store(line_addr(0), 1), compute(5)]),
            ]
            for _ in range(4)
        ]

    @pytest.mark.parametrize("system", ["Baseline", "LockillerTM"])
    def test_same_seed_same_result(self, system):
        m1, c1 = run_machine(self._progs(), system=system, seed=5)
        m2, c2 = run_machine(self._progs(), system=system, seed=5)
        assert c1 == c2
        for a, b in zip(m1.core_stats, m2.core_stats):
            assert a.time == b.time
            assert a.aborts == b.aborts
