"""Unit tests driving MemorySystem directly (through an idle machine)."""

import random
from collections import Counter

import pytest

from repro.common.errors import ProtocolInvariantError
from repro.common.params import (
    CacheParams,
    SystemParams,
    typical_params,
)
from repro.common.stats import AbortReason
from repro.coherence.cachearray import CacheArray
from repro.coherence.memsys import GRANT, OVERFLOW, REJECT
from repro.coherence.states import MESI
from repro.htm.txstate import TxMode
from conftest import idle_machine, line_addr, make_machine


def tiny_params(l1_sets=4, l1_ways=2, llc_lines=4096, num_cores=4):
    return SystemParams(
        num_cores=num_cores,
        l1=CacheParams(l1_sets * l1_ways * 64, l1_ways, 2),
        llc=CacheParams(llc_lines * 64, 16, 12),
    )


class TestPlainCoherence:
    def test_cold_read_grants_exclusive(self):
        m = idle_machine()
        ms = m.memsys
        res = ms.access(0, line_addr(5), False, 0)
        assert res.status == GRANT and not res.hit
        assert ms.l1s[0].probe(5) == MESI.E
        assert ms.directory.owner_of(5) == 0
        assert res.latency > m.params.l1.hit_latency

    def test_read_hit_cheap(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        res = ms.access(0, line_addr(5), False, 100)
        assert res.hit and res.latency == m.params.l1.hit_latency

    def test_second_reader_shares(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        ms.access(1, line_addr(5), False, 50)
        assert ms.l1s[0].probe(5) == MESI.S
        assert ms.l1s[1].probe(5) == MESI.S
        assert ms.directory.copies(5) == {0, 1}
        ms.directory.check_swmr(ms.l1s)

    def test_write_invalidates_sharers(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        ms.access(1, line_addr(5), False, 50)
        ms.access(2, line_addr(5), True, 100)
        assert ms.l1s[0].probe(5) == MESI.I
        assert ms.l1s[1].probe(5) == MESI.I
        assert ms.l1s[2].probe(5) == MESI.M
        assert ms.directory.owner_of(5) == 2
        ms.directory.check_swmr(ms.l1s)

    def test_silent_e_to_m_upgrade(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        res = ms.access(0, line_addr(5), True, 10)
        assert res.hit
        assert ms.l1s[0].probe(5) == MESI.M
        assert ms.directory.owner_of(5) == 0

    def test_s_to_m_upgrade_via_directory(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        ms.access(1, line_addr(5), False, 50)  # both S now
        res = ms.access(0, line_addr(5), True, 100)
        assert res.status == GRANT and not res.hit
        assert ms.l1s[0].probe(5) == MESI.M
        assert ms.l1s[1].probe(5) == MESI.I

    def test_dirty_forward_from_owner(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), True, 0)   # core0 M
        res = ms.access(1, line_addr(5), False, 100)
        assert res.status == GRANT
        assert ms.l1s[0].probe(5) == MESI.S
        assert ms.l1s[1].probe(5) == MESI.S
        assert ms.directory.owner_of(5) == -1
        assert ms.directory.copies(5) == {0, 1}

    def test_llc_miss_costs_memory_latency(self):
        m = idle_machine()
        ms = m.memsys
        cold = ms.access(0, line_addr(7), False, 0)
        ms.l1s[0].invalidate(7)
        ms.directory.remove_copy(7, 0)
        warm = ms.access(0, line_addr(7), False, 10_000)
        assert cold.latency - warm.latency >= m.params.memory.latency

    def test_directory_busy_serializes(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        busy = ms.directory.entry(5).busy_until
        assert busy > 0
        res = ms.access(1, line_addr(5), False, 1)
        # Second request queues behind the first transaction's window.
        assert res.latency > ms.access(2, line_addr(6), False, busy + 500).latency or res.latency > 0


class TestFunctionalPlane:
    def test_plain_store_applies_immediately(self):
        m = idle_machine()
        ms = m.memsys
        ms.functional_store(0, 320, 5)
        assert ms.functional_load(1, 320) == 5

    def test_htm_store_buffered_until_publish(self):
        m = idle_machine()
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        ms.functional_store(0, 320, 5)
        assert ms.memory.get(320, 0) == 0
        assert ms.functional_load(0, 320) == 5     # own buffer visible
        assert ms.functional_load(1, 320) == 0     # isolated
        ms.publish(tx)
        assert ms.memory[320] == 5

    def test_lock_mode_writes_through(self):
        m = idle_machine(system="LockillerTM")
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.TL, 0)
        ms.functional_store(0, 320, 7)
        assert ms.memory[320] == 7

    def test_zero_delta_not_materialized(self):
        m = idle_machine()
        m.memsys.functional_store(0, 320, 0)
        assert 320 not in m.memsys.memory


class TestTransactionalTracking:
    def _tx_access(self, m, core, line, write, now=0):
        return m.memsys.access(core, line_addr(line), write, now)

    def test_sets_and_maps_populated(self):
        m = idle_machine()
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        self._tx_access(m, 0, 5, False)
        self._tx_access(m, 0, 6, True)
        assert 5 in tx.read_set and 6 in tx.write_set
        assert m.memsys.tx_readers[5] == 1 << 0  # core bitmask
        assert m.memsys.tx_writers[6] == 1 << 0

    def test_retire_clears_but_keeps_lines(self):
        m = idle_machine()
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        self._tx_access(m, 0, 6, True)
        m.memsys.retire_tx(0)
        assert not m.memsys.tx_writers
        assert m.memsys.l1s[0].probe(6) == MESI.M  # committed data stays

    def test_discard_flash_clears_all_tx_lines(self):
        m = idle_machine()
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        self._tx_access(m, 0, 5, False)
        self._tx_access(m, 0, 6, True)
        m.memsys.discard_tx(0)
        assert not m.memsys.tx_readers and not m.memsys.tx_writers
        assert m.memsys.l1s[0].probe(5) == MESI.I
        assert m.memsys.l1s[0].probe(6) == MESI.I
        assert tx.last_write_count == 1
        m.memsys.directory.check_swmr(m.memsys.l1s)


class TestConflicts:
    def test_requester_wins_aborts_holder(self):
        m = idle_machine(system="Baseline")
        tx0, tx1 = m.cpus[0].tx, m.cpus[1].tx
        tx0.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(5), True, 0)
        tx1.begin(TxMode.HTM, 0)
        res = m.memsys.access(1, line_addr(5), False, 10)
        assert res.status == GRANT
        assert tx0.aborted and tx0.abort_reason is AbortReason.CONFLICT_HTM
        assert m.memsys.l1s[0].probe(5) == MESI.I  # victim invalidated
        assert m.memsys.l1s[1].probe(5) in (MESI.E, MESI.S)

    def test_recovery_rejects_lower_priority(self):
        m = idle_machine(system="LockillerTM-RWI")
        tx0, tx1 = m.cpus[0].tx, m.cpus[1].tx
        tx0.begin(TxMode.HTM, 0)
        tx0.insts_in_attempt = 100
        m.memsys.access(0, line_addr(5), True, 0)
        tx1.begin(TxMode.HTM, 0)
        tx1.insts_in_attempt = 3
        res = m.memsys.access(1, line_addr(5), False, 10)
        assert res.status == REJECT
        assert res.reject_holder == 0 and not res.reject_by_lock
        assert not tx0.aborted
        # Requester state untouched by the withdrawn request.
        assert m.memsys.l1s[1].probe(5) == MESI.I
        assert 5 not in tx1.read_set

    def test_recovery_grants_higher_priority(self):
        m = idle_machine(system="LockillerTM-RWI")
        tx0, tx1 = m.cpus[0].tx, m.cpus[1].tx
        tx0.begin(TxMode.HTM, 0)
        tx0.insts_in_attempt = 3
        m.memsys.access(0, line_addr(5), True, 0)
        tx1.begin(TxMode.HTM, 0)
        tx1.insts_in_attempt = 100
        res = m.memsys.access(1, line_addr(5), True, 10)
        assert res.status == GRANT
        assert tx0.aborted

    def test_lock_transaction_rejects_htm_requester(self):
        m = idle_machine(system="LockillerTM")
        tl, h = m.cpus[0].tx, m.cpus[1].tx
        tl.begin(TxMode.TL, 0)
        m.memsys.access(0, line_addr(5), True, 0)
        h.begin(TxMode.HTM, 0)
        h.insts_in_attempt = 10**6
        res = m.memsys.access(1, line_addr(5), False, 10)
        assert res.status == REJECT and res.reject_by_lock
        assert res.reject_holder == 0

    def test_lock_transaction_aborts_htm_holder(self):
        m = idle_machine(system="LockillerTM")
        h, tl = m.cpus[0].tx, m.cpus[1].tx
        h.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(5), True, 0)
        tl.begin(TxMode.TL, 0)
        res = m.memsys.access(1, line_addr(5), False, 10)
        assert res.status == GRANT
        assert h.aborted and h.abort_reason is AbortReason.CONFLICT_LOCK

    def test_plain_access_aborts_htm_holder(self):
        m = idle_machine(system="LockillerTM-RWI")
        h = m.cpus[0].tx
        h.begin(TxMode.HTM, 0)
        h.insts_in_attempt = 10**6
        m.memsys.access(0, line_addr(5), True, 0)
        res = m.memsys.access(1, line_addr(5), True, 10)  # core1 not in tx
        assert res.status == GRANT
        assert h.aborted and h.abort_reason is AbortReason.CONFLICT_NON_TRAN

    def test_read_read_no_conflict(self):
        m = idle_machine(system="Baseline")
        tx0, tx1 = m.cpus[0].tx, m.cpus[1].tx
        tx0.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(5), False, 0)
        tx1.begin(TxMode.HTM, 0)
        res = m.memsys.access(1, line_addr(5), False, 10)
        assert res.status == GRANT
        assert not tx0.aborted


class TestOverflowAndSignatures:
    def test_htm_overflow_reported(self):
        m = make_machine([[] for _ in range(4)], params=tiny_params())
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        ms = m.memsys
        # Fill set 0 (lines 0,4 with 4 sets * 2 ways) transactionally.
        ms.access(0, line_addr(0), True, 0)
        ms.access(0, line_addr(4), True, 0)
        res = ms.access(0, line_addr(8), True, 0)
        assert res.status == OVERFLOW
        # No state change for the withdrawn request.
        assert 8 not in tx.write_set

    def test_non_tx_line_evicted_before_overflow(self):
        m = make_machine([[] for _ in range(4)], params=tiny_params())
        ms = m.memsys
        ms.access(0, line_addr(0), False, 0)  # plain line
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(4), True, 0)
        res = ms.access(0, line_addr(8), True, 0)
        assert res.status == GRANT  # evicted the plain line 0
        assert ms.l1s[0].probe(0) == MESI.I

    def test_lock_mode_spills_to_signature(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.TL, 0)
        ms.access(0, line_addr(0), True, 0)
        ms.access(0, line_addr(4), True, 0)
        res = ms.access(0, line_addr(8), True, 0)
        assert res.status == GRANT  # spilled, then filled
        assert ms.sig_owner == 0
        assert ms.of_wr_sig.test(0)  # LRU line 0 was spilled
        assert 0 not in tx.write_set
        assert 8 in tx.write_set

    def test_spill_result_carries_notification_latency(self):
        def tl_machine():
            m = make_machine(
                [[] for _ in range(4)],
                system="LockillerTM",
                params=tiny_params(),
            )
            m.cpus[0].tx.begin(TxMode.TL, 0)
            m.memsys.access(0, line_addr(0), True, 0)
            m.memsys.access(0, line_addr(4), True, 0)
            return m

        # Reference: spill by hand, then issue the access into the
        # freed way; the spill path must add only the LLC notification.
        ref = tl_machine()
        ref.memsys.spill_to_signature(0, 0, 0)
        plain = ref.memsys.access(0, line_addr(8), True, 0)
        extra = ref.network.control_latency(
            ref.tile_of_core(0), ref.topology.home_tile(0)
        )
        assert extra > 0
        m = tl_machine()
        ms = m.memsys
        res = ms.access(0, line_addr(8), True, 0)
        assert ms.signature_spills == 1
        assert res.status == GRANT and not res.hit
        assert res.latency == plain.latency + extra
        # The shared L1-hit result was not touched by the spill path.
        hit = ms.access(0, line_addr(8), True, 10)
        assert hit.hit and hit.latency == m.params.l1.hit_latency
        assert ms.access(0, line_addr(4), False, 20) is hit
        assert hit.latency == m.params.l1.hit_latency

    def test_signature_hit_rejects_external_request(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        tl = m.cpus[0].tx
        tl.begin(TxMode.TL, 0)
        ms.access(0, line_addr(0), True, 0)
        ms.spill_to_signature(0, 0, 0)
        h = m.cpus[1].tx
        h.begin(TxMode.HTM, 0)
        res = ms.access(1, line_addr(0), False, 10)
        assert res.status == REJECT and res.reject_by_lock

    def test_read_signature_blocks_exclusive_grant_only(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        # A plain copy exists before the lock transaction spills.
        ms.access(2, line_addr(0), False, 0)
        tl = m.cpus[0].tx
        tl.begin(TxMode.TL, 0)
        ms.access(0, line_addr(0), False, 2)
        ms.spill_to_signature(0, 0, 0)
        h = m.cpus[1].tx
        h.begin(TxMode.HTM, 0)
        # Other copies exist -> a shared read grant is safe (§III-B).
        res = ms.access(1, line_addr(0), False, 10)
        assert res.status == GRANT
        # ... but a write still conflicts with the lock tx's read.
        res_w = ms.access(1, line_addr(0), True, 20)
        assert res_w.status == REJECT and res_w.reject_by_lock

    def test_read_signature_rejects_when_no_other_copy(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        tl = m.cpus[0].tx
        tl.begin(TxMode.TL, 0)
        ms.access(0, line_addr(0), False, 0)
        ms.spill_to_signature(0, 0, 0)
        h = m.cpus[1].tx
        h.begin(TxMode.HTM, 0)
        # No other copy: granting would hand out exclusive data that the
        # requester could silently store to — the paper rejects this.
        res = ms.access(1, line_addr(0), False, 10)
        assert res.status == REJECT and res.reject_by_lock

    def test_signatures_cleared_on_retire(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        tl = m.cpus[0].tx
        tl.begin(TxMode.TL, 0)
        ms.access(0, line_addr(0), True, 0)
        ms.spill_to_signature(0, 0, 0)
        ms.retire_tx(0)
        assert ms.sig_owner == -1
        assert ms.of_wr_sig.empty and ms.of_rd_sig.empty

    def test_spill_requires_lock_mode(self):
        m = idle_machine(system="LockillerTM")
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(0), True, 0)
        with pytest.raises(ProtocolInvariantError):
            m.memsys.spill_to_signature(0, 0, 0)

    def test_llc_back_invalidation_aborts_tx_holder(self):
        params = SystemParams(
            num_cores=4,
            l1=CacheParams(8 * 64, 2, 2),
            llc=CacheParams(16 * 64, 1, 12),  # 16 lines, direct-mapped
        )
        m = make_machine([[] for _ in range(4)], params=params)
        ms = m.memsys
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(3), True, 0)
        # Evict LLC set of line 3 by touching line 19 (same LLC set).
        ms.access(1, line_addr(19), False, 100)
        assert tx.aborted and tx.abort_reason is AbortReason.OVERFLOW

    def test_quiescence_detects_stale_tracking(self):
        m = idle_machine()
        tx = m.cpus[0].tx
        tx.begin(TxMode.HTM, 0)
        m.memsys.access(0, line_addr(5), True, 0)
        problems = m.memsys.check_quiescent()
        assert any("tx_writers" in p for p in problems)
        m.memsys.retire_tx(0)
        tx.clear()
        assert m.memsys.check_quiescent() == []


class TestSharedResults:
    """Results are immutable, so the access path shares them."""

    def test_equal_latency_grants_share_one_result(self):
        m = idle_machine()
        ms = m.memsys
        n_tiles = m.topology.num_tiles
        # Two cold reads of lines with the same home tile: same legs,
        # same LLC miss, so the same latency.
        a = ms.access(0, line_addr(5), False, 0)
        b = ms.access(0, line_addr(5 + n_tiles), False, 1000)
        assert a.status == b.status == GRANT and not a.hit
        assert a.latency == b.latency
        assert a is b
        # A different latency gets its own result; the first is intact.
        c = ms.access(1, line_addr(5), False, 2000)
        assert c.latency != a.latency and c is not a
        assert ms.access(0, line_addr(5 + 2 * n_tiles), False, 3000) is a

    def test_results_are_immutable(self):
        m = make_machine(
            [[] for _ in range(4)], system="LockillerTM", params=tiny_params()
        )
        ms = m.memsys
        grant = ms.access(0, line_addr(5), True, 0)
        hit = ms.access(0, line_addr(5), True, 10)
        m.cpus[0].tx.begin(TxMode.TL, 20)
        ms.access(0, line_addr(6), True, 20)
        m.cpus[1].tx.begin(TxMode.HTM, 30)
        reject = ms.access(1, line_addr(6), False, 30)
        assert (grant.status, hit.hit, reject.status) == (GRANT, True, REJECT)
        for res in (grant, hit, reject):
            before = (res.status, res.latency, res.hit, res.reject_holder)
            with pytest.raises(AttributeError):
                res.latency = 1
            with pytest.raises(AttributeError):
                res.status = OVERFLOW
            with pytest.raises(AttributeError):
                del res.hit
            assert (
                res.status, res.latency, res.hit, res.reject_holder
            ) == before


class TestInlineFillMatchesInsert:
    """The two-level miss path fills the L1, and the LLC when its set has
    a free way, inline instead of through ``CacheArray.insert``.  Random
    access sequences, with transactions pinning lines, must leave every
    array in exactly the state and LRU order that ``insert`` leaves."""

    @staticmethod
    def _copy(arr, params):
        shadow = CacheArray(params)
        shadow._state.update(arr._state)
        shadow._sets.update({i: list(w) for i, w in arr._sets.items()})
        shadow.evictions = arr.evictions
        return shadow

    @staticmethod
    def _same(real, shadow):
        assert real._state == shadow._state
        assert real._sets == shadow._sets
        assert real.evictions == shadow.evictions

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences(self, seed):
        rng = random.Random(seed)
        params = SystemParams(
            num_cores=3,
            l1=CacheParams(4 * 2 * 64, 2, 2),  # 4 sets x 2 ways
            llc=CacheParams(16 * 2 * 64, 2, 12),  # 16 sets x 2 ways
        )
        m = make_machine([[] for _ in range(3)], params=params)
        ms = m.memsys
        seen = Counter()
        for step in range(600):
            core = rng.randrange(3)
            tx = m.cpus[core].tx
            if tx.mode is TxMode.HTM and (tx.aborted or rng.random() < 0.03):
                if not tx.aborted:
                    ms.retire_tx(core)
                tx.clear()
            elif tx.mode is TxMode.NONE and core < 2 and rng.random() < 0.3:
                tx.begin(TxMode.HTM, step)
            l1 = ms.l1s[core]
            line = rng.randrange(48)
            is_write = rng.random() < 0.4
            if (
                tx.mode is TxMode.HTM
                and l1.set_occupancy(line) == 2
                and rng.random() < 0.3
            ):
                # A transaction's own accesses keep its tracked lines
                # the most recent of each set; track the set's LRU line
                # too, so that pinning skips it for the next way.
                ms._track(core, l1.lru_line(line), False, tx)
            tracked = frozenset(tx.read_set | tx.write_set)
            before = l1.probe(line)
            l1_shadow = self._copy(l1, params.l1)
            llc_shadow = self._copy(ms.llc, params.llc)
            llc_evictions = ms.llc.evictions
            res = ms.access(core, line_addr(line), is_write, 10 * step)
            if line not in llc_shadow._state and res.status == GRANT:
                llc_shadow.insert(line, MESI.M)
                seen["llc_fill"] += 1
            self._same(ms.llc, llc_shadow)
            if ms.llc.evictions != llc_evictions:
                # A back-invalidation may also have purged this L1.
                seen["llc_evict"] += 1
                continue
            if res.status != GRANT:
                seen["overflow" if res.status == OVERFLOW else "reject"] += 1
            elif before == MESI.I:
                ways = l1_shadow._sets.get(line % 4, [])
                if len(ways) == 2:
                    seen["pinned" if ways[0] in tracked else "evict"] += 1
                l1_shadow.insert(
                    line,
                    l1.probe(line),
                    pinned=lambda x: x in tracked,
                )
            else:
                l1_shadow.set_state(line, l1.probe(line))
                l1_shadow.touch(line)
            self._same(l1, l1_shadow)
            ms.directory.check_swmr(ms.l1s)
        for case in ("llc_fill", "llc_evict", "overflow", "pinned", "evict"):
            assert seen[case] > 0, seen
