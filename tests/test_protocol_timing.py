"""Timing-level protocol tests: latency composition and serialization.

These pin the quantitative behaviour of the access path — the NACK
path's extra hops, directory busy-window queueing, LLC-vs-memory fills —
so timing regressions are caught, not just functional ones.
"""

import pytest

from repro.common.stats import AbortReason
from repro.coherence.memsys import GRANT, REJECT
from repro.coherence.states import MESI
from repro.htm.txstate import TxMode
from conftest import idle_machine, line_addr


class TestLatencyComposition:
    def test_miss_beats_hit_by_network_plus_llc(self):
        m = idle_machine()
        ms = m.memsys
        miss = ms.access(0, line_addr(100), False, 0)
        hit = ms.access(0, line_addr(100), False, 10_000)
        p = m.params
        assert hit.latency == p.l1.hit_latency
        # Miss must include at least LLC + memory + some network.
        assert miss.latency >= p.llc.hit_latency + p.memory.latency

    def test_nack_path_costs_more_than_plain_fill(self):
        """Fig. 3: the aborting owner adds a forward+NACK round trip."""
        m = idle_machine(system="Baseline")
        ms = m.memsys
        # Warm the line into the LLC so both cases are LLC hits.
        ms.access(3, line_addr(5), False, 0)
        ms.l1s[3].invalidate(5)
        ms.directory.remove_copy(5, 3)
        quiet = ms.access(1, line_addr(5), False, 5_000)  # plain LLC fill
        ms.l1s[1].invalidate(5)
        ms.directory.remove_copy(5, 1)
        # Now an HTM writer owns it; a conflicting read travels the
        # NACK path (owner invalidated itself).
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), True, 10_000)
        nacked = ms.access(2, line_addr(5), False, 20_000)
        assert nacked.status == GRANT
        assert tx0.aborted
        assert nacked.latency > quiet.latency

    def test_dirty_forward_prices_owner_hops(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), True, 0)       # owner M at tile 0
        fwd = ms.access(3, line_addr(5), False, 5_000)
        ms.l1s[3].invalidate(5)
        ms.directory.remove_copy(5, 3)
        # After the writeback the line is shared; the next fill comes
        # straight from the LLC (no forward) — it must be cheaper from
        # the same distance.
        direct = ms.access(3, line_addr(5), False, 50_000)
        assert fwd.latency > direct.latency

    def test_busy_window_queues_second_requester(self):
        m = idle_machine()
        ms = m.memsys
        first = ms.access(0, line_addr(5), False, 0)
        busy = ms.directory.entry(5).busy_until
        assert busy > 0
        second = ms.access(1, line_addr(5), False, 1)
        # The second request must wait for the window: its total latency
        # covers at least until the busy horizon.
        assert 1 + second.latency >= busy

    def test_unrelated_lines_do_not_queue(self):
        m = idle_machine()
        ms = m.memsys
        ms.access(0, line_addr(5), False, 0)
        a = ms.access(1, line_addr(6 + 32), False, 1)   # different line+bank
        b = ms.access(2, line_addr(6 + 32), False, 100_000)
        assert a.latency <= b.latency + m.params.memory.latency


class TestVictimInvalidationSemantics:
    def test_aborted_writer_lines_unreadable_speculation(self):
        """After a requester-wins abort, the victim's written lines are
        gone from its L1 and its buffered values never became visible."""
        m = idle_machine(system="Baseline")
        ms = m.memsys
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), True, 0)
        ms.functional_store(0, line_addr(5), 99)
        ms.access(1, line_addr(5), False, 100)  # aborts core 0
        assert ms.functional_load(1, line_addr(5)) == 0
        assert ms.l1s[0].probe(5) == MESI.I

    def test_read_set_flash_clear_removes_warmup(self):
        m = idle_machine(system="Baseline")
        ms = m.memsys
        tx0 = m.cpus[0].tx
        tx0.begin(TxMode.HTM, 0)
        ms.access(0, line_addr(5), False, 0)
        m.abort_externally(0, AbortReason.CONFLICT_HTM, 10)
        tx0.clear()
        # Next access is a full miss again (no L1 warm-up from the
        # aborted attempt).
        res = ms.access(0, line_addr(5), False, 1_000)
        assert not res.hit


def _priced_access(scenario, per_message):
    """Run ``scenario(machine)`` up to its last access; return that
    access's status and latency and the NoC messages, flits and hops it
    added.  ``per_message`` arms an identity chaos hook, which turns the
    fused pricing off without changing any latency."""
    m = idle_machine(n_cores=16, system=scenario.system)
    if per_message:
        m.network.chaos = lambda lat: lat
    last = scenario(m)
    net = m.network
    before = (net.messages_sent, net.flits_sent, net.hops_traversed)
    res = last()
    after = (net.messages_sent, net.flits_sent, net.hops_traversed)
    return (res.status, res.latency) + tuple(
        a - b for a, b in zip(after, before)
    )


class TestFusedLegs:
    """The fused miss path prices each outcome like the per-message one.

    Whole-run pins (``tests/test_golden_determinism.py::TestPricingPaths``)
    cover forwards and NACKs; these pin each outcome on its own, for
    requester/owner/home tiles spread over the mesh.
    """

    CASES = [(0, 3, 5), (15, 2, 17), (7, 12, 30), (9, 9, 1)]

    @staticmethod
    def _forward(owner, requester, line, is_write):
        def scenario(m):
            m.memsys.access(owner, line_addr(line), True, 0)
            return lambda: m.memsys.access(
                requester, line_addr(line), is_write, 5_000
            )

        scenario.system = "Baseline"
        return scenario

    @staticmethod
    def _owner_kept_after_abort(owner, requester, line):
        # Fig. 3 NACK path.  ``discard_tx`` removes an aborted owner's
        # copy before the home reads the owner, so a whole run never
        # takes it; an abort hook that leaves the copy in place does
        # (and the requester's store then purges it).
        def scenario(m):
            m.cpus[owner].tx.begin(TxMode.HTM, 0)
            m.memsys.access(owner, line_addr(line), True, 0)
            m.memsys.abort_core = lambda core, reason, now: None
            return lambda: m.memsys.access(
                requester, line_addr(line), True, 5_000
            )

        scenario.system = "Baseline"
        return scenario

    @staticmethod
    def _nack(owner, requester, line):
        def scenario(m):
            m.cpus[owner].tx.begin(TxMode.TL, 0)
            m.memsys.access(owner, line_addr(line), True, 0)
            m.cpus[requester].tx.begin(TxMode.HTM, 0)
            return lambda: m.memsys.access(
                requester, line_addr(line), False, 5_000
            )

        scenario.system = "LockillerTM"
        return scenario

    @pytest.mark.parametrize("owner,requester,line", CASES)
    @pytest.mark.parametrize("is_write", [False, True])
    def test_forward(self, owner, requester, line, is_write):
        scenario = self._forward(owner, requester, line, is_write)
        fused = _priced_access(scenario, per_message=False)
        assert fused == _priced_access(scenario, per_message=True)
        if owner != requester:
            assert fused[:1] + fused[2:3] == (GRANT, 3)

    @pytest.mark.parametrize("owner,requester,line", CASES[:3])
    def test_owner_kept_after_abort(self, owner, requester, line):
        scenario = self._owner_kept_after_abort(owner, requester, line)
        fused = _priced_access(scenario, per_message=False)
        assert fused == _priced_access(scenario, per_message=True)
        assert fused[:1] + fused[2:3] == (GRANT, 4)

    @pytest.mark.parametrize("owner,requester,line", CASES[:3])
    def test_nack(self, owner, requester, line):
        scenario = self._nack(owner, requester, line)
        fused = _priced_access(scenario, per_message=False)
        assert fused == _priced_access(scenario, per_message=True)
        assert fused[:1] + fused[2:3] == (REJECT, 2)
