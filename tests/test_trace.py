"""Tests for the execution tracer and contention profiler."""

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from repro.sim.machine import Machine
from repro.sim.trace import TraceEvent, Tracer
from conftest import line_addr, make_machine, simple_txn


def traced_run(programs, system="Baseline", params=None, **tracer_kw):
    m = make_machine(programs, system=system, params=params)
    tracer = Tracer(**tracer_kw)
    tracer.attach(m)
    m.run()
    return m, tracer


class TestRecorder:
    def test_records_tx_lifecycle(self):
        _, tracer = traced_run([[simple_txn([1], [2])]])
        counts = tracer.counts()
        assert counts[TraceEvent.TX_BEGIN] == 1
        assert counts[TraceEvent.TX_COMMIT] == 1
        assert TraceEvent.TX_ABORT not in counts

    def test_records_aborts(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, tracer = traced_run(prog)
        counts = tracer.counts()
        assert counts[TraceEvent.TX_ABORT] >= 1
        assert counts[TraceEvent.FALLBACK] == 1

    def test_records_rejects_and_wakeups(self):
        def prog(t):
            return [
                Plain([compute(3 + t)]),
                *[
                    Txn([load(line_addr(0)), store(line_addr(0), 1), compute(10)])
                    for _ in range(6)
                ],
            ]

        _, tracer = traced_run(
            [prog(t) for t in range(4)], system="LockillerTM-RWI"
        )
        counts = tracer.counts()
        assert counts.get(TraceEvent.REJECT, 0) > 0
        assert counts.get(TraceEvent.WAKEUP, 0) > 0

    def test_records_switching(self):
        params = SystemParams(
            num_cores=4,
            l1=CacheParams(2 * 64, 2, 2),
            llc=CacheParams(4096 * 64, 16, 12),
        )
        _, tracer = traced_run(
            [[simple_txn([1, 2, 3], [4])]],
            system="LockillerTM",
            params=params,
        )
        counts = tracer.counts()
        assert counts.get(TraceEvent.OVERFLOW, 0) >= 1
        assert counts.get(TraceEvent.SWITCH_OK, 0) == 1

    def test_stl_deny_path_recorded(self):
        # The denial branch of _stl_result's emit site: drive the
        # callback directly (a machine-level denial needs a racing STL
        # owner, which is timing-fragile to stage).
        m = make_machine([[simple_txn([1], [2])]], system="LockillerTM")
        tracer = Tracer()
        tracer.attach(m)
        cpu = m.cpus[0]
        cpu._stl_result(5, False, cpu.tx.attempt_seq)
        records = [r for r in tracer.records]
        assert records[-1].event is TraceEvent.SWITCH_ATTEMPT
        assert records[-1].detail == "denied"
        assert records[-1].time == 5

    def test_fallback_entry_and_lock_begin_recorded(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, tracer = traced_run(prog)  # Baseline: classic fallback lock
        counts = tracer.counts()
        assert counts[TraceEvent.FALLBACK] == 1
        assert counts.get(TraceEvent.LOCK_BEGIN, 0) == 1
        lock_rec = [
            r for r in tracer.records if r.event is TraceEvent.LOCK_BEGIN
        ][0]
        assert lock_rec.detail == "fallback"

    def test_drain_wrap_reports_waiter_count(self):
        def prog(t):
            return [
                Plain([compute(3 + t)]),
                *[
                    Txn([load(line_addr(0)), store(line_addr(0), 1), compute(10)])
                    for _ in range(6)
                ],
            ]

        _, tracer = traced_run(
            [prog(t) for t in range(4)], system="LockillerTM-RWI"
        )
        wakeups = [
            r for r in tracer.records if r.event is TraceEvent.WAKEUP
        ]
        assert wakeups
        assert all(r.detail.endswith("waiter(s)") for r in wakeups)
        assert all(int(r.detail.split()[0]) >= 1 for r in wakeups)

    def test_capacity_bound(self):
        _, tracer = traced_run(
            [[simple_txn([i], [i]) for i in range(10)]], capacity=3
        )
        assert len(tracer) == 3
        assert tracer.dropped > 0
        assert "dropped" in tracer.render_tail()

    def test_event_filter(self):
        _, tracer = traced_run(
            [[simple_txn([1], [2])]],
            events={TraceEvent.TX_COMMIT},
        )
        assert set(tracer.counts()) == {TraceEvent.TX_COMMIT}

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_attach_same_machine_idempotent(self):
        m = make_machine([[simple_txn([1], [2])]])
        tracer = Tracer()
        tracer.attach(m)
        tracer.attach(m)  # no-op, no second subscription
        m.run()
        # Each lifecycle event recorded exactly once.
        assert tracer.counts()[TraceEvent.TX_COMMIT] == 1

    def test_attach_other_machine_rejected(self):
        m1 = make_machine([[]])
        m2 = make_machine([[]])
        tracer = Tracer()
        tracer.attach(m1)
        with pytest.raises(RuntimeError):
            tracer.attach(m2)

    def test_detach_clears_every_slot(self):
        from repro.telemetry.events import TelemetryHub

        m = make_machine([[simple_txn([1], [2])]])
        tracer = Tracer()
        tracer.attach(m)
        hub = TelemetryHub.of(m)
        assert hub.wired
        slots = [m, m.memsys, *m.cpus]
        assert all(c._emit == hub._emit for c in slots)
        tracer.detach()
        assert not hub.wired
        assert all(c._emit is None for c in slots)
        # Nothing is wrapped: every method is still the class's own.
        assert "access" not in vars(m.memsys)
        assert "drain_wakeups" not in vars(m)
        assert "_xbegin" not in vars(m.cpus[0])
        # Detached tracer records nothing; the machine still runs.
        m.run()
        assert len(tracer) == 0
        tracer.detach()  # idempotent when not attached

    def test_attach_run_detach_reattach(self):
        m = make_machine([[simple_txn([1], [2]), simple_txn([3], [4])]])
        first = Tracer()
        first.attach(m)
        first.detach()
        second = Tracer()
        second.attach(m)
        m.run()
        assert second.counts()[TraceEvent.TX_COMMIT] == 2
        assert len(first) == 0

    def test_two_tracers_share_one_hub(self):
        from repro.telemetry.events import TelemetryHub

        m = make_machine([[simple_txn([1], [2])]])
        a, b = Tracer(), Tracer()
        a.attach(m)
        b.attach(m)
        assert TelemetryHub.of(m).subscriber_count == 2
        m.run()
        # Each subscriber sees each event exactly once.
        assert a.counts()[TraceEvent.TX_COMMIT] == 1
        assert a.counts() == b.counts()
        b.detach()
        assert m.cpus[0]._emit is not None  # ``a`` still listens
        a.detach()
        assert m.cpus[0]._emit is None


class TestQueries:
    def _tracer(self):
        progs = [
            [Plain([compute(2 + t)]), simple_txn([0], [0])] for t in range(3)
        ]
        return traced_run(progs, system="LockillerTM-RWI")[1]

    def test_events_for_core(self):
        tracer = self._tracer()
        for r in tracer.events_for_core(1):
            assert r.core == 1

    def test_between_window(self):
        tracer = self._tracer()
        all_times = [r.time for r in tracer.records]
        mid = sorted(all_times)[len(all_times) // 2]
        window = tracer.between(0, mid)
        assert all(r.time <= mid for r in window)
        assert window  # nonempty

    def test_render_contains_core_and_event(self):
        tracer = self._tracer()
        text = tracer.render_tail(5)
        assert "core" in text and "tx_commit" in text

    def test_contention_profile(self):
        def prog(t):
            return [
                Plain([compute(3 + t)]),
                *[
                    Txn([load(line_addr(7)), store(line_addr(7), 1)])
                    for _ in range(5)
                ],
            ]

        _, tracer = traced_run(
            [prog(t) for t in range(4)], system="LockillerTM-RWI"
        )
        profile = tracer.contention_profile()
        assert profile.total > 0
        hottest_line, hits = profile.hottest(1)[0]
        assert hottest_line == 7
        assert hits == profile.total  # only one contended line

    def test_tracing_does_not_change_results(self):
        progs = lambda: [
            [Plain([compute(2 + t)]), simple_txn([0], [0])] for t in range(4)
        ]
        plain = make_machine(progs(), system="LockillerTM")
        cycles_plain = plain.run()
        traced = make_machine(progs(), system="LockillerTM")
        Tracer().attach(traced)
        cycles_traced = traced.run()
        assert cycles_plain == cycles_traced
        assert plain.memsys.memory == traced.memsys.memory
