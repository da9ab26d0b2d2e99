"""Unit tests for the discrete-event engine."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import SimEngine


class TestScheduling:
    def test_fires_in_time_order(self):
        eng = SimEngine()
        order = []
        eng.schedule_after(30, lambda t: order.append(("c", t)))
        eng.schedule_after(10, lambda t: order.append(("a", t)))
        eng.schedule_after(20, lambda t: order.append(("b", t)))
        eng.run()
        assert order == [("a", 10), ("b", 20), ("c", 30)]

    def test_same_cycle_fifo(self):
        eng = SimEngine()
        order = []
        for name in "abc":
            eng.schedule_after(5, lambda t, n=name: order.append(n))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_schedule_after_relative(self):
        eng = SimEngine()
        seen = []
        eng.schedule_after(10, lambda t: eng.schedule_after(5, seen.append))
        eng.run()
        assert seen == [15]

    def test_rejects_past(self):
        eng = SimEngine()
        eng.schedule_after(10, lambda t: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_after(-5, lambda t: None)
        assert eng.resident() == 0

    def test_rejects_negative_delay(self):
        eng = SimEngine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1, lambda t: None)

    def test_run_until_stops(self):
        eng = SimEngine()
        seen = []
        eng.schedule_after(10, seen.append)
        eng.schedule_after(20, seen.append)
        eng.run(until=15)
        assert seen == [10]
        assert eng.pending() == 1
        eng.run()
        assert seen == [10, 20]

    def test_run_until_advances_now_to_cutoff(self):
        # A truncated run ends at the truncation point, not at the last
        # processed event: time has observably passed up to `until`.
        eng = SimEngine()
        eng.schedule_after(10, lambda t: None)
        eng.schedule_after(20, lambda t: None)
        eng.run(until=15)
        assert eng.now == 15

    def test_run_until_empty_heap_advances_now(self):
        eng = SimEngine()
        eng.run(until=100)
        assert eng.now == 100

    def test_run_until_exact_event_time_runs_event(self):
        eng = SimEngine()
        seen = []
        eng.schedule_after(15, seen.append)
        eng.run(until=15)
        assert seen == [15]
        assert eng.now == 15

    def test_reschedule_after_truncated_run_anchors_at_cutoff(self):
        # schedule_after() issued after a truncated run must be relative
        # to the cutoff, so back-to-back run(until=...) windows compose.
        eng = SimEngine()
        seen = []
        eng.schedule_after(10, lambda t: None)
        eng.run(until=15)
        eng.schedule_after(5, seen.append)
        eng.run()
        assert seen == [20]
        assert eng.now == 20


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = SimEngine()
        seen = []
        token = eng.schedule_after(10, seen.append)
        eng.schedule_after(20, seen.append)
        token.cancel()
        eng.run()
        assert seen == [20]

    def test_cancel_is_idempotent(self):
        eng = SimEngine()
        token = eng.schedule_after(10, lambda t: None)
        token.cancel()
        token.cancel()
        eng.run()


class TestStepAndAccounting:
    def test_step_returns_false_when_empty(self):
        assert SimEngine().step() is False

    def test_step_processes_one(self):
        eng = SimEngine()
        seen = []
        eng.schedule_after(1, seen.append)
        eng.schedule_after(2, seen.append)
        assert eng.step()
        assert seen == [1]

    def test_events_processed_counter(self):
        eng = SimEngine()
        for i in range(5):
            eng.schedule_after(i, lambda t: None)
        eng.run()
        assert eng.events_processed == 5

    def test_now_tracks_last_event(self):
        eng = SimEngine()
        eng.schedule_after(42, lambda t: None)
        eng.run()
        assert eng.now == 42

    def test_event_budget_guards_livelock(self):
        eng = SimEngine(max_events=10)

        def respawn(t):
            eng.schedule_after(1, respawn)

        eng.schedule_after(0, respawn)
        with pytest.raises(SimulationError):
            eng.run()

    def test_events_scheduled_during_run(self):
        # A short chain, and a 10 000-event chain with one event resident.
        for last in (5, 9_999):
            eng = SimEngine()
            seen = []

            def chain(t):
                seen.append(t)
                if t < last:
                    eng.schedule_after(1, chain)

            eng.schedule_after(0, chain)
            eng.run()
            assert seen == list(range(last + 1))
            assert eng.events_processed == last + 1


class TestCalendarRingEdgeCases:
    """Queue edge cases, first written for the old bucket-ring tier.

    Every case still applies to the one-heap queue: same-cycle order,
    lazy cancellation, budgets and truncated runs.
    """

    def test_zero_delay_storm_drains_in_schedule_order(self):
        # Events that schedule more zero-delay events at the same cycle
        # must fire in allocation order and all within that cycle.
        eng = SimEngine()
        seen = []

        def spawn(depth):
            def fire(t):
                seen.append((depth, t))
                if depth < 50:
                    eng.schedule_after(0, spawn(depth + 1))

            return fire

        eng.schedule_after(7, spawn(0))
        eng.run()
        assert seen == [(d, 7) for d in range(51)]
        assert eng.now == 7
        assert eng.pending() == 0

    def test_zero_delay_storm_from_heap_fast_path(self):
        # A lone heap event whose callback floods the current cycle
        # with zero-delay events: the flood must still drain at t.
        eng = SimEngine()
        seen = []

        def flood(t):
            for i in range(5):
                eng.schedule_after(0, lambda tt, i=i: seen.append((i, tt)))

        eng.schedule_after(100, flood)
        eng.run()
        assert seen == [(i, 100) for i in range(5)]

    def test_cancel_bucketed_event_before_its_cycle(self):
        eng = SimEngine()
        seen = []
        tok = eng.schedule_after(3, seen.append)
        eng.schedule_after(5, seen.append)
        assert eng.pending() == 2
        tok.cancel()
        assert eng.pending() == 1
        eng.run()
        assert seen == [5]

    def test_cancel_bucketed_event_same_cycle_mid_drain(self):
        # First event at t cancels its same-cycle sibling: the corpse
        # must be skipped even though it is already queued.
        eng = SimEngine()
        seen = []
        holder = {}
        eng.schedule_after(4, lambda t: holder["tok"].cancel())
        holder["tok"] = eng.schedule_after(4, seen.append)
        eng.schedule_after(4, lambda t: seen.append("third"))
        eng.run()
        assert seen == ["third"]
        assert eng.pending() == 0

    def test_cancel_fired_token_is_noop(self):
        # Tokens are consumed on fire; a late cancel must not corrupt
        # the live count.
        eng = SimEngine()
        tok = eng.schedule_after(1, lambda t: None)
        eng.schedule_after(2, lambda t: None)
        eng.step()
        tok.cancel()  # already fired
        assert eng.pending() == 1
        eng.run()
        assert eng.pending() == 0

    def test_run_until_truncation_with_ring_events(self):
        # Events beyond the cutoff survive a truncated run and a
        # follow-up schedule_after anchors at the cutoff.
        eng = SimEngine()
        seen = []
        for d in (1, 5, 9, 13):
            eng.schedule_after(d, seen.append)
        eng.run(until=6)
        assert seen == [1, 5]
        assert eng.now == 6
        assert eng.pending() == 2
        eng.schedule_after(1, seen.append)
        eng.run()
        assert seen == [1, 5, 7, 9, 13]

    def test_budget_enforced_on_nocancel_path(self):
        from repro.common.errors import EventBudgetError

        eng = SimEngine(max_events=10)

        def chain(t):
            eng.schedule_after_nocancel(1, chain)

        eng.schedule_after_nocancel(0, chain)
        with pytest.raises(EventBudgetError):
            eng.run()
        # The over-budget event is counted (then refused) — same
        # accounting as the token path.
        assert eng.events_processed == 11

    def test_budget_enforced_on_heap_fast_path(self):
        from repro.common.errors import EventBudgetError

        eng = SimEngine(max_events=5)

        def chain(t):
            eng.schedule_after_nocancel(100, chain)

        eng.schedule_after_nocancel(100, chain)
        with pytest.raises(EventBudgetError):
            eng.run()
        assert eng.events_processed == 6

    def test_pending_excludes_cancelled_events(self):
        eng = SimEngine()
        toks = [eng.schedule_after(70 + i, lambda t: None) for i in range(8)]
        assert eng.pending() == 8
        for tok in toks[:5]:
            tok.cancel()
        assert eng.pending() == 3
        assert eng.resident() == 8  # corpses still physically queued
        eng.run()
        assert eng.pending() == 0
        assert eng.resident() == 0

    def test_heap_compaction_on_cancellation_storm(self):
        from repro.sim.engine import _COMPACT_MIN

        eng = SimEngine()
        keep = []
        toks = []
        for i in range(2 * _COMPACT_MIN):
            toks.append(
                eng.schedule_after(1000 + i, keep.append)
            )
        for tok in toks[: 2 * _COMPACT_MIN - 10]:
            tok.cancel()
        assert eng.heap_compactions >= 1
        assert eng.resident() < 2 * _COMPACT_MIN
        eng.run()
        assert len(keep) == 10

    def test_virtual_delay_orders_before_plain_same_cycle(self):
        # An event with an earlier virtual allocation time fires before
        # a same-cycle event allocated (for real) in between.
        eng = SimEngine()
        seen = []
        eng.schedule_after(10, lambda t: None)
        eng.run()  # now = 10
        eng.schedule_after_virtual(5, lambda t: seen.append("early-v"), -3)
        eng.schedule_after(5, lambda t: seen.append("plain"))
        eng.run()
        assert seen == ["early-v", "plain"]
        # vtime may not exceed fire time.
        with pytest.raises(SimulationError):
            eng.schedule_after_virtual(2, lambda t: None, 3)

    def test_heap_events_counts_every_scheduled_event(self):
        # One heap holds every event: heap_events counts each schedule,
        # cancelled ones included, and the ring tier counter stays 0.
        eng = SimEngine()
        eng.schedule_after(5, lambda t: None)
        eng.schedule_after(0, lambda t: None)
        eng.schedule_after_nocancel(1, lambda t: None)
        eng.schedule_after_virtual(300, lambda t: None, -2)
        eng.schedule_after_virtual_nocancel(2, lambda t: None, 1)
        eng.schedule_after(64, lambda t: None).cancel()
        assert eng.heap_events == 6
        assert eng.ring_events == 0
        eng.run()
        assert eng.events_processed == 5
        assert eng.heap_events == 6
        assert eng.ring_events == 0
        eng.reset()
        assert eng.heap_events == 0


class TestTokenRearm:
    """A fired token may be re-armed; a live or cancelled one may not."""

    def test_fired_token_rearms(self):
        eng = SimEngine()
        seen = []
        tok = eng.schedule_after_virtual(5, seen.append, 5)
        eng.run()
        assert tok.cancelled  # consumed by firing
        again = eng.schedule_after_virtual(3, seen.append, 1, tok)
        assert again is tok and not tok.cancelled
        assert eng.pending() == 1
        eng.run()
        assert seen == [5, 8]
        assert eng.pending() == 0 and eng.events_processed == 2

    def test_rearmed_token_cancels_like_a_fresh_one(self):
        eng = SimEngine()
        seen = []
        tok = eng.schedule_after_virtual(1, seen.append, 0)
        eng.run()
        eng.schedule_after_virtual(4, seen.append, 0, tok)
        tok.cancel()
        assert eng.pending() == 0 and eng.resident() == 1
        eng.run()
        assert seen == [1]
        assert eng.resident() == 0

    def test_rearming_a_live_token_raises(self):
        eng = SimEngine()
        tok = eng.schedule_after_virtual(5, lambda t: None, 0)
        with pytest.raises(SimulationError, match="live"):
            eng.schedule_after_virtual(2, lambda t: None, 0, tok)
        assert eng.pending() == 1

    def test_rearming_a_cancelled_resident_token_raises(self):
        # The dead entry is still in the heap: re-arming would revive it.
        eng = SimEngine()
        seen = []
        tok = eng.schedule_after_virtual(5, seen.append, 0)
        tok.cancel()
        assert eng.resident() == 1
        with pytest.raises(SimulationError, match="cancelled"):
            eng.schedule_after_virtual(2, seen.append, 0, tok)
        eng.run()
        assert seen == [] and eng.events_processed == 0

    def test_token_of_another_engine_is_refused(self):
        a, b = SimEngine(), SimEngine()
        tok = a.schedule_after_virtual(1, lambda t: None, 0)
        a.run()
        with pytest.raises(SimulationError):
            b.schedule_after_virtual(1, lambda t: None, 0, tok)

    def test_compaction_keeps_a_rearmed_token(self):
        from repro.sim.engine import _COMPACT_MIN

        eng = SimEngine()
        seen = []
        tok = eng.schedule_after_virtual(1, lambda t: None, 0)
        eng.run()
        eng.schedule_after_virtual(5000, seen.append, 0, tok)
        doomed = [
            eng.schedule_after(1000 + i, seen.append)
            for i in range(2 * _COMPACT_MIN)
        ]
        for d in doomed:
            d.cancel()
        assert eng.heap_compactions >= 1
        assert eng.pending() == 1
        assert eng.resident() < 2 * _COMPACT_MIN
        eng.run()
        assert seen == [5001]
        # Fired again, it re-arms again.
        eng.schedule_after_virtual(2, seen.append, 2, tok)
        eng.run()
        assert seen == [5001, 5003]
