"""Model-based (stateful hypothesis) tests for the cache structures and
the event engine.

A reference model written with plain dicts/lists shadows the production
structure through arbitrary operation sequences; any divergence fails.
This style catches interaction bugs (LRU vs pinning vs invalidation)
that example-based tests tend to miss.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.common.params import CacheParams
from repro.coherence.cachearray import CacheArray, EvictedLine
from repro.coherence.directory import Directory
from repro.coherence.states import MESI
from repro.common.errors import SimulationError
from repro.sim.engine import _COMPACT_MIN, SimEngine

LINES = st.integers(0, 15)
STATES = st.sampled_from([MESI.S, MESI.E, MESI.M])
CORES = st.integers(0, 3)
PIN_CLASSES = st.integers(0, 2)


def _pinned_by(k):
    # memsys pins by transactional ownership, a pure function of the
    # line; a residue class stands in for it.
    return lambda line: line % 3 == k


class CacheArrayModel(RuleBasedStateMachine):
    """CacheArray vs a reference LRU model (2 sets x 2 ways)."""

    def __init__(self):
        super().__init__()
        self.arr = CacheArray(CacheParams(4 * 64, 2, 2))
        # Reference: per-set list of (line, state), LRU first.
        self.ref = {0: [], 1: []}

    def _ways(self, line):
        return self.ref[line % 2]

    def _find(self, line):
        return next((e for e in self._ways(line) if e[0] == line), None)

    def _insert(self, line, state, pinned):
        victim = self.arr.insert(line, state, pinned)
        ways = self._ways(line)
        existing = self._find(line)
        if existing:
            ways.remove(existing)
            ways.append((line, state))
            assert victim is None
            return
        if len(ways) >= 2:
            unpinned = [e for e in ways if pinned is None or not pinned(e[0])]
            if not unpinned:
                # Every way pinned: overflow reported, nothing changes.
                assert victim == EvictedLine(ways[0][0], ways[0][1], True)
                return
            evicted = unpinned[0]
            ways.remove(evicted)
            assert victim == EvictedLine(evicted[0], evicted[1], False)
        else:
            assert victim is None
        ways.append((line, state))

    @rule(line=LINES, state=STATES)
    def insert(self, line, state):
        self._insert(line, state, None)

    @rule(line=LINES, state=STATES, k=PIN_CLASSES)
    def insert_pinned(self, line, state, k):
        self._insert(line, state, _pinned_by(k))

    @rule(line=LINES)
    def invalidate(self, line):
        prior = self.arr.invalidate(line)
        existing = self._find(line)
        if existing:
            self._ways(line).remove(existing)
            assert prior == existing[1]
        else:
            assert prior == MESI.I

    @rule(line=LINES)
    def touch_if_present(self, line):
        existing = self._find(line)
        if existing:
            self.arr.touch(line)
            ways = self._ways(line)
            ways.remove(existing)
            ways.append(existing)

    @rule(line=LINES, state=STATES)
    def set_state_if_present(self, line, state):
        existing = self._find(line)
        if existing:
            self.arr.set_state(line, state)
            ways = self._ways(line)
            ways[ways.index(existing)] = (line, state)

    @rule(line=LINES, k=PIN_CLASSES)
    def find_unpinned_victim(self, line, k):
        pinned = _pinned_by(k)
        expected = next(
            (ln for ln, _ in self._ways(line) if not pinned(ln)), None
        )
        assert self.arr.find_unpinned_victim(line, pinned) == expected

    @rule(line=LINES)
    def lru_line_if_occupied(self, line):
        ways = self._ways(line)
        if ways:
            assert self.arr.lru_line(line) == ways[0][0]

    @rule(line=LINES)
    def set_occupancy(self, line):
        assert self.arr.set_occupancy(line) == len(self._ways(line))

    @rule()
    def reset(self):
        self.arr.reset()
        for ways in self.ref.values():
            ways.clear()
        assert self.arr.evictions == 0

    @invariant()
    def states_agree(self):
        for idx, ways in self.ref.items():
            for line, state in ways:
                assert self.arr.probe(line) == state
        total = sum(len(w) for w in self.ref.values())
        assert len(self.arr) == total
        self.arr.check_invariants()


TestCacheArrayModel = CacheArrayModel.TestCase
TestCacheArrayModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class DirectoryModel(RuleBasedStateMachine):
    """Directory vs a reference {line: (owner, sharers)} model."""

    def __init__(self):
        super().__init__()
        self.dir = Directory()
        self.ref = {}

    def _entry(self, line):
        return self.ref.setdefault(line, [-1, set()])

    @rule(line=LINES, core=CORES)
    def set_exclusive(self, line, core):
        self.dir.set_exclusive(line, core)
        e = self._entry(line)
        e[0] = core
        e[1] = set()

    @rule(line=LINES, core=CORES)
    def add_sharer_if_legal(self, line, core):
        e = self._entry(line)
        if e[0] >= 0 and e[0] != core:
            return  # illegal; covered by unit tests
        self.dir.add_sharer(line, core)
        if e[0] != core:
            e[1].add(core)

    @rule(line=LINES, core=CORES)
    def remove_copy(self, line, core):
        self.dir.remove_copy(line, core)
        e = self._entry(line)
        if e[0] == core:
            e[0] = -1
        e[1].discard(core)

    @rule(line=LINES)
    def demote_if_owned(self, line):
        e = self._entry(line)
        if e[0] >= 0:
            self.dir.demote_owner_to_sharer(line)
            e[1].add(e[0])
            e[0] = -1

    @invariant()
    def copies_agree(self):
        for line, (owner, sharers) in self.ref.items():
            expected = {owner} if owner >= 0 else set(sharers)
            assert self.dir.copies(line) == expected
            assert self.dir.owner_of(line) == owner


TestDirectoryModel = DirectoryModel.TestCase
TestDirectoryModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


DELAYS = st.integers(0, 6)
#: What a fired callback does: nothing, schedule a zero-delay child, or
#: cancel an earlier-scheduled event (a no-op once that one fired).
ACTIONS = st.one_of(
    st.none(),
    st.just("child"),
    st.integers(0, 1000).map(lambda i: ("cancel", i)),
)
PICKS = st.integers(0, 1000)


class EngineModel(RuleBasedStateMachine):
    """SimEngine vs a plain list kept sorted by (time, vtime, seq)."""

    def __init__(self):
        super().__init__()
        self.eng = SimEngine()
        self.fired = []  # (id, t, now_vtime) as the engine fired them
        self.tokens = {}  # id -> EventToken, cancellable events only
        self.actions = {}  # id -> resolved action of the callback
        self.next_id = 0
        # Reference state.
        self.queue = []  # [time, vtime, seq, id], kept sorted
        self.status = {}  # id -> "pending" | "cancelled" | "fired"
        self.seq = 0
        self.now = 0
        self.now_vtime = 0
        self.processed = 0
        self.live = 0
        self.corpses = 0
        self.expected = []

    # -- callbacks (run inside the engine) ------------------------------

    def _callback(self, eid):
        def fire(t):
            self.fired.append((eid, t, self.eng.now_vtime))
            act = self.actions[eid]
            if act is None:
                return
            if act[0] == "child":
                child = act[1]
                self.tokens[child] = self.eng.schedule_after(
                    0, self._callback(child)
                )
            else:
                self.tokens[act[1]].cancel()

        return fire

    def _new_event(self, action):
        """Allocate an event id and resolve its callback's action."""
        eid = self.next_id
        self.next_id += 1
        if action == "child":
            child = self.next_id
            self.next_id += 1
            self.actions[child] = None
            action = ("child", child)
        elif action is not None:
            targets = sorted(self.tokens)
            if targets:
                action = ("cancel", targets[action[1] % len(targets)])
            else:
                action = None
        self.actions[eid] = action
        return eid

    # -- reference model ------------------------------------------------

    def _push(self, eid, when, vtime):
        self.queue.append([when, vtime, self.seq, eid])
        self.queue.sort()
        self.seq += 1
        self.status[eid] = "pending"
        self.live += 1

    def _cancel(self, eid):
        if self.status[eid] != "pending":
            return  # fired tokens are consumed; repeat cancels are no-ops
        self.status[eid] = "cancelled"
        self.live -= 1
        self.corpses += 1
        if self.corpses >= _COMPACT_MIN and self.corpses * 2 >= len(
            self.queue
        ):
            self.queue = [
                e for e in self.queue if self.status[e[3]] != "cancelled"
            ]
            self.corpses = 0

    def _fire_next(self, until=None):
        """Pop queue entries until one live event fires; False if none."""
        while self.queue:
            if until is not None and self.queue[0][0] > until:
                return False
            t, vtime, _, eid = self.queue.pop(0)
            if self.status[eid] == "cancelled":
                self.corpses -= 1
                continue
            self.status[eid] = "fired"
            self.now = t
            self.now_vtime = vtime
            self.live -= 1
            self.processed += 1
            self.expected.append((eid, t, vtime))
            act = self.actions[eid]
            if act is not None and act[0] == "child":
                self._push(act[1], t, t)
            elif act is not None:
                self._cancel(act[1])
            return True
        return False

    # -- rules ----------------------------------------------------------

    @rule(delay=DELAYS, action=ACTIONS)
    def schedule_after(self, delay, action):
        eid = self._new_event(action)
        self.tokens[eid] = self.eng.schedule_after(
            delay, self._callback(eid)
        )
        self._push(eid, self.now + delay, self.now)

    @rule(delay=DELAYS, action=ACTIONS)
    def schedule_after_nocancel(self, delay, action):
        eid = self._new_event(action)
        self.eng.schedule_after_nocancel(delay, self._callback(eid))
        self._push(eid, self.now + delay, self.now)

    @rule(delay=DELAYS, back=st.integers(0, 8), action=ACTIONS)
    def schedule_after_virtual(self, delay, back, action):
        vdelay = delay - back  # may be negative
        eid = self._new_event(action)
        self.tokens[eid] = self.eng.schedule_after_virtual(
            delay, self._callback(eid), vdelay
        )
        self._push(eid, self.now + delay, self.now + vdelay)

    @rule(delay=DELAYS, back=st.integers(0, 8), action=ACTIONS)
    def schedule_after_virtual_nocancel(self, delay, back, action):
        vdelay = delay - back
        eid = self._new_event(action)
        self.eng.schedule_after_virtual_nocancel(
            delay, self._callback(eid), vdelay
        )
        self._push(eid, self.now + delay, self.now + vdelay)

    @rule(pick=PICKS)
    def cancel(self, pick):
        if not self.tokens:
            return
        eid = sorted(self.tokens)[pick % len(self.tokens)]
        self.tokens[eid].cancel()  # may have fired already
        self._cancel(eid)

    @rule(delay=DELAYS)
    def invalid_calls_change_nothing(self, delay):
        eng = self.eng
        with pytest.raises(SimulationError):
            eng.schedule_after(-1 - delay, lambda t: None)
        with pytest.raises(SimulationError):
            eng.schedule_after_nocancel(-1 - delay, lambda t: None)
        with pytest.raises(SimulationError):
            eng.schedule_after_virtual(delay, lambda t: None, delay + 1)
        with pytest.raises(SimulationError):
            eng.schedule_after_virtual_nocancel(
                delay, lambda t: None, delay + 1
            )

    @rule()
    def step(self):
        assert self.eng.step() == self._fire_next()

    @rule(span=st.integers(0, 10))
    def run_until(self, span):
        until = self.now + span
        assert self.eng.run(until=until) == until
        while self._fire_next(until):
            pass
        self.now = max(self.now, until)

    @rule()
    def run(self):
        self.eng.run()
        while self._fire_next():
            pass

    @invariant()
    def engine_agrees(self):
        eng = self.eng
        assert self.fired == self.expected
        assert eng.now == self.now
        assert eng.now_vtime == self.now_vtime
        assert eng.pending() == self.live
        assert eng.resident() == len(self.queue)
        assert eng.events_processed == self.processed
        assert eng.heap_events == self.seq  # every accepted schedule
        assert eng.ring_events == 0


TestEngineModel = EngineModel.TestCase
TestEngineModel.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None
)
