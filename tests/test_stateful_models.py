"""Model-based (stateful hypothesis) tests for the cache structures.

A reference model written with plain dicts/lists shadows the production
structure through arbitrary operation sequences; any divergence fails.
This style catches interaction bugs (LRU vs pinning vs invalidation)
that example-based tests tend to miss.
"""

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

    @rule(line=LINES, is_write=st.booleans())
    def hit_state(self, line, is_write):
        got = self.arr.hit_state(line, is_write)
        existing = self._find(line)
        if existing is None or (is_write and existing[1] == MESI.S):
            # A miss (or an upgrade miss) leaves the LRU order alone.
            assert got == MESI.I
        else:
            assert got == existing[1]
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
