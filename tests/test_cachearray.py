"""Unit and property tests for the set-associative cache array."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProtocolInvariantError
from repro.common.params import CacheParams
from repro.coherence.cachearray import CacheArray, EvictedLine
from repro.coherence.states import MESI


@pytest.fixture
def arr() -> CacheArray:
    # 4 sets, 2 ways.
    return CacheArray(CacheParams(8 * 64, 2, 2))


class TestBasics:
    def test_probe_absent_is_invalid(self, arr):
        assert arr.probe(1) == MESI.I
        assert not arr.contains(1)

    def test_insert_and_probe(self, arr):
        assert arr.insert(1, MESI.S) is None
        assert arr.probe(1) == MESI.S
        assert len(arr) == 1

    def test_insert_existing_updates_state(self, arr):
        arr.insert(1, MESI.S)
        arr.insert(1, MESI.M)
        assert arr.probe(1) == MESI.M
        assert len(arr) == 1

    def test_insert_rejects_invalid_state(self, arr):
        with pytest.raises(ProtocolInvariantError):
            arr.insert(1, MESI.I)

    def test_set_state(self, arr):
        arr.insert(1, MESI.E)
        arr.set_state(1, MESI.M)
        assert arr.probe(1) == MESI.M

    def test_set_state_to_invalid_removes(self, arr):
        arr.insert(1, MESI.E)
        arr.set_state(1, MESI.I)
        assert not arr.contains(1)

    def test_set_state_absent_raises(self, arr):
        with pytest.raises(ProtocolInvariantError):
            arr.set_state(9, MESI.M)

    def test_invalidate_returns_prior(self, arr):
        arr.insert(1, MESI.M)
        assert arr.invalidate(1) == MESI.M
        assert arr.invalidate(1) == MESI.I

    def test_touch_absent_raises(self, arr):
        with pytest.raises(ProtocolInvariantError):
            arr.touch(5)


class TestReplacement:
    def test_lru_victim(self, arr):
        # lines 0, 4, 8 all map to set 0 (4 sets).
        arr.insert(0, MESI.S)
        arr.insert(4, MESI.S)
        victim = arr.insert(8, MESI.S)
        assert victim is not None and victim.line == 0
        assert not arr.contains(0)

    def test_touch_refreshes_lru(self, arr):
        arr.insert(0, MESI.S)
        arr.insert(4, MESI.S)
        arr.touch(0)  # now 4 is LRU
        victim = arr.insert(8, MESI.S)
        assert victim.line == 4

    def test_pinned_lines_skipped(self, arr):
        arr.insert(0, MESI.M)
        arr.insert(4, MESI.S)
        victim = arr.insert(8, MESI.S, pinned=lambda ln: ln == 0)
        assert victim.line == 4
        assert arr.contains(0)

    def test_all_pinned_reports_overflow(self, arr):
        arr.insert(0, MESI.M)
        arr.insert(4, MESI.M)
        victim = arr.insert(8, MESI.S, pinned=lambda ln: True)
        assert victim.was_pinned
        # Nothing was evicted and the new line was NOT inserted.
        assert arr.contains(0) and arr.contains(4)
        assert not arr.contains(8)

    def test_set_occupancy(self, arr):
        assert arr.set_occupancy(0) == 0
        arr.insert(0, MESI.S)
        arr.insert(4, MESI.S)
        assert arr.set_occupancy(8) == 2  # same set as 0 and 4
        assert arr.set_occupancy(1) == 0

    def test_eviction_counter(self, arr):
        arr.insert(0, MESI.S)
        arr.insert(4, MESI.S)
        arr.insert(8, MESI.S)
        assert arr.evictions == 1


def test_eviction_order_exhaustive_small_set():
    """Every insertion order over one 4-way set evicts in LRU order."""
    for perm in itertools.permutations(range(5)):
        arr = CacheArray(CacheParams(4 * 64, 4, 2))
        lru = []  # list-LRU model: resident lines, oldest first
        # The fifth distinct line and then line 7 each force an
        # eviction decided purely by recency.
        for line, state in [(ln, MESI.S) for ln in perm] + [(7, MESI.M)]:
            expected = None
            if len(lru) == 4:
                expected = EvictedLine(lru.pop(0), MESI.S, False)
            assert arr.insert(line, state) == expected
            lru.append(line)
        assert sorted(arr.resident_lines()) == sorted(lru)


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.sampled_from([MESI.S, MESI.E, MESI.M])),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_structure_preserved_under_inserts(self, ops):
        arr = CacheArray(CacheParams(8 * 64, 2, 2))
        for line, state in ops:
            arr.insert(line, state)
            arr.check_invariants()
        # Capacity never exceeded.
        assert len(arr) <= 8

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.booleans()),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_insert_invalidate_mix(self, ops):
        arr = CacheArray(CacheParams(8 * 64, 2, 2))
        for line, is_insert in ops:
            if is_insert:
                arr.insert(line, MESI.S)
            else:
                arr.invalidate(line)
            arr.check_invariants()
