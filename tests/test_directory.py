"""Unit tests for the directory (owner/sharers, SWMR checking)."""

import pytest

from repro.common.errors import ProtocolInvariantError
from repro.common.params import CacheParams
from repro.coherence.cachearray import CacheArray
from repro.coherence.directory import Directory, cores_of
from repro.coherence.states import MESI


@pytest.fixture
def directory() -> Directory:
    return Directory()


class TestTransitions:
    def test_fresh_entry_idle(self, directory):
        e = directory.entry(1)
        assert e.is_idle
        assert e.owner == -1 and not e.sharers

    def test_set_exclusive(self, directory):
        directory.add_sharer(1, 0)
        directory.set_exclusive(1, 2)
        e = directory.entry(1)
        assert e.owner == 2 and not e.sharers
        assert directory.copies(1) == {2}

    def test_add_sharer(self, directory):
        directory.add_sharer(1, 0)
        directory.add_sharer(1, 3)
        assert directory.copies(1) == {0, 3}

    def test_add_sharer_to_owned_line_raises(self, directory):
        directory.set_exclusive(1, 2)
        with pytest.raises(ProtocolInvariantError):
            directory.add_sharer(1, 0)

    def test_add_sharer_owner_is_noop(self, directory):
        directory.set_exclusive(1, 2)
        directory.add_sharer(1, 2)  # keeps exclusive state
        assert directory.owner_of(1) == 2

    def test_demote_owner(self, directory):
        directory.set_exclusive(1, 2)
        directory.demote_owner_to_sharer(1)
        e = directory.entry(1)
        assert e.owner == -1 and e.sharers == 1 << 2
        assert directory.copies(1) == {2}

    def test_demote_without_owner_raises(self, directory):
        directory.add_sharer(1, 0)
        with pytest.raises(ProtocolInvariantError):
            directory.demote_owner_to_sharer(1)

    def test_remove_copy(self, directory):
        directory.add_sharer(1, 0)
        directory.add_sharer(1, 3)
        directory.remove_copy(1, 0)
        assert directory.copies(1) == {3}
        directory.remove_copy(1, 3)
        assert directory.entry(1).is_idle

    def test_remove_copy_owner(self, directory):
        directory.set_exclusive(1, 2)
        directory.remove_copy(1, 2)
        assert directory.owner_of(1) == -1

    def test_remove_copy_untracked_line_is_noop(self, directory):
        directory.remove_copy(99, 0)

    def test_other_copies(self, directory):
        directory.add_sharer(1, 0)
        directory.add_sharer(1, 3)
        assert directory.other_copies(1, 0) == {3}
        assert directory.other_copies(1, 5) == {0, 3}

    def test_sharers_beyond_core_eight_walk_in_core_order(self, directory):
        # An eight-slot set files core 9 in slot 1, ahead of core 3, so
        # it iterates {3, 9} as 9, 3; the mask walk is ascending.
        for core in (9, 3, 12):
            directory.add_sharer(4, core)
        e = directory.entry(4)
        assert e.sharers == 1 << 3 | 1 << 9 | 1 << 12
        assert list(cores_of(e.sharers)) == [3, 9, 12]
        assert directory.other_copies(4, 9) == {3, 12}
        assert directory.has_other_copies(4, 9)
        directory.remove_copy(4, 3)
        directory.remove_copy(4, 12)
        assert not directory.has_other_copies(4, 9)


class TestSwmrCheck:
    def _l1s(self, n=2, sets=4, ways=2):
        return [CacheArray(CacheParams(sets * ways * 64, ways, 2)) for _ in range(n)]

    def test_consistent_state_passes(self, directory):
        l1s = self._l1s()
        l1s[0].insert(1, MESI.M)
        directory.set_exclusive(1, 0)
        l1s[1].insert(2, MESI.S)
        directory.add_sharer(2, 1)
        directory.check_swmr(l1s)

    def test_two_owners_detected(self, directory):
        l1s = self._l1s()
        l1s[0].insert(1, MESI.M)
        l1s[1].insert(1, MESI.M)
        directory.set_exclusive(1, 0)
        with pytest.raises(ProtocolInvariantError):
            directory.check_swmr(l1s)

    def test_untracked_l1_line_detected(self, directory):
        l1s = self._l1s()
        l1s[0].insert(1, MESI.S)
        with pytest.raises(ProtocolInvariantError):
            directory.check_swmr(l1s)

    def test_owner_mismatch_detected(self, directory):
        l1s = self._l1s()
        l1s[0].insert(1, MESI.E)
        directory.entry(1)  # tracked, but no owner recorded
        with pytest.raises(ProtocolInvariantError):
            directory.check_swmr(l1s)

    def test_unknown_sharer_detected(self, directory):
        l1s = self._l1s()
        l1s[1].insert(2, MESI.S)
        directory.entry(2)
        with pytest.raises(ProtocolInvariantError):
            directory.check_swmr(l1s)

    def test_owner_plus_sharer_entry_detected(self, directory):
        e = directory.entry(1)
        e.owner = 0
        e.sharers = 1 << 1
        with pytest.raises(ProtocolInvariantError):
            directory.check_swmr(self._l1s())

    def test_owner_plus_foreign_sharer_raises_even_when_held(self, directory):
        # Both copies exist at the L1s, so only the entry check fires.
        l1s = self._l1s()
        l1s[0].insert(1, MESI.M)
        l1s[1].insert(1, MESI.S)
        e = directory.entry(1)
        e.owner = 0
        e.sharers = 1 << 0 | 1 << 1
        with pytest.raises(
            ProtocolInvariantError, match=r"owner 0 plus sharers \[0, 1\]"
        ):
            directory.check_swmr(l1s)

    def test_owner_listed_as_its_own_sharer_passes(self, directory):
        l1s = self._l1s()
        l1s[0].insert(1, MESI.M)
        e = directory.entry(1)
        e.owner = 0
        e.sharers = 1 << 0
        directory.check_swmr(l1s)

    def test_stale_sharer_detected(self, directory):
        # The directory lists core 1 as a sharer it no longer holds.
        l1s = self._l1s()
        l1s[0].insert(2, MESI.S)
        directory.add_sharer(2, 0)
        directory.add_sharer(2, 1)
        with pytest.raises(
            ProtocolInvariantError, match="sharer 1 of 0x2 does not hold"
        ):
            directory.check_swmr(l1s)

    def test_stale_owner_detected(self, directory):
        l1s = self._l1s()
        directory.set_exclusive(3, 1)
        with pytest.raises(
            ProtocolInvariantError, match="owner 1 of 0x3 does not hold"
        ):
            directory.check_swmr(l1s)

    def test_owner_beyond_checked_arrays_detected(self, directory):
        directory.set_exclusive(3, 5)
        with pytest.raises(ProtocolInvariantError, match="owner 5"):
            directory.check_swmr(self._l1s())

    def test_busy_until_default_zero(self, directory):
        assert directory.entry(5).busy_until == 0
