"""Set-associative cache array with LRU replacement.

Used for the private L1s, the optional private middle level and the
shared inclusive LLC.  Victim selection can be steered away from
transactionally-marked lines — real HTM way-selection does the same —
via the ``pinned`` predicate; when every way of a set is pinned the
caller gets a pinned victim back and must treat it as a capacity
overflow.

Lookup is one dict probe (line -> MESI state); each set keeps its
resident lines in LRU order (oldest first) in a short list, so the LRU
shuffle is ``list.remove`` + ``append`` over at most ``assoc`` entries.
Every step is a C-level primitive, which is why this layout measured
faster under CPython than a flat-arena alternative on eviction-light
and eviction-heavy cells alike (docs/PERFORMANCE.md, PR 8).  Sets are
created on first insert, so construction is O(1) and ``reset()`` is
O(resident lines): machine-pool reuse never pays for the LLC geometry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.common.errors import ProtocolInvariantError
from repro.common.params import CacheParams
from repro.coherence.states import MESI

#: The invalid state as a module constant (a global read is cheaper
#: than the class attribute lookup on every probe).
_I = MESI.I


class EvictedLine(NamedTuple):
    """Result of inserting into a full set."""

    line: int
    state: int
    was_pinned: bool


class CacheArray:
    """Dict-of-LRU-lists tag/state array (see the module docstring)."""

    __slots__ = (
        "params",
        "_state",
        "_sets",
        "_num_sets",
        "_assoc",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        # Cached geometry: set_index is the hottest call in the simulator
        # and the dataclass properties re-derive it per call.
        self._num_sets = params.num_sets
        self._assoc = params.assoc
        if self._num_sets <= 0 or self._assoc <= 0:
            raise ProtocolInvariantError(
                f"degenerate cache geometry: "
                f"{self._num_sets} sets x {self._assoc} ways"
            )
        self._state: Dict[int, int] = {}
        self._sets: Dict[int, List[int]] = {}
        self.reset()

    def reset(self) -> None:
        """Set the run state: the array empty, its counters zeroed."""
        self._state.clear()
        self._sets.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._state)

    def probe(self, line: int) -> int:
        """Current MESI state of ``line`` (I when absent). No LRU update."""
        return self._state.get(line, _I)

    def contains(self, line: int) -> bool:
        return line in self._state

    def touch(self, line: int) -> None:
        """Refresh LRU position after a hit."""
        if line not in self._state:
            raise ProtocolInvariantError(f"touch of absent line {line:#x}")
        s = self._sets[line % self._num_sets]
        if s[-1] != line:
            s.remove(line)
            s.append(line)

    def set_state(self, line: int, state: int) -> None:
        """Change the state of a resident line (upgrades/downgrades)."""
        if line not in self._state:
            raise ProtocolInvariantError(
                f"state change on absent line {line:#x}"
            )
        if state == _I:
            self.invalidate(line)
        else:
            self._state[line] = state

    def insert(
        self,
        line: int,
        state: int,
        pinned: Optional[Callable[[int], bool]] = None,
    ) -> Optional[EvictedLine]:
        """Insert ``line`` in ``state``; return the victim if one is evicted."""
        if state == _I:
            raise ProtocolInvariantError("inserting a line in state I")
        if line in self._state:
            self._state[line] = state
            self.touch(line)
            return None
        idx = line % self._num_sets
        ways = self._sets.get(idx)
        if ways is None:
            # First line of this set: it cannot evict anything.
            self._sets[idx] = [line]
            self._state[line] = state
            return None
        victim: Optional[EvictedLine] = None
        if len(ways) >= self._assoc:
            chosen = None
            if pinned is None:
                chosen = ways[0]
            else:
                for cand in ways:  # LRU order: oldest first
                    if not pinned(cand):
                        chosen = cand
                        break
            if chosen is None:
                # Every way pinned: report overflow, do not evict.
                return EvictedLine(ways[0], self._state[ways[0]], True)
            victim = EvictedLine(chosen, self._state[chosen], False)
            ways.remove(chosen)
            del self._state[chosen]
            self.evictions += 1
        ways.append(line)
        self._state[line] = state
        return victim

    def invalidate(self, line: int) -> int:
        """Drop ``line``; returns its prior state (I when absent)."""
        prior = self._state.pop(line, _I)
        if prior != _I:
            self._sets[line % self._num_sets].remove(line)
        return prior

    def find_unpinned_victim(
        self, line: int, pinned: Callable[[int], bool]
    ) -> Optional[int]:
        """First unpinned resident line of ``line``'s set in LRU order."""
        for cand in self._sets.get(line % self._num_sets, ()):
            if not pinned(cand):
                return cand
        return None

    def lru_line(self, line: int) -> int:
        """Least-recently-used resident line of ``line``'s set."""
        return self._sets[line % self._num_sets][0]

    def resident_lines(self):
        return self._state.keys()

    def state_map(self) -> Dict[int, int]:
        """The live line -> MESI state map, for probes without a call.

        Read-only for callers, except the memory system's inline L1/LLC
        fills and abort flash-invalidation, which pair each change with
        the matching :meth:`set_lists` update.  ``reset`` clears it in
        place, so a held reference stays valid.
        """
        return self._state

    def set_lists(self) -> Dict[int, List[int]]:
        """The live set index -> LRU list map (oldest line first).

        The companion of :meth:`state_map`, under the same rule: the
        memory system's inline fills apply exactly the updates
        :meth:`insert` would (``tests/test_memsys.py`` pins them against
        it).  ``reset`` clears it in place.
        """
        return self._sets

    def resident_states(self):
        """(line, MESI state) view over resident lines — one dict walk."""
        return self._state.items()

    def set_occupancy(self, line: int) -> int:
        """Ways in use in the set that ``line`` maps to."""
        return len(self._sets.get(line % self._num_sets, ()))

    def check_invariants(self) -> None:
        """Structural self-check used by tests and debug runs."""
        seen = 0
        for idx, ways in self._sets.items():
            if len(ways) > self._assoc:
                raise ProtocolInvariantError(
                    f"set {idx} holds {len(ways)} > {self._assoc} ways"
                )
            for line in ways:
                if line % self._num_sets != idx:
                    raise ProtocolInvariantError(
                        f"line {line:#x} filed in wrong set {idx}"
                    )
                if line not in self._state:
                    raise ProtocolInvariantError(
                        f"line {line:#x} in set list but stateless"
                    )
                seen += 1
        if seen != len(self._state):
            raise ProtocolInvariantError(
                f"{len(self._state)} states vs {seen} set entries"
            )
