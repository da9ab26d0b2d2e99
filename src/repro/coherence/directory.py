"""Directory state for the shared, inclusive LLC.

One :class:`DirEntry` per line records the owner (a core holding E/M) or
the sharers (cores holding S), plus ``busy_until`` — the end of the
line's current protocol transaction, which serializes the blocking
directory exactly like SLICC transient states do: a request arriving
while the line is busy starts service only at ``busy_until``.

Sharers are a per-line bit vector, as in a real full-map directory: one
int with bit ``1 << core`` set per sharing core, like the memory
system's transactional ``tx_readers`` / ``tx_writers`` masks.  A first
touch allocates no set, and membership updates are integer bit ops.
:meth:`DirEntry.copies` and :meth:`Directory.other_copies` still return
sets; :func:`cores_of` walks a mask in ascending core order.

The Single-Writer-Multiple-Readers invariant is checked structurally by
:meth:`Directory.check_swmr` against the actual L1 arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.common.errors import ProtocolInvariantError
from repro.coherence.states import MESI


def cores_of(mask: int) -> Iterator[int]:
    """The cores whose bits are set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        mask -= low
        yield low.bit_length() - 1


class DirEntry:
    __slots__ = ("owner", "sharers", "busy_until")

    def __init__(self) -> None:
        self.owner: int = -1
        #: Bitmask of the cores holding the line in S (bit ``1 << core``).
        self.sharers: int = 0
        self.busy_until: int = 0

    def copies(self) -> Set[int]:
        if self.owner >= 0:
            return {self.owner}
        return set(cores_of(self.sharers))

    @property
    def is_idle(self) -> bool:
        return self.owner < 0 and not self.sharers


class Directory:
    """Full-map directory over all lines ever touched."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, DirEntry] = {}
        self.reset()

    def reset(self) -> None:
        """Set the run state: no line tracked."""
        self._entries.clear()

    def entry(self, line: int) -> DirEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirEntry()
            self._entries[line] = e
        return e

    def peek(self, line: int) -> Optional[DirEntry]:
        return self._entries.get(line)

    def __len__(self) -> int:
        return len(self._entries)

    # -- ownership transitions ------------------------------------------

    def set_exclusive(self, line: int, core: int) -> None:
        e = self.entry(line)
        e.owner = core
        e.sharers = 0

    def add_sharer(self, line: int, core: int) -> None:
        e = self.entry(line)
        if e.owner == core:
            return  # already exclusive; keep stronger state
        if e.owner >= 0:
            raise ProtocolInvariantError(
                f"adding sharer {core} to owned line {line:#x}"
            )
        e.sharers |= 1 << core

    def demote_owner_to_sharer(self, line: int) -> None:
        e = self.entry(line)
        if e.owner < 0:
            raise ProtocolInvariantError(f"no owner to demote on {line:#x}")
        e.sharers |= 1 << e.owner
        e.owner = -1

    def remove_copy(self, line: int, core: int) -> None:
        e = self._entries.get(line)
        if e is None:
            return
        if e.owner == core:
            e.owner = -1
        e.sharers &= ~(1 << core)

    def copies(self, line: int) -> Set[int]:
        e = self._entries.get(line)
        return e.copies() if e is not None else set()

    def other_copies(self, line: int, core: int) -> Set[int]:
        return {c for c in self.copies(line) if c != core}

    def has_other_copies(self, line: int, core: int) -> bool:
        """Allocation-free truthiness of :meth:`other_copies`.

        The access fast path only needs *whether* another core holds the
        line, not the set itself.
        """
        e = self._entries.get(line)
        if e is None:
            return False
        owner = e.owner
        if owner >= 0:
            return owner != core
        return e.sharers & ~(1 << core) != 0

    def owner_of(self, line: int) -> int:
        e = self._entries.get(line)
        return e.owner if e is not None else -1

    # -- validation ------------------------------------------------------

    def check_swmr(self, l1_arrays: List) -> None:
        """Assert SWMR + directory/L1 agreement (tests & debug mode).

        * at most one core in E/M per line, and then no sharers;
        * every L1 copy is recorded at the directory and vice versa.

        Membership and integer tests only.  Two E/M copies of one line
        cannot both match the directory's single owner, so the owner
        check also enforces the single writer.
        """
        held = [arr.resident_lines() for arr in l1_arrays]
        n = len(held)
        for line, e in self._entries.items():
            owner = e.owner
            sharers = e.sharers
            if owner >= 0:
                if sharers and sharers != 1 << owner:
                    raise ProtocolInvariantError(
                        f"line {line:#x}: owner {owner} plus sharers "
                        f"{list(cores_of(sharers))}"
                    )
                if owner >= n or line not in held[owner]:
                    raise ProtocolInvariantError(
                        f"directory owner {owner} of {line:#x} does not "
                        "hold it"
                    )
            else:
                for core in cores_of(sharers):
                    if core >= n or line not in held[core]:
                        raise ProtocolInvariantError(
                            f"directory sharer {core} of {line:#x} does "
                            "not hold it"
                        )
        E, M, S = MESI.E, MESI.M, MESI.S
        entries = self._entries
        for core, arr in enumerate(l1_arrays):
            for line, st in arr.resident_states():
                recorded = entries.get(line)
                if recorded is None:
                    raise ProtocolInvariantError(
                        f"L1[{core}] holds untracked line {line:#x}"
                    )
                if st == E or st == M:
                    if recorded.owner != core:
                        raise ProtocolInvariantError(
                            f"L1[{core}] has {line:#x} in "
                            f"{MESI.name(st)} but directory owner is "
                            f"{recorded.owner}"
                        )
                elif st == S:
                    if (
                        not recorded.sharers >> core & 1
                        and recorded.owner != core
                    ):
                        raise ProtocolInvariantError(
                            f"L1[{core}] shares {line:#x} unknown to "
                            "directory"
                        )

    def lines(self) -> Iterable[int]:
        return self._entries.keys()
