"""Fluent builder for micro-op programs.

The tuple-based ISA is fast to interpret but noisy to write by hand;
``ProgramBuilder`` gives custom workloads a readable surface mirroring
the paper's programming interface (Listing 1/2's critical sections
become ``with builder.txn():`` blocks)::

    b = ProgramBuilder()
    b.compute(120)                      # non-transactional work
    with b.txn(tag="transfer"):
        b.rmw(src_addr, -10)
        b.rmw(dst_addr, +10)
    b.compute(40)
    program = b.build()

Nested ``txn()`` blocks are *flattened*, matching ARM TME / Intel RTM
semantics (the outermost transaction wins; inner begins only bump the
nesting depth that ``ttest`` reports).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.common.errors import ConfigError
from repro.htm.isa import (
    Op,
    Plain,
    Segment,
    Txn,
    compute,
    fault,
    load,
    store,
)


class ProgramBuilder:
    """Accumulates segments for one thread's program."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._plain_ops: List[Op] = []
        self._txn_ops: Optional[List[Op]] = None
        self._txn_tag = ""
        self._nesting = 0

    # -- op emission -----------------------------------------------------

    def _emit(self, op: Op) -> "ProgramBuilder":
        if self._txn_ops is not None:
            self._txn_ops.append(op)
        else:
            self._plain_ops.append(op)
        return self

    def compute(self, cycles: int) -> "ProgramBuilder":
        """``cycles`` of local ALU work."""
        return self._emit(compute(cycles))

    def load(self, addr: int) -> "ProgramBuilder":
        """Read the word at ``addr``."""
        return self._emit(load(addr))

    def store(self, addr: int, delta: int = 0) -> "ProgramBuilder":
        """Add ``delta`` to the word at ``addr``."""
        return self._emit(store(addr, delta))

    def rmw(self, addr: int, delta: int) -> "ProgramBuilder":
        """Adjacent load+store of one word (atomic counter update)."""
        self._emit(load(addr))
        return self._emit(store(addr, delta))

    def fault(self, persistent: bool = False) -> "ProgramBuilder":
        """An exception point; only meaningful inside a transaction."""
        if self._txn_ops is None:
            raise ConfigError(
                "fault outside a transaction would just trap; put it in "
                "a txn() block (plain traps are modeled as compute)"
            )
        return self._emit(fault(persistent))

    # -- structure ---------------------------------------------------------

    def _flush_plain(self) -> None:
        if self._plain_ops:
            self._segments.append(Plain(self._plain_ops))
            self._plain_ops = []

    @contextmanager
    def txn(self, tag: str = "") -> Iterator["ProgramBuilder"]:
        """A critical section; nesting flattens into the outer txn."""
        if self._txn_ops is not None:
            # Flat nesting: inner begin/end are subsumed (TME-style).
            self._nesting += 1
            try:
                yield self
            finally:
                self._nesting -= 1
            return
        self._flush_plain()
        self._txn_ops = []
        self._txn_tag = tag
        try:
            yield self
        finally:
            ops = self._txn_ops
            self._txn_ops = None
            if not ops:
                raise ConfigError(f"empty transaction {tag!r}")
            self._segments.append(Txn(ops, tag=self._txn_tag))
            self._txn_tag = ""

    @property
    def nesting_depth(self) -> int:
        """Current flat-nesting depth (0 outside any transaction)."""
        if self._txn_ops is None:
            return 0
        return 1 + self._nesting

    def build(self) -> List[Segment]:
        """Finalize; the builder can be reused afterwards."""
        if self._txn_ops is not None:
            raise ConfigError("build() inside an open txn() block")
        self._flush_plain()
        out = self._segments
        self._segments = []
        return out


def build_programs(n_threads: int, fn) -> List[List[Segment]]:
    """Build one program per thread: ``fn(builder, thread_id)``."""
    programs = []
    for t in range(n_threads):
        b = ProgramBuilder()
        fn(b, t)
        programs.append(b.build())
    return programs
