"""Workload framework: program generation plus functional verification.

A workload turns ``(threads, scale, seed)`` into one micro-op program
per thread.  Generation is fully deterministic from the seed.  Because
every ``STORE`` is an additive delta and the simulator guarantees each
transaction commits exactly once (speculatively, via HTMLock mode, or on
the fallback path), the final memory image must equal the sum of all
program deltas — :func:`expected_final_memory` computes it and the
runner asserts it.  Any lost or double-applied commit, broken isolation
window, or leaked speculative write shows up as a mismatch.

Address-space conventions
=========================

* shared structures start at :data:`SHARED_BASE`, laid out at cache-line
  granularity so contention is controlled by the generators (no
  accidental false sharing);
* per-thread private data lives at :data:`PRIVATE_BASE` + a per-thread
  stride, creating realistic cache pressure without conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.common.rng import RandomStream, substream
from repro.common.types import LINE_SIZE
from repro.htm.isa import OP_STORE, Plain, Segment

SHARED_BASE = 0x0010_0000
PRIVATE_BASE = 0x1000_0000
PRIVATE_STRIDE = 0x0100_0000


def shared_line_addr(index: int) -> int:
    """Byte address of shared line ``index`` (one word per line)."""
    return SHARED_BASE + index * LINE_SIZE

def private_line_addr(thread: int, index: int) -> int:
    return PRIVATE_BASE + thread * PRIVATE_STRIDE + index * LINE_SIZE


@dataclass
class WorkloadBuild:
    """Programs plus their pre-computed functional expectation."""

    name: str
    programs: List[List[Segment]]
    expected: Dict[int, int] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.expected:
            self.expected = expected_final_memory(self.programs)

    def verify(self, memory: Dict[int, int]) -> List[str]:
        """Compare the committed memory image against the expectation."""
        problems: List[str] = []
        for addr, want in self.expected.items():
            got = memory.get(addr, 0)
            if got != want:
                problems.append(
                    f"addr {addr:#x}: expected {want}, got {got}"
                )
                if len(problems) >= 10:
                    problems.append("... (more mismatches suppressed)")
                    return problems
        extra = set(memory) - set(self.expected)
        stray = [a for a in extra if memory[a] != 0]
        if stray:
            problems.append(
                f"{len(stray)} unexpected nonzero addresses, e.g. "
                f"{stray[0]:#x}={memory[stray[0]]}"
            )
        return problems


def expected_final_memory(programs: Sequence[Sequence[Segment]]) -> Dict[int, int]:
    """Interleaving-independent final image of all additive stores."""
    out: Dict[int, int] = {}
    for prog in programs:
        for seg in prog:
            for op in seg.ops:
                if op[0] == OP_STORE and op[2]:
                    out[op[1]] = out.get(op[1], 0) + op[2]
    return {a: v for a, v in out.items() if v != 0}


class Workload:
    """Base class; subclasses implement :meth:`_generate`."""

    #: Registry key and display name.
    name: str = "abstract"
    #: Transactions per thread at scale=1.0 (subclasses override).
    base_txs: int = 100
    #: One-line description of the modeled STAMP application.
    summary: str = ""

    def build(
        self, threads: int, scale: float = 1.0, seed: int = 0
    ) -> WorkloadBuild:
        if threads <= 0:
            raise ValueError("need at least one thread")
        if scale <= 0:
            raise ValueError("scale must be positive")
        rng = substream(seed, "workload", self.name, threads)
        programs = self._generate(threads, scale, rng)
        if len(programs) != threads:
            raise RuntimeError(
                f"{self.name}: generated {len(programs)} programs "
                f"for {threads} threads"
            )
        return WorkloadBuild(self.name, programs, meta=self.metadata())

    def txs_per_thread(self, scale: float) -> int:
        return max(1, int(round(self.base_txs * scale)))

    def metadata(self) -> Dict[str, object]:
        return {"name": self.name, "summary": self.summary}

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        raise NotImplementedError


def interleave_warmup(thread: int, rng: RandomStream) -> Plain:
    """A small staggered warm-up so threads do not start in lockstep."""
    from repro.htm.isa import compute

    jitter = 20 + 13 * thread + rng.integers(0, 40)
    return Plain([compute(jitter)])
