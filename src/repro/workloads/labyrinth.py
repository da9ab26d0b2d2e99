"""labyrinth — maze routing (STAMP).

Published profile: *huge* read/write sets — each transaction privately
copies a large grid region, routes a path, then writes the path back.
The sets far exceed a 4-way private L1's capacity, so best-effort HTM
almost always aborts with a capacity overflow and serializes on the
fallback lock.  This is the showcase for HTMLock + switchingMode: the
overflowing transaction switches to STL mode, spills its sets into the
LLC signatures, keeps its work, and runs concurrently with everyone who
does not touch its path.

Model: per transaction, a long read sweep over the shared grid
(contiguous blocks, ~168 lines), a written-back path (~56 lines), plus
~80 private scratch lines, with heavy in-transaction compute.  Expected
footprint ≈ 300 lines -> overflow is essentially certain at 32 KB
(4-way, 128 sets) and absolutely certain at 8 KB.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import RandomStream
from repro.htm.isa import Plain, Segment, compute, load
from repro.workloads.base import (
    Workload,
    interleave_warmup,
    private_line_addr,
    shared_line_addr,
)
from repro.workloads.mixes import make_txn

GRID_LINES = 16384
READ_BLOCKS = 14
BLOCK_LEN = 12           # 168 read lines
PATH_LEN = 56            # written lines (subset of a read block area)
PRIVATE_SCRATCH = 80


class LabyrinthWorkload(Workload):
    name = "labyrinth"
    base_txs = 20
    summary = "maze routing; ~230-line tx footprints, overflow-bound"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                prog.append(Plain([compute(rng.integers(200, 500))]))
                reads: List[int] = []
                for _ in range(READ_BLOCKS):
                    base = rng.integers(0, GRID_LINES - BLOCK_LEN)
                    reads.extend(
                        shared_line_addr(base + j) for j in range(BLOCK_LEN)
                    )
                path_base = rng.integers(0, GRID_LINES - PATH_LEN)
                writes = [
                    (shared_line_addr(path_base + j), 1)
                    for j in range(PATH_LEN)
                ]
                reads.extend(
                    private_line_addr(t, (i * 7 + j) % 256)
                    for j in range(PRIVATE_SCRATCH)
                )
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        pre_compute=rng.integers(80, 200),
                        per_op_compute=2,
                        tag=f"labyrinth-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs
