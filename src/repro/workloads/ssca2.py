"""ssca2 — scalable synthetic compact applications, kernel 1 (STAMP).

Published profile: *tiny* transactions (a couple of accesses adding a
node to a graph's adjacency arrays) over a very large structure — the
lowest-contention workload in the suite.  HTM shines here because the
coarse lock serializes millions of two-word critical sections; any HTM
variant should beat CGL by a wide margin and the LockillerTM mechanisms
are mostly idle.

Model: per transaction, one read + two writes at random lines of a
32768-line graph region; negligible in-transaction compute.
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

GRAPH_LINES = 32768


class Ssca2Workload(Workload):
    name = "ssca2"
    base_txs = 320
    summary = "graph construction; 3-access txs, minimal contention"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                prog.append(
                    Plain(
                        [
                            compute(rng.integers(15, 45)),
                            load(private_line_addr(t, i % 16)),
                        ]
                    )
                )
                a = rng.integers(0, GRAPH_LINES)
                b = rng.integers(0, GRAPH_LINES)
                reads = [shared_line_addr(a)]
                writes = [
                    (shared_line_addr(a), 1),
                    (shared_line_addr(b), 1),
                ]
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        pre_compute=2,
                        per_op_compute=1,
                        tag=f"ssca2-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs
