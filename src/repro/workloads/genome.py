"""genome — gene sequencing (STAMP).

Published profile: moderate transaction lengths, moderate read/write
sets, *low* contention (hash-set segment deduplication followed by
Rabin-Karp style linking).  Transactions mostly insert into a large
shared hash table, so conflicts are rare but not negligible; best-effort
HTM does well, and the HTMLock mechanism removes the residual
serialization when an unlucky streak sends one thread to the fallback
path.

Model: each transaction probes ``TABLE_LINES`` hash-table lines (6
reads) and inserts (3 writes), with a little in-transaction compute.
Between transactions threads run private compute plus occasional plain
reads of the shared table (the barrier-phase accesses that produce the
paper's ``non_tran`` abort category).
"""

from __future__ import annotations

from typing import List

from repro.common.rng import RandomStream
from repro.htm.isa import Plain, Segment, compute, load, store
from repro.workloads.base import (
    Workload,
    interleave_warmup,
    private_line_addr,
    shared_line_addr,
)
from repro.workloads.mixes import make_txn, pick_lines

TABLE_LINES = 4096
LINK_LINES = 2048


class GenomeWorkload(Workload):
    name = "genome"
    base_txs = 160
    summary = "hash-table segment dedup; moderate txs, low contention"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                # Non-transactional phase: private work + rare shared read.
                plain_ops = [compute(rng.integers(40, 120))]
                for k in range(2):
                    plain_ops.append(load(private_line_addr(t, (i * 2 + k) % 64)))
                if rng.random() < 0.08:
                    plain_ops.append(
                        load(shared_line_addr(rng.integers(0, TABLE_LINES)))
                    )
                if rng.random() < 0.02:
                    plain_ops.append(
                        store(
                            shared_line_addr(rng.integers(0, TABLE_LINES)),
                            1,
                        )
                    )
                prog.append(Plain(plain_ops))

                probes = pick_lines(rng, TABLE_LINES, 6)
                inserts = pick_lines(rng, TABLE_LINES, 2)
                link = TABLE_LINES + rng.integers(0, LINK_LINES)
                reads = [shared_line_addr(x) for x in probes]
                writes = [(shared_line_addr(x), 1) for x in inserts]
                writes.append((shared_line_addr(link), 1))
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        pre_compute=rng.integers(8, 24),
                        per_op_compute=2,
                        tag=f"genome-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs
