"""intruder — network intrusion detection (STAMP).

Published profile: **short transactions, high contention**.  Each
iteration of the real benchmark runs *three separate transactions*:

1. a tiny queue *pop* (read-modify-write of the shared queue head),
2. a medium fragment-reassembly *map* transaction (dictionary
   lookups/inserts), and
3. a tiny *push* of the decoded packet onto a second queue.

The hot queue pointers are held in a write set only for the few cycles
of the pop/push transactions, so the map work parallelizes while the
queue accesses serialize — under requester-wins the pop transactions
friendly-fire each other into the fallback path (the paper's motivating
pathology), which the recovery mechanism's insts-based priority turns
into clean reject-and-wait serialization.

Model: per iteration, a 3-op pop transaction on hot line 0 (sometimes
also line 1), a 9-access dictionary transaction over 512 lines with a
semi-hot counter, and (30% of iterations) a 2-op push transaction.
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
from repro.workloads.mixes import make_txn, pick_lines

QUEUE_HEAD = 0
QUEUE_TAIL = 1
COUNTER_LINES = 8       # lines 2..9
DICT_BASE = 16
DICT_LINES = 512


class IntruderWorkload(Workload):
    name = "intruder"
    base_txs = 80  # iterations per thread; ~2.3 transactions each
    summary = "queue pop / map insert / queue push; high contention"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_iters = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_iters):
                # Capture/decode phase: private, non-transactional.
                plain_ops = [compute(rng.integers(90, 220))]
                plain_ops.append(load(private_line_addr(t, i % 32)))
                if rng.random() < 0.05:
                    plain_ops.append(
                        load(
                            shared_line_addr(
                                DICT_BASE + rng.integers(0, DICT_LINES)
                            )
                        )
                    )
                prog.append(Plain(plain_ops))

                # (1) pop: a compact RMW of the queue head.
                prog.append(
                    make_txn(
                        rng,
                        reads=[],
                        writes=[],
                        rmw_pairs=[(shared_line_addr(QUEUE_HEAD), 1)],
                        pre_compute=2,
                        per_op_compute=1,
                        tag=f"intruder-pop-{t}-{i}",
                    )
                )

                # Decode between transactions.
                prog.append(Plain([compute(rng.integers(40, 110))]))

                # (2) reassembly map: the medium transaction (the bulk of
                # the work, diluting queue-pointer pressure).
                dict_picks = pick_lines(rng, DICT_LINES, 12)
                reads = [
                    shared_line_addr(DICT_BASE + x)
                    for x in dict_picks[:8]
                ]
                writes = [
                    (shared_line_addr(DICT_BASE + x), 1)
                    for x in dict_picks[8:12]
                ]
                counter = 2 + rng.integers(0, COUNTER_LINES)
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        rmw_pairs=[(shared_line_addr(counter), 1)],
                        pre_compute=rng.integers(8, 24),
                        per_op_compute=2,
                        tag=f"intruder-map-{t}-{i}",
                    )
                )

                # (3) push the decoded packet (30% of iterations).
                if rng.random() < 0.3:
                    prog.append(
                        make_txn(
                            rng,
                            reads=[],
                            writes=[],
                            rmw_pairs=[(shared_line_addr(QUEUE_TAIL), 1)],
                            pre_compute=2,
                            per_op_compute=1,
                            tag=f"intruder-push-{t}-{i}",
                        )
                    )
            programs.append(prog)
        return programs
