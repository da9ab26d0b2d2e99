"""bayes — Bayesian network structure learning (STAMP).

The paper **excludes** bayes from its evaluation, citing its "known
unpredictable behavior and highly variable execution time" (§IV-A,
following π-TM).  We implement it anyway so the suite is complete, but
it is *not* registered in the paper sweep (``PAPER_ORDER``); run it
explicitly via ``get_workload("bayes")``.

Published profile: very long transactions with large, *highly variable*
read/write sets (adtree queries + dependency-graph edge insertion) and
high contention on the learner's task list.  The variability is the
defining trait — per-transaction footprints span two orders of
magnitude, so runs whipsaw between fully-speculative and fully-fallback
behaviour depending on the interleaving.

Model: transaction footprints drawn from a heavy-tailed (log-uniform)
distribution between 4 and ~320 lines over an 8192-line adtree region,
plus a hot task-list head and moderate per-op compute.
"""

from __future__ import annotations

import math
from typing import List

from repro.common.rng import RandomStream
from repro.htm.isa import Plain, Segment, compute
from repro.workloads.base import (
    Workload,
    interleave_warmup,
    private_line_addr,
    shared_line_addr,
)
from repro.workloads.mixes import make_txn, pick_lines

ADTREE_LINES = 8192
TASK_HEAD = ADTREE_LINES  # one hot line past the adtree
MIN_FOOTPRINT = 4
MAX_FOOTPRINT = 320


class BayesWorkload(Workload):
    name = "bayes"
    base_txs = 24
    summary = "structure learning; wildly variable tx footprints (excluded)"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        log_lo = math.log(MIN_FOOTPRINT)
        log_hi = math.log(MAX_FOOTPRINT)
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                prog.append(Plain([compute(rng.integers(80, 400))]))
                footprint = round(math.exp(rng.uniform(log_lo, log_hi)))
                n_writes = max(1, footprint // 4)
                picks = pick_lines(rng, ADTREE_LINES, footprint)
                reads = [shared_line_addr(x) for x in picks]
                writes = [
                    (shared_line_addr(x), 1)
                    for x in picks[:n_writes]
                ]
                reads.extend(
                    private_line_addr(t, (i * 3 + j) % 96)
                    for j in range(min(24, footprint))
                )
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        rmw_pairs=[(shared_line_addr(TASK_HEAD), 1)],
                        pre_compute=rng.integers(20, 120),
                        per_op_compute=2,
                        tag=f"bayes-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs
