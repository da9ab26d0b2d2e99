"""kmeans — clustering (STAMP); low- and high-contention variants.

Published profile: *very short* transactions updating one cluster
center each.  Contention is set by the number of clusters: the ``-``
(low) configuration spreads updates over many centers, the ``+`` (high)
configuration hammers a handful.  The paper reports kmeans+ reaching a
100% commit rate once HTMLock lets lock transactions coexist — its
transactions are short enough that the recovery mechanism alone resolves
essentially every conflict with a reject-and-wait instead of an abort.

Model: each transaction reads one private point line and adds into one
cluster-center line (read + write) plus a shared membership counter.
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


class KMeansWorkload(Workload):
    base_txs = 250
    clusters = 256

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                # Distance computation over the private point: non-tx.
                prog.append(
                    Plain(
                        [
                            compute(rng.integers(30, 90)),
                            load(private_line_addr(t, i % 48)),
                        ]
                    )
                )
                center = rng.integers(0, self.clusters)
                counter = self.clusters + center
                prog.append(
                    make_txn(
                        rng,
                        reads=[],
                        writes=[],
                        rmw_pairs=[
                            (shared_line_addr(center), 1),
                            (shared_line_addr(counter), 1),
                        ],
                        pre_compute=4,
                        per_op_compute=1,
                        tag=f"{self.name}-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs


class KMeansLowWorkload(KMeansWorkload):
    name = "kmeans-"
    clusters = 256
    summary = "tiny txs over 256 cluster centers; low contention"


class KMeansHighWorkload(KMeansWorkload):
    name = "kmeans+"
    clusters = 16
    summary = "tiny txs over 16 cluster centers; high contention"
