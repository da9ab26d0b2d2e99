"""yada — Yet Another Delaunay Application (STAMP).

Published profile: long transactions with large read/write sets (cavity
re-triangulation) **and frequent exceptions** — the workload the paper
explicitly concedes: "except for the yada workload due to many
exceptions, which the best-effort HTM and LockillerTM do not support"
(§IV-B).  Most transactions either fault or overflow, so they execute on
the fallback path; LockillerTM's switchingMode still rescues the
overflow-only transactions (Fig. 11 shows yada's commit rate rising),
but faulting transactions roll back exactly as in best-effort HTM
because §III-C chooses not to support switching on exceptions.

Model: per transaction, ~48 reads + ~24 writes over an 8192-line mesh,
~40 private scratch lines (cache pressure -> occasional overflow at the
typical L1, pervasive at 8 KB), a 12% chance of a one-shot page fault
(resolved after the first trip) and a **70% chance of a persistent
fault** — cavity refinement allocates memory / re-balances structures in
ways that can never complete speculatively, modeling the paper's "many
exceptions, which the best-effort HTM and LockillerTM do not support".
With ~82% of transactions faulting, nearly all work lands on the
serialized fallback path *after a wasted speculative attempt* — which is
what makes yada the one workload where coarse-grained locking wins.
"""

from __future__ import annotations

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

MESH_LINES = 8192
READS = 48
WRITES = 24
PRIVATE_SCRATCH = 40
FAULT_ONCE_P = 0.05
FAULT_PERSISTENT_P = 0.92
#: Cavity bases are drawn from a narrow active front of the mesh, so the
#: few transactions that do run speculatively also collide with the
#: fallback stream's writes (real Delaunay refinement works a frontier).
ACTIVE_FRONT_LINES = 1536


class YadaWorkload(Workload):
    name = "yada"
    base_txs = 32
    summary = "Delaunay refinement; big txs, many exceptions"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                prog.append(Plain([compute(rng.integers(100, 300))]))
                # Cavity: a contiguous region plus scattered neighbours.
                base = rng.integers(0, ACTIVE_FRONT_LINES - 32)
                reads = [shared_line_addr(base + j) for j in range(32)]
                scattered = pick_lines(rng, MESH_LINES, READS - 32)
                reads.extend(shared_line_addr(x) for x in scattered)
                writes = [
                    (shared_line_addr(base + j), 1) for j in range(WRITES)
                ]
                reads.extend(
                    private_line_addr(t, (i * 5 + j) % 128)
                    for j in range(PRIVATE_SCRATCH)
                )
                n_stream = len(reads) + len(writes)
                # Faults fire early: page faults / allocation happen on
                # first touch of the fresh cavity, so a doomed attempt
                # wastes little work and prefetches almost nothing.
                early = max(1, n_stream // 4)
                fault_at = None
                persistent = False
                roll = rng.random()
                if roll < FAULT_PERSISTENT_P:
                    fault_at = rng.integers(0, early)
                    persistent = True
                elif roll < FAULT_PERSISTENT_P + FAULT_ONCE_P:
                    fault_at = rng.integers(0, early)
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        pre_compute=rng.integers(40, 120),
                        per_op_compute=2,
                        tag=f"yada-{t}-{i}",
                        fault_at=fault_at,
                        fault_persistent=persistent,
                    )
                )
            programs.append(prog)
        return programs
