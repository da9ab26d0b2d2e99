"""vacation — travel reservation system (STAMP); low/high contention.

Published profile: medium transactions (tens of accesses) walking
red-black reservation tables.  The ``-`` (low) configuration queries a
wide table with mostly-read transactions; the ``+`` (high) configuration
narrows the table and raises the update fraction, producing frequent
conflicts and — under best-effort HTM — waves of fallback-lock
serialization that the HTMLock mechanism dissolves (Fig. 9 shows
vacation's waitlock time collapsing under LockillerTM-RWIL).

Model: per transaction, ``n_reads`` reads + ``n_writes`` writes over
``table_lines`` lines (relation tables for cars/flights/rooms laid out
consecutively), plus customer-record updates on a hotter sub-region.
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


class VacationWorkload(Workload):
    base_txs = 120
    table_lines = 16384
    customer_lines = 512
    n_reads = 14
    n_writes = 4

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                plain_ops = [compute(rng.integers(50, 140))]
                plain_ops.append(load(private_line_addr(t, i % 40)))
                if rng.random() < 0.06:
                    plain_ops.append(
                        load(
                            shared_line_addr(
                                rng.integers(0, self.table_lines)
                            )
                        )
                    )
                if rng.random() < 0.015:
                    plain_ops.append(
                        store(
                            shared_line_addr(
                                rng.integers(0, self.table_lines)
                            ),
                            1,
                        )
                    )
                prog.append(Plain(plain_ops))

                tbl = pick_lines(rng, self.table_lines, self.n_reads)
                reads = [shared_line_addr(x) for x in tbl]
                wr = pick_lines(rng, self.table_lines, self.n_writes)
                writes = [(shared_line_addr(x), 1) for x in wr]
                cust = self.table_lines + rng.integers(0, self.customer_lines)
                writes.append((shared_line_addr(cust), 1))
                prog.append(
                    make_txn(
                        rng,
                        reads,
                        writes,
                        pre_compute=rng.integers(10, 30),
                        per_op_compute=2,
                        tag=f"{self.name}-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs


class VacationLowWorkload(VacationWorkload):
    name = "vacation-"
    table_lines = 16384
    customer_lines = 1024
    n_reads = 14
    n_writes = 4
    summary = "reservation tables, wide; medium txs, low contention"


class VacationHighWorkload(VacationWorkload):
    name = "vacation+"
    table_lines = 1024
    customer_lines = 128
    n_reads = 18
    n_writes = 7
    summary = "reservation tables, narrow; medium txs, high contention"
