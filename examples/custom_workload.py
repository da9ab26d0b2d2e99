#!/usr/bin/env python
"""Define your own transactional workload against the public API.

This example builds a bank-transfer kernel from scratch — N accounts,
each transaction moves money between two random accounts and bumps a
global transfer counter — registers nothing, and runs it directly
through :func:`repro.run_workload` on three systems.  The conserved-sum
invariant (total balance never changes; the counter equals the number of
transfers) is checked explicitly at the end, on top of the runner's
built-in verification.

Run:  python examples/custom_workload.py
"""

from typing import List

from repro import RunConfig, get_system, run_workload
from repro.common.rng import RandomStream
from repro.htm.isa import Plain, Segment, compute
from repro.workloads.base import (
    Workload,
    interleave_warmup,
    shared_line_addr,
)
from repro.workloads.mixes import make_txn

N_ACCOUNTS = 64
#: The transfer counter is sharded (like any scalable concurrent
#: counter) so it does not become an artificial global serialization
#: point; the invariant sums the shards.
N_COUNTER_SHARDS = 16
COUNTER_BASE = N_ACCOUNTS  # lines past the accounts
TRANSFER = 10


class BankWorkload(Workload):
    """Random pairwise transfers over a small shared account table."""

    name = "bank"
    base_txs = 120
    summary = "pairwise transfers; conserved total balance"

    def _generate(
        self, threads: int, scale: float, rng: RandomStream
    ) -> List[List[Segment]]:
        n_txs = self.txs_per_thread(scale)
        programs: List[List[Segment]] = []
        for t in range(threads):
            prog: List[Segment] = [interleave_warmup(t, rng)]
            for i in range(n_txs):
                prog.append(Plain([compute(rng.integers(20, 60))]))
                src, dst = rng.choice(N_ACCOUNTS, size=2, replace=False)
                shard = COUNTER_BASE + (t % N_COUNTER_SHARDS)
                prog.append(
                    make_txn(
                        rng,
                        reads=[],
                        writes=[],
                        rmw_pairs=[
                            (shared_line_addr(src), -TRANSFER),
                            (shared_line_addr(dst), +TRANSFER),
                            (shared_line_addr(shard), 1),
                        ],
                        pre_compute=6,
                        per_op_compute=2,
                        tag=f"transfer-{t}-{i}",
                    )
                )
            programs.append(prog)
        return programs


def main() -> None:
    workload = BankWorkload()
    threads, scale, seed = 8, 0.5, 99
    n_transfers = threads * workload.txs_per_thread(scale)
    print(f"{n_transfers} transfers across {N_ACCOUNTS} accounts, "
          f"{threads} threads\n")

    for system in ("CGL", "Baseline", "LockillerTM"):
        stats = run_workload(
            workload,
            RunConfig(
                spec=get_system(system), threads=threads, scale=scale, seed=seed
            ),
        )
        print(
            f"{system:12s} cycles={stats.execution_cycles:9d} "
            f"commit_rate={stats.commit_rate:.2f} aborts={stats.total_aborts}"
        )

    # Explicit invariant check on the last run's committed image: the
    # runner already verified the exact memory image; re-derive the
    # domain-level facts for illustration.
    build = workload.build(threads, scale, seed)
    balances = [
        build.expected.get(shared_line_addr(i), 0) for i in range(N_ACCOUNTS)
    ]
    counter = sum(
        build.expected.get(shared_line_addr(COUNTER_BASE + s), 0)
        for s in range(N_COUNTER_SHARDS)
    )
    assert sum(balances) == 0, "money was created or destroyed!"
    assert counter == n_transfers
    print(
        f"\ninvariants hold: total balance delta = {sum(balances)}, "
        f"counter = {counter} transfers"
    )


if __name__ == "__main__":
    main()
