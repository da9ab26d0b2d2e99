#!/usr/bin/env python
"""Chaos campaign tour: fault plans, the watchdog, resilient sweeps.

Walks the three layers of ``repro.resilience``:

1. arm a composable :class:`FaultPlan` on a single run and show that the
   functional result survives, and that the same seed reproduces the
   exact same injected faults on a machine reused from the pool;
2. provoke a genuine livelock with an adversarial reject storm and catch
   the watchdog's structured :class:`LivelockError` — then rerun with
   the bounded-retry escape hatch and watch the machine degrade
   gracefully to the lock path instead;
3. run a small crash-tolerant sweep with a quarantined cell, then
   resume it through the run cache: the second pass serves every good
   cell from the cache and retries only the quarantined one.

Run:  python examples/chaos_campaign.py
(exits non-zero if the second fault-planned run differs from the first
or did not reuse a pooled machine, or if the resumed pass re-runs a
good cell)
"""

import sys
import tempfile

from repro import (
    LivelockError,
    Machine,
    RunConfig,
    WatchdogConfig,
    get_plan,
    get_system,
    get_workload,
    run_workload,
)
from repro.common.errors import ConfigError
from repro.harness.export import fingerprint
from repro.harness.sweeps import Sweep
from repro.htm.isa import Txn, compute, store
from repro.resilience import FaultPlan
from repro.resilience.harness import RetryPolicy
from repro.sim.fuzz import fuzz_params
from repro.sim.pool import global_pool

SEED = 2024


def layer1_fault_injection() -> bool:
    """Returns whether the second run reproduced the first on a
    reused pooled machine."""
    print("=== 1. deterministic fault injection ===")
    plan = get_plan("jitter") | get_plan("lossy")
    print(f"plan: {plan.describe()}")
    runs = []
    for attempt in ("first", "second"):
        reuses = global_pool().reuses
        stats = run_workload(
            get_workload("intruder"),
            RunConfig(
                spec=get_system("LockillerTM"),
                threads=4,
                scale=0.1,
                seed=SEED,
                fault_plan=plan,
                watchdog=WatchdogConfig(),
            ),
        )
        reused = global_pool().reuses > reuses
        runs.append((stats.execution_cycles, fingerprint(stats)))
        print(
            f"{attempt} run: {stats.execution_cycles} cycles, "
            f"commit rate {stats.commit_rate:.2f}, "
            f"{'reused' if reused else 'new'} pooled machine"
        )
    same = runs[0] == runs[1]
    verdict = "identical cycles and fingerprint" if same else "DIFFERENT runs"
    print(f"same seed, same plan -> {verdict}\n")
    return same and reused


def layer2_watchdog() -> None:
    print("=== 2. forward-progress watchdog ===")
    progs = [
        [Txn([store(0, 1), compute(50)])],
        [Txn([store(0, 1), compute(50)])],
    ]
    storm = FaultPlan(name="storm", reject_storm_prob=1.0)
    machine = Machine(
        fuzz_params(4),
        get_system("LockillerTM-RRI"),  # RetryLater: retries forever
        progs,
        seed=3,
        fault_plan=storm,
        watchdog=WatchdogConfig(horizon=200_000),
    )
    try:
        machine.run()
    except LivelockError as err:
        print("caught the livelock:")
        print(err)
    escaped = FaultPlan(
        name="storm-esc", reject_storm_prob=1.0, escape_rejects=3
    )
    machine = Machine(
        fuzz_params(4),
        get_system("LockillerTM-RRI"),
        progs,
        seed=3,
        fault_plan=escaped,
        watchdog=WatchdogConfig(horizon=200_000),
    )
    cycles = machine.run()
    print(
        f"\nwith escape_rejects=3: completes in {cycles} cycles "
        f"({machine.injector.escapes_taken} escapes to the lock path)\n"
    )


def layer3_resilient_sweep() -> int:
    """Returns how many good cells the resumed pass ran again."""
    print("=== 3. crash-tolerant sweep ===")

    def resolver(name):
        if name == "Broken":
            raise ConfigError("deliberately broken system")
        return get_system(name)

    sweep = Sweep(
        workloads=("ssca2",),
        systems=("CGL", "Broken", "LockillerTM"),
        threads=(2,),
        seeds=(1,),
        scale=0.05,
        spec_resolver=resolver,
    )
    with tempfile.TemporaryDirectory() as cache:
        report = sweep.run_resilient(
            cache=cache, retry=RetryPolicy(max_attempts=2)
        )
        print(report.render())
        resumed = sweep.run_resilient(
            cache=cache, retry=RetryPolicy(max_attempts=2)
        )
    rerun = resumed.executed - len(resumed.quarantined)
    print(
        f"second pass: {resumed.resumed} cell(s) served from the "
        f"run cache, {rerun} good cell(s) re-run"
    )
    return rerun


if __name__ == "__main__":
    if not layer1_fault_injection():
        sys.exit("the second fault-planned run differed or was not pooled")
    layer2_watchdog()
    if layer3_resilient_sweep() != 0:
        sys.exit("resume re-ran good cells instead of serving them")
