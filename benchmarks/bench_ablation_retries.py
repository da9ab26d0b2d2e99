"""Ablation — Listing 1's TME_MAX_RETRIES budget.

Best-effort HTM's fallback threshold trades speculative retries against
lock serialization.  A tiny budget sends contended transactions to the
(baseline, exclusive) fallback immediately — the degradation spiral the
paper describes in §III-B; a large one burns cycles on doomed retries.
The recovery mechanism flattens this curve because rejected requests
do not consume retries at all.
"""

from dataclasses import replace

from repro.common.params import typical_params
from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

RETRY_BUDGETS = (1, 4, 16)


def test_ablation_retry_budget(ctx, publish):
    def run_with(system, retries):
        base = typical_params()
        params = replace(base, htm=replace(base.htm, max_retries=retries))
        return run_workload(
            get_workload("intruder"),
            RunConfig(
                spec=get_system(system),
                threads=8,
                scale=ctx.scale,
                seed=ctx.seed,
                params=params,
            ),
        )

    def experiment():
        out = {}
        for system in ("Baseline", "LockillerTM-RWI"):
            out[system] = {
                r: {
                    "cycles": (s := run_with(system, r)).execution_cycles,
                    "fallbacks": s.merged().fallback_entries,
                }
                for r in RETRY_BUDGETS
            }
        return out

    data = experiment()
    lines = ["Ablation: max_retries on intruder, 8 threads"]
    for system, rows in data.items():
        for r, row in rows.items():
            lines.append(
                f"  {system:18s} retries={r:2d} cycles={row['cycles']:9d} "
                f"fallbacks={row['fallbacks']}"
            )
    publish("ablation_retries", "\n".join(lines))

    # Fewer retries -> more fallbacks, in both systems.
    for system in data:
        assert data[system][1]["fallbacks"] >= data[system][16]["fallbacks"]
    # In the sane region (>= 4 retries), recovery is nearly insensitive
    # to the budget — rejections do not consume retries — while
    # requester-wins keeps improving with a bigger budget.
    def spread_4_16(system):
        a = data[system][4]["cycles"]
        b = data[system][16]["cycles"]
        return max(a, b) / min(a, b)

    assert spread_4_16("LockillerTM-RWI") <= spread_4_16("Baseline")
    # And recovery at any sane budget beats Baseline at its best.
    best_baseline = min(data["Baseline"][r]["cycles"] for r in (4, 16))
    assert data["LockillerTM-RWI"][4]["cycles"] < best_baseline
