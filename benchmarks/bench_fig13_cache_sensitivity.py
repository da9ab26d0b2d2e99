"""Fig. 13 — cache-size sensitivity (8KB/1MB and 128KB/32MB configs).

Paper shape: LockillerTM's average speedup beats both CGL and
requester-wins best-effort HTM in the small *and* large configurations;
the margin over the baseline is largest in the small-cache, many-thread
corner (the paper's extreme scenario reports up to 7.79x vs Baseline and
6.73x vs LosaTM-SAFU on high-contention workloads).
"""

from repro.harness.experiments import (
    extreme_scenario,
    fig13_cache_sensitivity,
    print_fig13,
)


def test_fig13_cache_sensitivity(ctx, publish):
    data, ext = fig13_cache_sensitivity(ctx), extreme_scenario(ctx)
    publish("fig13_cache_sensitivity", print_fig13(ctx))

    hi = max(ctx.threads)
    for label, per_system in data.items():
        # LockillerTM >= baseline HTM on geomean in every configuration.
        assert (
            per_system["LockillerTM"][hi]
            >= per_system["Baseline"][hi] * 0.98
        ), label
    # The paper's amplification claim lives in the high-contention,
    # small-cache corner: the extreme ratio must clearly exceed the
    # all-workload geomean gap at the same thread count.
    small = data["small (8KB/1MB)"]
    geomean_gap_small = small["LockillerTM"][hi] / small["Baseline"][hi]
    assert ext["max vs Baseline"] > geomean_gap_small
    # Extreme corner: clearly super-unit speedups over Baseline.
    assert ext["max vs Baseline"] > 1.5
