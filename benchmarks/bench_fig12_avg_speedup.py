"""Fig. 12 — average speedup of the evaluated systems vs CGL.

Paper headline: LockillerTM averages 1.86x over requester-wins
best-effort HTM and 1.57x over LosaTM-SAFU (state of the art) at the
typical cache size.  The reproduced shape to check: LockillerTM > every
recovery-only variant > Baseline, and LockillerTM > LosaTM-SAFU.
"""

from repro.harness.experiments import (
    fig12_avg_speedup,
    headline_ratios,
    print_fig12,
)


def test_fig12_avg_speedup(ctx, publish):
    data, heads = fig12_avg_speedup(ctx), headline_ratios(ctx)
    publish("fig12_avg_speedup", print_fig12(ctx))

    hi = max(ctx.threads)
    assert data["LockillerTM"][hi] > data["Baseline"][hi]
    assert data["LockillerTM"][hi] >= data["LosaTM-SAFU"][hi] * 0.95
    assert data["LockillerTM-RWI"][hi] > data["Baseline"][hi]
    # Headline ratios: direction must match (paper: 1.86x / 1.57x).
    assert heads["vs Baseline"] > 1.2
    assert heads["vs LosaTM-SAFU"] > 1.0
