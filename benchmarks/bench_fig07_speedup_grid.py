"""Fig. 7 — per-workload speedup of every evaluated system vs CGL.

Paper shape: LockillerTM outperforms coarse-grained locking on every
workload and thread count except yada; the recovery systems already lift
the baseline substantially; HTMLock adds most on fallback-heavy
workloads.
"""

from repro.harness.experiments import fig7_speedup_grid, print_fig7


def test_fig7_speedup_grid(ctx, publish):
    grid = fig7_speedup_grid(ctx)
    publish("fig07_speedup_grid", print_fig7(ctx))

    full = {
        wl: grid[wl]["LockillerTM"] for wl in grid
    }
    # LockillerTM beats CGL everywhere except yada (the paper's claim).
    for wl, series in full.items():
        if wl == "yada":
            continue
        for th, speedup in series.items():
            assert speedup > 1.0, (wl, th, speedup)
    # yada is the concession: no better than ~parity anywhere.
    assert min(full["yada"].values()) < 1.0 or max(full["yada"].values()) < 1.6
    # LockillerTM >= Baseline on the overwhelming majority of cells.
    wins = sum(
        grid[wl]["LockillerTM"][th] >= grid[wl]["Baseline"][th] * 0.98
        for wl in grid
        for th in ctx.threads
    )
    total = len(grid) * len(ctx.threads)
    assert wins >= 0.8 * total
