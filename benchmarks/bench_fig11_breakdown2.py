"""Fig. 11 — execution-time breakdown with the switchLock category,
2 threads.

Paper shape: under LockillerTM (vs RWIL) a new ``switchLock`` slice
appears — transactions that proactively switched to HTMLock mode keep
their work — and commit rates rise on the overflow-prone workloads
(labyrinth, yada), shrinking wasted transaction time.
"""

from repro.harness.experiments import (
    FIG11_SYSTEMS,
    fig11_breakdown2,
    print_fig11,
)


def test_fig11_breakdown2(ctx, publish):
    data = fig11_breakdown2(ctx)
    publish("fig11_breakdown2", print_fig11(ctx))

    for wl, per_system in data.items():
        assert set(per_system) == set(FIG11_SYSTEMS)
        # RWIL has no switchingMode, so no switchLock time at all.
        assert per_system["LockillerTM-RWIL"]["fractions"]["switchLock"] == 0.0

    # The switchLock category materializes where overflows dominate.
    overflowy = [w for w in ("labyrinth", "yada") if w in data]
    assert any(
        data[w]["LockillerTM"]["fractions"]["switchLock"] > 0 for w in overflowy
    )
    # ... and commit rate does not regress there.
    for w in overflowy:
        assert (
            data[w]["LockillerTM"]["commit_rate"]
            >= data[w]["LockillerTM-RWIL"]["commit_rate"] - 1e-9
        )
