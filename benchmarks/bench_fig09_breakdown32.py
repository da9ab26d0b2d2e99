"""Fig. 9 — execution-time breakdown + commit rate at max threads.

Paper shape (32 threads, HTMLock ablation RWI vs RWL vs RWIL): the
HTMLock mechanism collapses ``waitlock`` time on genome / vacation± /
intruder by letting lock transactions run concurrently with HTM
transactions, and lifts commit rates because transactions that do not
conflict with the lock transaction now survive.
"""

from repro.harness.experiments import (
    FIG9_SYSTEMS,
    fig9_breakdown32,
    print_fig9,
)


def test_fig9_breakdown32(ctx, publish):
    data = fig9_breakdown32(ctx)
    publish("fig09_breakdown32", print_fig9(ctx))

    assert set(data) == set(ctx.workloads)
    for wl, per_system in data.items():
        assert set(per_system) == set(FIG9_SYSTEMS)
        for entry in per_system.values():
            assert abs(sum(entry["fractions"].values()) - 1.0) < 1e-9

    # HTMLock shrinks aggregate waiting on the fallback-heavy workloads.
    heavy = [w for w in ("vacation+", "labyrinth", "genome") if w in data]
    rwi_wait = sum(
        data[w]["LockillerTM-RWI"]["fractions"]["waitlock"] for w in heavy
    )
    rwil_wait = sum(
        data[w]["LockillerTM-RWIL"]["fractions"]["waitlock"] for w in heavy
    )
    assert rwil_wait < rwi_wait
