"""Fig. 10 — abort-reason percentages at 2 threads.

Paper shape: the HTMLock mechanism eliminates ``mutex`` aborts entirely
(the fallback path no longer kills subscribers), and switchingMode
sharply reduces ``of`` (capacity) aborts by converting them into STL
switches.
"""

from repro.harness.experiments import fig10_abort_reasons, print_fig10


def test_fig10_abort_reasons(ctx, publish):
    data = fig10_abort_reasons(ctx)
    publish("fig10_abort_reasons", print_fig10(ctx))

    # HTMLock removes mutex aborts on every workload.
    for wl, per_system in data.items():
        assert per_system["LockillerTM-RWIL"]["mutex"] == 0.0, wl
        assert per_system["LockillerTM"]["mutex"] == 0.0, wl

    # switchingMode reduces the capacity-abort share where overflow is
    # the dominant pathology.
    lab = data["labyrinth"]
    assert lab["LockillerTM"]["of"] <= lab["LockillerTM-RWIL"]["of"]

    # Baseline yada aborts are dominated by exceptions.
    assert data["yada"]["Baseline"]["fault"] > 0.3
