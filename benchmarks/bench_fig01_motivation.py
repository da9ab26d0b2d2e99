"""Fig. 1 — motivation: requester-wins best-effort HTM vs CGL, 2 threads.

Paper shape: best-effort HTM loses to coarse-grained locking on the
overflow/exception-prone workloads (labyrinth, yada) while winning the
low-contention ones.
"""

from repro.harness.experiments import fig1_motivation, print_fig1


def test_fig1_motivation(ctx, publish):
    data = fig1_motivation(ctx)
    publish("fig01_motivation", print_fig1(ctx))
    # Shape assertions: the motivation's losers and winners.
    assert data["yada"] < 1.0
    assert data["labyrinth"] < 1.1
    assert data["ssca2"] > 1.2
    assert data["vacation-"] > 1.2
