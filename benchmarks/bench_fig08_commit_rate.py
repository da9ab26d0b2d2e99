"""Fig. 8 — average transaction commit rate of the recovery systems.

Paper shape: adding the recovery mechanism + insts-based priority lifts
the average commit rate well above requester-wins (the paper reports
1.4x / 1.69x / 1.63x for RAI / RRI / RWI); the gap widens with thread
count as friendly fire intensifies.
"""

from repro.harness.experiments import fig8_commit_rate, print_fig8


def test_fig8_commit_rate(ctx, publish):
    data = fig8_commit_rate(ctx)
    publish("fig08_commit_rate", print_fig8(ctx))

    hi = max(ctx.threads)
    base = data["Baseline"][hi]
    for system in ("LockillerTM-RAI", "LockillerTM-RRI", "LockillerTM-RWI"):
        assert data[system][hi] > base, system
    # The reject-and-keep-working policies beat self-abort at high
    # contention (the paper's ordering).
    assert data["LockillerTM-RWI"][hi] >= data["LockillerTM-RAI"][hi]
    assert data["LockillerTM-RRI"][hi] >= data["LockillerTM-RAI"][hi]
