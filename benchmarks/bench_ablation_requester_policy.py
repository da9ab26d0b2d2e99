"""Ablation — the three requester-side reject reactions (§III-A).

The recovery mechanism leaves the rejected requester three options:
abort itself (RAI), pause-and-retry (RRI), or park until woken (RWI).
This bench compares them on the two most contended workloads and checks
the paper's ordering: the work-preserving policies (RRI/RWI) commit more
than SelfAbort, and all three beat requester-wins.
"""

from repro.common.stats import geometric_mean


POLICY_SYSTEMS = (
    "Baseline",
    "LockillerTM-RAI",
    "LockillerTM-RRI",
    "LockillerTM-RWI",
)
WORKLOADS = ("intruder", "kmeans+", "vacation+")


def test_ablation_requester_policy(ctx, publish):
    th = max(ctx.threads)

    def experiment():
        out = {}
        for system in POLICY_SYSTEMS:
            cycles, rates, rejects, aborts = [], [], 0, 0
            for wl in WORKLOADS:
                stats = ctx.run(wl, system, th)
                cgl = ctx.run(wl, "CGL", th)
                cycles.append(cgl.execution_cycles / stats.execution_cycles)
                rates.append(stats.commit_rate)
                merged = stats.merged()
                rejects += merged.rejects_received
                aborts += merged.total_aborts
            out[system] = {
                "speedup": geometric_mean(cycles),
                "commit_rate": sum(rates) / len(rates),
                "rejects": rejects,
                "aborts": aborts,
            }
        return out

    data = experiment()

    lines = [f"Ablation: requester policy on {WORKLOADS}, {th} threads"]
    for system, row in data.items():
        lines.append(
            f"  {system:18s} speedup={row['speedup']:.2f}x "
            f"commit={row['commit_rate']:.2f} rejects={row['rejects']} "
            f"aborts={row['aborts']}"
        )
    publish("ablation_requester_policy", "\n".join(lines))

    base = data["Baseline"]
    for system in POLICY_SYSTEMS[1:]:
        assert data[system]["commit_rate"] > base["commit_rate"], system
        assert data[system]["speedup"] > base["speedup"] * 0.95, system
    # Rejection-based policies preserve work better than self-abort.
    assert data["LockillerTM-RWI"]["aborts"] <= data["LockillerTM-RAI"]["aborts"]
