"""Ablation — the user-defined priority policy (§III-A, §IV-B(d)).

Holds recovery + WaitWakeup + HTMLock fixed and varies only the priority
that conflicts are arbitrated on:

* insts-based (LockillerTM-RWIL) — the paper's choice,
* none/id-tiebreak (LockillerTM-RWL),
* progression-based (a LosaTM-style variant, built ad hoc here).

Paper claim: "the insts-based priority is more representative than the
progression-based priority used by LosaTM" — it should win or tie on the
contended workloads.
"""

from repro.common.stats import geometric_mean
from repro.core.policies import PriorityKind, RequesterPolicy, SystemSpec
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

PROGRESSION_SPEC = SystemSpec(
    name="RWPL-progression",
    recovery=True,
    requester_policy=RequesterPolicy.WAIT_WAKEUP,
    priority_kind=PriorityKind.PROGRESSION,
    htmlock=True,
)

WORKLOADS = ("intruder", "kmeans+", "vacation+")


def test_ablation_priority_kind(ctx, publish):
    th = max(ctx.threads)

    def experiment():
        out = {}
        for label, system in (
            ("insts (RWIL)", "LockillerTM-RWIL"),
            ("none (RWL)", "LockillerTM-RWL"),
        ):
            speedups = []
            for wl in WORKLOADS:
                cgl = ctx.run(wl, "CGL", th)
                s = ctx.run(wl, system, th)
                speedups.append(cgl.execution_cycles / s.execution_cycles)
            out[label] = geometric_mean(speedups)
        speedups = []
        for wl in WORKLOADS:
            cgl = ctx.run(wl, "CGL", th)
            s = run_workload(
                get_workload(wl),
                RunConfig(
                    spec=PROGRESSION_SPEC,
                    threads=th,
                    scale=ctx.scale,
                    seed=ctx.seed,
                ),
            )
            speedups.append(cgl.execution_cycles / s.execution_cycles)
        out["progression"] = geometric_mean(speedups)
        return out

    data = experiment()
    lines = [f"Ablation: priority kind on {WORKLOADS}, {th} threads"]
    for label, speedup in data.items():
        lines.append(f"  {label:16s} geomean speedup vs CGL = {speedup:.2f}x")
    publish("ablation_priority", "\n".join(lines))

    # Insts-based is the strongest (or statistically tied) variant.
    assert data["insts (RWIL)"] >= data["none (RWL)"] * 0.9
    assert data["insts (RWIL)"] >= data["progression"] * 0.9
