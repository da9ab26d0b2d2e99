"""Extension — validate the no-NoC-contention simplification.

DESIGN.md prices messages by hop latency only and argues directory-bank
serialization dominates queueing for STAMP at 32 cores.  This bench arms
the opt-in per-link contention model and re-runs a representative slice
of Fig. 12, asserting the paper-shape conclusions (system ordering) are
insensitive to the simplification.
"""

from dataclasses import replace

from repro.common.params import typical_params
from repro.common.stats import geometric_mean
from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

WORKLOADS = ("intruder", "vacation+", "kmeans+")
SYSTEMS = ("Baseline", "LockillerTM-RWI", "LockillerTM")


def test_ext_noc_contention(ctx, publish):
    th = min(8, max(ctx.threads))
    base = typical_params()
    contended = replace(
        base, network=replace(base.network, model_contention=True)
    )

    def experiment():
        out = {}
        for tag, params in (("hop-latency", base), ("link-contention", contended)):
            out[tag] = {}
            for system in SYSTEMS:
                speedups = []
                for wl in WORKLOADS:
                    cgl = run_workload(
                        get_workload(wl),
                        RunConfig(spec=get_system("CGL"), threads=th,
                                  scale=ctx.scale, seed=ctx.seed,
                                  params=params),
                    )
                    s = run_workload(
                        get_workload(wl),
                        RunConfig(spec=get_system(system), threads=th,
                                  scale=ctx.scale, seed=ctx.seed,
                                  params=params),
                    )
                    speedups.append(
                        cgl.execution_cycles / s.execution_cycles
                    )
                out[tag][system] = geometric_mean(speedups)
        return out

    data = experiment()
    lines = [f"Extension: NoC contention sensitivity ({WORKLOADS}, {th} threads)"]
    for tag, per_system in data.items():
        for system, speedup in per_system.items():
            lines.append(f"  {tag:15s} {system:18s} {speedup:.2f}x vs CGL")
    publish("ext_noc_contention", "\n".join(lines))

    # The ordering Baseline < RWI <= LockillerTM holds in both models.
    for tag in data:
        assert data[tag]["LockillerTM-RWI"] > data[tag]["Baseline"] * 0.95
        assert data[tag]["LockillerTM"] >= data[tag]["LockillerTM-RWI"] * 0.9
    # And every system still beats CGL either way.
    for tag in data:
        for system, speedup in data[tag].items():
            assert speedup > 1.0, (tag, system)
