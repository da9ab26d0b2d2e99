"""Extension — static pre-assigned priority vs insts-based (§III-A).

The paper's argument for its dynamic, committed-instructions priority is
twofold: it avoids the hard problem of choosing static priorities and it
"helps quite a bit to avoid the unfair situation".  This bench measures
both halves on a symmetric contended workload: per-core commit-latency
fairness (coefficient of variation of per-core aborts) and throughput.
"""

import statistics

from repro.core.extensions import STATIC_PRIORITY_SPEC
from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def _unfairness(stats) -> float:
    """Coefficient of variation of per-core abort counts."""
    aborts = [cs.total_aborts for cs in stats.cores]
    mean = statistics.mean(aborts)
    if mean == 0:
        return 0.0
    return statistics.pstdev(aborts) / mean


def test_ext_static_priority(ctx, publish):
    th = min(8, max(ctx.threads))

    def experiment():
        out = {}
        for label, spec in (
            ("insts (RWI)", get_system("LockillerTM-RWI")),
            ("static (RWS)", STATIC_PRIORITY_SPEC),
        ):
            stats = run_workload(
                get_workload("kmeans+"),
                RunConfig(
                    spec=spec, threads=th, scale=ctx.scale, seed=ctx.seed
                ),
            )
            out[label] = {
                "cycles": stats.execution_cycles,
                "unfairness": _unfairness(stats),
                "commit_rate": stats.commit_rate,
            }
        return out

    data = experiment()
    lines = [f"Extension: static vs insts priority (kmeans+, {th} threads)"]
    for label, row in data.items():
        lines.append(
            f"  {label:14s} cycles={row['cycles']:9d} "
            f"abort-CoV={row['unfairness']:.2f} "
            f"commit={row['commit_rate']:.2f}"
        )
    publish("ext_static_priority", "\n".join(lines))

    # The dynamic policy must not lose throughput to the static one, and
    # static must not be *fairer* (the paper's unfairness argument).
    assert data["insts (RWI)"]["cycles"] <= data["static (RWS)"]["cycles"] * 1.1
    assert (
        data["static (RWS)"]["unfairness"]
        >= data["insts (RWI)"]["unfairness"] * 0.8
    )
