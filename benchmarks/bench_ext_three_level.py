"""Extension — the §IV-A protocol decision: two-level vs three-level.

The paper started from gem5's MESI-Three-Level-HTM (a private middle
cache maintaining transactional data, with the odd L1-flush-on-remote-
load behaviour) and replaced it with a streamlined two-level protocol.
This bench quantifies the decision: the middle cache absorbs capacity
overflows (labyrinth) at the price of slower private hits and protocol
complexity — while LockillerTM's switchingMode recovers the
overflow-tolerance on the *simple* two-level protocol.
"""

from repro.common.params import three_level_params, typical_params
from repro.common.stats import AbortReason
from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

CASES = (
    ("Baseline / two-level", "Baseline", typical_params),
    ("Baseline / three-level", "Baseline", three_level_params),
    ("LockillerTM / two-level", "LockillerTM", typical_params),
)


def test_ext_three_level(ctx, publish):
    th = min(8, max(ctx.threads))

    def experiment():
        out = {}
        for label, system, params_fn in CASES:
            stats = run_workload(
                get_workload("labyrinth"),
                RunConfig(
                    spec=get_system(system),
                    threads=th,
                    scale=ctx.scale,
                    seed=ctx.seed,
                    params=params_fn(),
                ),
            )
            merged = stats.merged()
            out[label] = {
                "cycles": stats.execution_cycles,
                "of_aborts": merged.aborts[AbortReason.OVERFLOW],
                "l2_hits": merged.l2_hits,
                "switched": merged.commits_switched,
                "commit_rate": stats.commit_rate,
            }
        return out

    data = experiment()
    lines = [f"Extension: protocol levels on labyrinth, {th} threads"]
    for label, row in data.items():
        lines.append(
            f"  {label:26s} cycles={row['cycles']:9d} "
            f"of={row['of_aborts']:4d} l2hits={row['l2_hits']:6d} "
            f"switched={row['switched']:3d} commit={row['commit_rate']:.2f}"
        )
    publish("ext_three_level", "\n".join(lines))

    two = data["Baseline / two-level"]
    three = data["Baseline / three-level"]
    lk = data["LockillerTM / two-level"]
    # The middle cache absorbs capacity overflows...
    assert three["of_aborts"] < two["of_aborts"]
    assert three["l2_hits"] > 0
    # ... and LockillerTM recovers the overflow-tolerance on the simple
    # protocol via switchingMode + HTMLock coexistence.
    assert lk["switched"] > 0
    assert lk["cycles"] < two["cycles"]
