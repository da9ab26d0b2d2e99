"""Extension — switchingMode on exceptions (§III-C's deferred design).

The paper declines to switch on exceptions, citing CPU-validation cost
and security concerns, and yada pays for it: most of its transactions
fault and serialize on the fallback lock after a wasted attempt.  This
bench evaluates the deferred design (``LockillerTM-XF``): fault-bound
transactions apply for an STL switch and take the trap non-speculatively
while keeping their work.
"""

from repro.common.stats import AbortReason
from repro.core.extensions import SWITCH_ON_FAULT_SPEC
from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def test_ext_switch_on_fault(ctx, publish):
    th = min(8, max(ctx.threads))

    def experiment():
        out = {}
        for label, spec in (
            ("LockillerTM", get_system("LockillerTM")),
            ("LockillerTM-XF", SWITCH_ON_FAULT_SPEC),
        ):
            stats = run_workload(
                get_workload("yada"),
                RunConfig(
                    spec=spec, threads=th, scale=ctx.scale, seed=ctx.seed
                ),
            )
            merged = stats.merged()
            out[label] = {
                "cycles": stats.execution_cycles,
                "fault_aborts": merged.aborts[AbortReason.FAULT],
                "switched": merged.commits_switched,
                "commit_rate": stats.commit_rate,
            }
        return out

    data = experiment()
    lines = [f"Extension: switching on exceptions (yada, {th} threads)"]
    for label, row in data.items():
        lines.append(
            f"  {label:16s} cycles={row['cycles']:9d} "
            f"fault_aborts={row['fault_aborts']:5d} "
            f"switched={row['switched']:4d} commit={row['commit_rate']:.2f}"
        )
    speedup = data["LockillerTM"]["cycles"] / data["LockillerTM-XF"]["cycles"]
    lines.append(f"  switch-on-fault speedup on yada: {speedup:.2f}x")
    publish("ext_switch_on_fault", "\n".join(lines))

    assert data["LockillerTM-XF"]["fault_aborts"] < data["LockillerTM"]["fault_aborts"]
    assert data["LockillerTM-XF"]["switched"] > data["LockillerTM"]["switched"]
    assert data["LockillerTM-XF"]["commit_rate"] >= data["LockillerTM"]["commit_rate"]
