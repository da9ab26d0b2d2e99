"""Ablation — LLC overflow-signature size (§III-B design choice).

The HTMLock mechanism spills overflowed set entries into two Bloom
signatures.  Undersized signatures saturate on labyrinth's ~300-line
footprints and false-positively reject *every* concurrent request,
serializing the machine; the paper's sizing keeps false positives
negligible.  Sweeps the signature width on small caches where spills
dominate.
"""

from dataclasses import replace

from repro.common.params import small_cache_params
from repro.sim.runner import RunConfig, run_workload
from repro.harness.systems import get_system
from repro.workloads.registry import get_workload

SIG_BITS = (64, 512, 4096)


def test_ablation_signature_size(ctx, publish):
    def experiment():
        out = {}
        for bits in SIG_BITS:
            base = small_cache_params()
            params = replace(base, htm=replace(base.htm, signature_bits=bits))
            stats = run_workload(
                get_workload("labyrinth"),
                RunConfig(
                    spec=get_system("LockillerTM"),
                    threads=4,
                    scale=ctx.scale,
                    seed=ctx.seed,
                    params=params,
                ),
            )
            merged = stats.merged()
            out[bits] = {
                "cycles": stats.execution_cycles,
                "rejects": merged.rejects_received,
                "commit_rate": stats.commit_rate,
            }
        return out

    data = experiment()
    lines = ["Ablation: signature bits on labyrinth, 8KB L1, 4 threads"]
    for bits, row in data.items():
        lines.append(
            f"  {bits:5d} bits  cycles={row['cycles']:9d} "
            f"rejects={row['rejects']:6d} commit={row['commit_rate']:.2f}"
        )
    publish("ablation_signature", "\n".join(lines))

    # A saturated 64-bit signature must cause (weakly) more rejects than
    # the 4096-bit one, and must not be faster.
    assert data[64]["rejects"] >= data[4096]["rejects"]
    assert data[64]["cycles"] >= data[4096]["cycles"] * 0.95
