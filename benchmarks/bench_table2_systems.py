"""Table II — evaluated systems (registry self-check + smoke runs).

Regenerates the system table and runs one tiny workload on every
configuration to prove each composes into a working machine.
"""

from repro.harness.experiments import table2_systems
from repro.harness.systems import TABLE_ORDER, get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def test_table2_systems(publish):
    results = {}
    for name in TABLE_ORDER:
        stats = run_workload(
            get_workload("kmeans-"),
            RunConfig(spec=get_system(name), threads=2, scale=0.05, seed=1),
        )
        results[name] = stats.execution_cycles
    assert set(results) == set(TABLE_ORDER)
    assert all(c > 0 for c in results.values())
    text = table2_systems() + "\n\nsmoke run (kmeans-, 2 threads): " + ", ".join(
        f"{k}={v}" for k, v in results.items()
    )
    publish("table2_systems", text)
