"""Exact call-count pins of the simulator's hot path.

cProfile's count of interpreted and builtin calls over one run
(``ProfileReport.total_calls``) is a cost counter that the host cannot
move: a change that adds one call per memory access adds thousands
here, on any machine, under any load.  The pins cover the golden cell
and the ladder cell of ``tests/test_golden_determinism.py`` on every
Table-II system, with the run's engine events beside them.

Counts are exact, and a drop fails too, so the pins always state the
current cost.  A change that moves them on purpose re-pins them (run
this file as a script to print the table) and says why in CHANGES.md.

The counts depend on the interpreter: CPython versions compile the same
code into different calls (enum and property protocols, for one), so
the pins hold for the version they were taken on and the test is
skipped under any other.
"""

import platform
import sys

import pytest

from repro.common.params import typical_params
from repro.harness.profiling import profile_run
from repro.harness.systems import TABLE_ORDER, get_system
from repro.sim.machine import Machine
from repro.workloads.registry import get_workload

#: The interpreter the pins were taken on.
PINNED_PYTHON = (3, 11)

#: (workload, threads, scale, seed) -> system -> (total_calls, events).
CALL_COUNTS = {
    ("intruder", 4, 0.05, 3): {
        "CGL": (9221, 409),
        "Baseline": (20622, 804),
        "LosaTM-SAFU": (11651, 432),
        "LockillerTM-RAI": (13585, 522),
        "LockillerTM-RRI": (11833, 436),
        "LockillerTM-RWI": (11684, 432),
        "LockillerTM-RWL": (11657, 435),
        "LockillerTM-RWIL": (11639, 432),
        "LockillerTM": (11639, 432),
    },
    ("labyrinth", 8, 0.1, 42): {
        "CGL": (82165, 4928),
        "Baseline": (295948, 14322),
        "LosaTM-SAFU": (332359, 15973),
        "LockillerTM-RAI": (274969, 13437),
        "LockillerTM-RRI": (404152, 18349),
        "LockillerTM-RWI": (366463, 17510),
        "LockillerTM-RWL": (261584, 10023),
        "LockillerTM-RWIL": (273805, 10250),
        "LockillerTM": (266281, 9690),
    },
}

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != PINNED_PYTHON,
    reason="call counts are pinned on CPython "
    + ".".join(map(str, PINNED_PYTHON))
    + "; other interpreters compile the same code into different calls",
)


def measure(cell):
    """system -> (total_calls, events) for one cell, every system."""
    workload, threads, scale, seed = cell
    # The first machine of a mesh shape fills the topology's hop-table
    # cache; build one outside the profiled runs so that no count
    # depends on what ran earlier in the process.
    build = get_workload(workload).build(threads, scale, seed)
    Machine(typical_params(), get_system("CGL"), build.programs, seed=seed)
    counts = {}
    for system in TABLE_ORDER:
        report = profile_run(
            workload, system=system, threads=threads, scale=scale, seed=seed
        )
        counts[system] = (report.total_calls, report.events_processed)
    return counts


@pytest.mark.parametrize(
    "cell", sorted(CALL_COUNTS), ids=lambda c: "-".join(map(str, c))
)
def test_call_counts_are_pinned(cell):
    assert set(CALL_COUNTS[cell]) == set(TABLE_ORDER)
    assert measure(cell) == CALL_COUNTS[cell], (
        "hot-path call counts moved; if on purpose, re-pin them "
        "(python tests/test_call_counts.py) and say why in CHANGES.md"
    )


if __name__ == "__main__":
    for cell in sorted(CALL_COUNTS):
        print(f"    {cell!r}: {{")
        for system, pair in measure(cell).items():
            print(f"        {system!r}: {pair!r},")
        print("    },")
