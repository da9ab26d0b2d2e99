"""Memory pin on the workload builds of a cold ``grid-low`` round.

Programs repeat a few immutable values many times over: compute ops of
a few hundred cycle counts and burst ``steps`` tuples of a few hundred
patterns.  :mod:`repro.htm.isa` hands out one shared tuple per value.
This test holds the eight builds of the ``grid-low`` benchmark grid
(genome, kmeans-, ssca2 and vacation- at 8 and 16 threads, scale 0.25,
seed 42) and bounds the bytes ``tracemalloc`` sees them keep.  Without
the sharing they keep 17.1 MiB; with it, 10.8 MiB.

The workload modules are imported before tracing starts, so the bound
covers the builds alone.  Allocation sizes depend on the interpreter,
so, like ``tests/test_call_counts.py``, the test runs on CPython 3.11
only.
"""

import gc
import platform
import sys
import tracemalloc

import pytest

from repro.workloads.registry import get_workload

#: The interpreter the bound was taken on.
PINNED_PYTHON = (3, 11)

#: The grid-low builds: (workload, threads); scale 0.25, seed 42.
GRID_LOW = [
    (workload, threads)
    for workload in ("genome", "kmeans-", "ssca2", "vacation-")
    for threads in (8, 16)
]

#: Most MiB the eight builds may keep.
BOUND_MIB = 11.25

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != PINNED_PYTHON,
    reason="allocation sizes are pinned on CPython "
    + ".".join(map(str, PINNED_PYTHON)),
)


def held_mib() -> float:
    """MiB that the eight grid-low builds keep allocated."""
    workloads = {name: get_workload(name) for name, _ in GRID_LOW}
    gc.collect()
    tracemalloc.start()
    try:
        builds = [
            workloads[name].build(threads, 0.25, 42)
            for name, threads in GRID_LOW
        ]
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(builds) == len(GRID_LOW)
    return held / 2**20


def test_grid_low_builds_stay_under_bound():
    held = held_mib()
    assert held < BOUND_MIB, (
        f"the grid-low builds keep {held:.2f} MiB, over {BOUND_MIB} MiB"
    )


if __name__ == "__main__":
    print(f"{held_mib():.2f} MiB")
