"""Golden determinism pins + parallel/serial bit-identity.

Two guarantees are load-bearing for the whole harness:

1. A run is a pure function of ``(workload, system, threads, scale,
   seed, params)`` — so the exact cycle counts and behaviour
   fingerprints below must reproduce forever.  Any intentional timing
   change to the simulator must update these pins (and bump
   ``CACHE_SCHEMA_VERSION`` in :mod:`repro.harness.runcache`).
2. The fused round-trip pricing in ``memsys.access`` and the
   per-message ``control_latency`` / ``data_latency`` calls it stands
   in for agree exactly: same cycles, fingerprint and NoC counters.
3. Executing a sweep through worker processes (``jobs > 1``) and
   through the run cache must be *bit-identical* to the plain serial
   loop — parallelism and caching are pure plumbing.

The golden cell (intruder, 4 threads, scale 0.05, seed 3) has enough
contention that most recovery policies take different paths, but it
does not tell the whole ladder apart: RWI, RWIL and LockillerTM share
one fingerprint there.  The ladder cell (labyrinth, 8 threads, scale
0.1, seed 42) gives nine distinct fingerprints, so together the two
pins catch a change to any rung.
"""

from collections import Counter

import pytest

from repro.coherence.memsys import GRANT, REJECT
from repro.common.params import three_level_params
from repro.common.stats import RunStats
from repro.harness.export import fingerprint
from repro.harness.sweeps import Sweep
from repro.harness.systems import TABLE_ORDER, get_system
from repro.sim.machine import Machine
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload

#: system -> (execution_cycles, fingerprint, commits, total_aborts)
#: for intruder / 4 threads / scale 0.05 / seed 3.
GOLD = {
    "CGL": (27031, "2d70294118c81403", 40, 0),
    "Baseline": (14349, "d759f437ab096f37", 40, 45),
    "LosaTM-SAFU": (9735, "18fecf3ee72f6b8b", 40, 5),
    "LockillerTM-RAI": (10180, "644ba7a56a14df50", 40, 20),
    "LockillerTM-RRI": (9835, "6addeff532bfa9c9", 40, 2),
    "LockillerTM-RWI": (9755, "1877f557f4e76393", 40, 5),
    "LockillerTM-RWL": (9722, "f30a29c49ce5a63b", 40, 6),
    "LockillerTM-RWIL": (9755, "1877f557f4e76393", 40, 5),
    "LockillerTM": (9755, "1877f557f4e76393", 40, 5),
}

#: system -> (events_processed, messages, flits, hops) for the same
#: cell: drift-free counters of simulation work.
GOLD_COUNTS = {
    "CGL": (409, 618, 1838, 2068),
    "Baseline": (804, 1121, 3265, 4400),
    "LosaTM-SAFU": (432, 611, 1695, 2080),
    "LockillerTM-RAI": (522, 721, 2005, 2534),
    "LockillerTM-RRI": (436, 625, 1697, 2242),
    "LockillerTM-RWI": (432, 613, 1697, 2086),
    "LockillerTM-RWL": (435, 611, 1699, 2087),
    "LockillerTM-RWIL": (432, 613, 1697, 2086),
    "LockillerTM": (432, 613, 1697, 2086),
}


#: The ladder cell: labyrinth / 8 threads / scale 0.1 / seed 42.  Same
#: layout as GOLD and GOLD_COUNTS; every fingerprint is distinct.
LADDER = {
    "CGL": (557345, "c1f8073f4c8ca280", 16, 0),
    "Baseline": (476852, "8d5ec865b6041710", 16, 110),
    "LosaTM-SAFU": (433530, "65c2887da6e412a5", 16, 86),
    "LockillerTM-RAI": (490171, "290802b1c74a1fda", 16, 107),
    "LockillerTM-RRI": (451056, "981b16fc98bfd5b6", 16, 94),
    "LockillerTM-RWI": (451007, "0cd3ccddf145e5f2", 16, 94),
    "LockillerTM-RWL": (294908, "d8b3fa67b74d9b1c", 16, 35),
    "LockillerTM-RWIL": (295122, "d3f97a96553838eb", 16, 38),
    "LockillerTM": (283975, "be0859e45d7ecf8a", 16, 29),
}

LADDER_COUNTS = {
    "CGL": (4928, 8869, 26129, 37530),
    "Baseline": (14322, 27092, 80632, 116766),
    "LosaTM-SAFU": (15973, 30492, 90592, 131182),
    "LockillerTM-RAI": (13437, 25345, 75193, 109606),
    "LockillerTM-RRI": (18349, 35226, 101342, 152146),
    "LockillerTM-RWI": (17510, 33555, 99763, 143955),
    "LockillerTM-RWL": (10023, 19027, 56247, 81898),
    "LockillerTM-RWIL": (10250, 19464, 57504, 83954),
    "LockillerTM": (9690, 18393, 54365, 78776),
}

LADDER_CELL = dict(workload="labyrinth", threads=8, scale=0.1, seed=42)


def _run(system: str):
    return run_workload(
        get_workload("intruder"),
        RunConfig(spec=get_system(system), threads=4, scale=0.05, seed=3),
    )


class TestGoldenPins:
    def test_gold_covers_table2(self):
        assert set(GOLD) == set(TABLE_ORDER)

    @pytest.mark.parametrize("system", sorted(GOLD))
    def test_pinned_cell(self, system):
        cycles, fp, commits, aborts = GOLD[system]
        stats = _run(system)
        merged = stats.merged()
        assert stats.execution_cycles == cycles
        assert fingerprint(stats) == fp
        assert merged.commits == commits
        assert merged.total_aborts == aborts

    def test_back_to_back_runs_identical(self):
        a, b = _run("LockillerTM"), _run("LockillerTM")
        assert fingerprint(a) == fingerprint(b)


class TestLadderPin:
    def test_ladder_covers_table2_with_distinct_fingerprints(self):
        assert set(LADDER) == set(LADDER_COUNTS) == set(TABLE_ORDER)
        assert len({fp for _, fp, _, _ in LADDER.values()}) == len(LADDER)

    @pytest.mark.parametrize("system", sorted(LADDER))
    def test_ladder_cell(self, system):
        cycles, fp, commits, aborts = LADDER[system]
        out = _run_priced(system, per_message=False, **LADDER_CELL)
        assert out == (cycles, fp) + LADDER_COUNTS[system]
        stats = run_workload(
            get_workload("labyrinth"),
            RunConfig(spec=get_system(system), threads=8, scale=0.1, seed=42),
        )
        merged = stats.merged()
        assert (merged.commits, merged.total_aborts) == (commits, aborts)


#: The cheapest headline-grid cell the PR-5 timing change moved (+0.02%),
#: (workload, system, threads, scale, seed) -> (execution_cycles,
#: fingerprint, commits, total_aborts).  The other seven are at 32
#: threads.
PR5_CELL = {
    ("intruder", "LockillerTM", 8, 0.25, 42): (
        33518, "e690fbce0464485e", 370, 103,
    ),
}


class TestPr5CellPin:
    @pytest.mark.parametrize("cell", sorted(PR5_CELL))
    def test_pr5_cell(self, cell):
        workload, system, threads, scale, seed = cell
        stats = run_workload(
            get_workload(workload),
            RunConfig(spec=get_system(system), threads=threads, scale=scale,
                      seed=seed),
        )
        merged = stats.merged()
        assert (
            stats.execution_cycles, fingerprint(stats), merged.commits,
            merged.total_aborts,
        ) == PR5_CELL[cell]


#: Fused-vs-per-message cells beyond the golden one.  At 16 threads
#: the contended kernels take cache-to-cache forwards, victim aborts
#: and, on vacation+, NACKs; the last cell runs three-level caches.
#: (The NACK-victim legs never run in a whole run, see
#: ``tests/test_protocol_timing.py``.)  (workload, system, threads,
#: scale, seed, three_level) -> (execution_cycles, fingerprint, events,
#: messages, flits, hops).
PRICING_CELLS = {
    ("vacation+", "LockillerTM", 16, 0.02, 42, False): (
        13541, "8ab99294c50e1db1", 1454, 2790, 7602, 10248,
    ),
    ("kmeans+", "Baseline", 16, 0.02, 42, False): (
        3163, "f4311bacf18f9023", 897, 1019, 2795, 3470,
    ),
    ("vacation+", "LockillerTM", 16, 0.02, 42, True): (
        13549, "f05528946f17355b", 1454, 2790, 7602, 10248,
    ),
}


def _leg_census(machine) -> Counter:
    """Count a run's NACKs, forwards and the misses that aborted the
    line's owner (wraps ``access`` and ``abort_core`` the way
    telemetry does)."""
    census = Counter()
    memsys = machine.memsys
    access, abort_core = memsys.access, memsys.abort_core
    aborted = []

    def counting_abort(core, reason, now):
        aborted.append(core)
        abort_core(core, reason, now)

    def counting_access(core, addr, is_write, now):
        entry = memsys._dir_entries.get(addr >> 6)
        owner = entry.owner if entry is not None else -1
        aborted.clear()
        res = access(core, addr, is_write, now)
        if res.status == REJECT:
            census["nack"] += 1
        elif res.status == GRANT and not res.hit and owner not in (-1, core):
            census["owner_aborted" if owner in aborted else "forward"] += 1
        return res

    memsys.abort_core = counting_abort
    memsys.access = counting_access
    return census


def _run_priced(
    system: str,
    per_message: bool,
    workload: str = "intruder",
    threads: int = 4,
    scale: float = 0.05,
    seed: int = 3,
    params=None,
    census=None,
):
    """One cell on a fresh machine, optionally per-message priced.

    An identity chaos hook on the network turns off the fused pricing
    in ``memsys.access`` (it needs ``chaos is None``) without changing
    any latency, so every message goes through ``control_latency`` /
    ``data_latency`` one call at a time.  A ``census`` Counter receives
    the run's :func:`_leg_census` and its middle-cache hits.
    """
    spec = get_system(system)
    if params is None:
        params = RunConfig(spec=spec).params
    build = get_workload(workload).build(threads, scale, seed)
    machine = Machine(params, spec, build.programs, seed=seed)
    if per_message:
        machine.network.chaos = lambda lat: lat
    if census is not None:
        legs = _leg_census(machine)
    cycles = machine.run()
    if census is not None:
        census.update(legs)
        census["l2_hits"] += sum(cs.l2_hits for cs in machine.core_stats)
    assert build.verify(machine.memsys.memory) == []
    net = machine.network
    return (
        cycles,
        fingerprint(RunStats(execution_cycles=cycles, cores=machine.core_stats)),
        machine.engine.events_processed,
        net.messages_sent,
        net.flits_sent,
        net.hops_traversed,
    )


class TestPricingPaths:
    @pytest.mark.parametrize("system", sorted(GOLD))
    def test_fused_and_per_message_pricing_agree(self, system):
        cycles, fp, _, _ = GOLD[system]
        expected = (cycles, fp) + GOLD_COUNTS[system]
        assert _run_priced(system, per_message=False) == expected
        assert _run_priced(system, per_message=True) == expected

    @pytest.mark.parametrize(
        "cell", sorted(PRICING_CELLS), ids=lambda c: "-".join(map(str, c))
    )
    def test_contended_and_three_level_cells_agree(self, cell):
        workload, system, threads, scale, seed, three_level = cell
        kw = dict(
            workload=workload,
            threads=threads,
            scale=scale,
            seed=seed,
            params=three_level_params() if three_level else None,
        )
        census = Counter()
        fused = _run_priced(system, per_message=False, census=census, **kw)
        assert fused == PRICING_CELLS[cell]
        assert _run_priced(system, per_message=True, **kw) == fused
        assert census["forward"] > 0 and census["owner_aborted"] > 0, census
        if workload == "vacation+":
            assert census["nack"] > 0, census
        assert (census["l2_hits"] > 0) == three_level, census


@pytest.fixture(scope="module")
def grid():
    """A 16-cell grid with real contention variety."""
    return Sweep(
        workloads=("kmeans+", "ssca2"),
        systems=("CGL", "Baseline", "LockillerTM-RWI", "LockillerTM"),
        threads=(2, 4),
        seeds=(1,),
        scale=0.05,
    )


def _prints(results):
    return [
        (r.point.label(), r.cycles, fingerprint(r.stats))
        for r in results.records
    ]


class TestParallelBitIdentity:
    def test_parallel_matches_serial(self, grid):
        assert grid.size() == 16
        serial = grid.run(jobs=1)
        parallel = grid.run(jobs=4)
        assert _prints(parallel) == _prints(serial)

    def test_cached_matches_serial_and_warm_cache_skips(self, grid, tmp_path):
        from repro.harness.runcache import RunCache

        serial = grid.run(jobs=1)
        cache = RunCache(str(tmp_path / "rc"))
        cold = grid.run(jobs=4, cache=cache)
        assert cache.stores == grid.size()
        assert _prints(cold) == _prints(serial)

        warm_cache = RunCache(str(tmp_path / "rc"))
        warm = grid.run(jobs=4, cache=warm_cache)
        assert warm_cache.hits == grid.size()
        assert warm_cache.misses == 0
        assert warm_cache.stores == 0
        assert _prints(warm) == _prints(serial)
