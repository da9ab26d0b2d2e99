"""Coalesced vs per-op stepping must be *bit-identical*.

Compute-burst coalescing (repro.htm.isa.coalesce_ops + the burst paths
in repro.sim.cpu) is a pure scheduling optimization: it folds chains of
per-op continuations into single engine events while preserving every
architecturally visible boundary — instruction retirement (the
insts-based priority input), abort/replay points, and same-cycle event
ordering via virtual allocation times.  These tests run the same cells
with ``coalesce`` on and off and require *identical* cycle counts and
per-core statistics, including the abort/replay billing that exercises
the mid-burst external-abort checkpoint machinery.
"""

import pytest

from repro.common.params import typical_params
from repro.common.stats import TimeCat
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from repro.sim.machine import Machine
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def _core_fingerprint(cs):
    """Everything architecturally visible about one core."""
    return (
        {c.name: v for c, v in cs.time.items()},
        {r.name: v for r, v in cs.aborts.items()},
        cs.commits_htm,
        cs.commits_lock,
        cs.commits_switched,
        cs.tx_attempts,
        cs.fallback_entries,
        cs.switch_attempts,
        cs.switch_successes,
        cs.rejects_received,
        cs.rejects_issued,
        cs.wakeups_sent,
        cs.wakeup_timeouts,
        cs.loads,
        cs.stores,
        cs.l1_hits,
        cs.l1_misses,
        cs.l2_hits,
        (
            dict(cs.commit_latency_hist.buckets),
            cs.commit_latency_hist.count,
            cs.commit_latency_hist.total,
        ),
    )


def _stats_fingerprint(stats):
    """Everything architecturally visible, per core, as one structure."""
    return (
        stats.execution_cycles,
        [_core_fingerprint(cs) for cs in stats.cores],
    )


def _run(workload, system, threads, scale, seed, coalesce):
    return run_workload(
        get_workload(workload),
        RunConfig(
            spec=get_system(system),
            threads=threads,
            scale=scale,
            seed=seed,
            coalesce=coalesce,
        ),
    )


# High-contention cells abort and replay constantly, which is exactly
# where mid-burst external aborts and replay billing can diverge.
CELLS = [
    ("intruder", "LockillerTM", 4, 0.05, 3),
    ("intruder", "Baseline", 4, 0.05, 3),
    ("vacation+", "LockillerTM-RWIL", 4, 0.05, 1),
    ("kmeans+", "CGL", 2, 0.05, 2),
    ("yada", "LosaTM-SAFU", 4, 0.05, 5),
]


@pytest.mark.parametrize(
    "workload,system,threads,scale,seed",
    CELLS,
    ids=[f"{w}-{s}" for w, s, *_ in CELLS],
)
def test_coalesced_matches_per_op(workload, system, threads, scale, seed):
    a = _run(workload, system, threads, scale, seed, coalesce=True)
    b = _run(workload, system, threads, scale, seed, coalesce=False)
    assert _stats_fingerprint(a) == _stats_fingerprint(b)


def test_equivalence_cells_actually_abort():
    """Guard the guard: the contended cells must really abort/replay.

    If a parameter change ever made these cells conflict-free, the
    equivalence suite would silently stop covering the mid-burst abort
    checkpoint path; fail loudly instead.
    """
    stats = _run("intruder", "LockillerTM", 4, 0.05, 3, coalesce=True)
    total_aborts = sum(
        v for cs in stats.cores for v in cs.aborts.values()
    )
    assert total_aborts > 0


def _machine_fingerprint(programs, system, coalesce):
    m = Machine(
        typical_params(), get_system(system), programs, seed=4,
        coalesce=coalesce,
    )
    cycles = m.run()
    return m, (cycles, [_core_fingerprint(cs) for cs in m.core_stats])


def _addr(line):
    return line << 6


def test_plain_reject_and_retry_matches_per_op():
    """A plain access NACKed by a TL-mode holder, then retried.

    Core 0 enters TL mode (its persistent fault exhausts the HTM
    retries) and holds line 1 for thousands of cycles; core 1's plain
    store to that line bounces and is re-issued after the hardware
    retry delay, mid-segment, with plain work before and after it.
    """
    programs = [
        [Txn([fault(persistent=True), store(_addr(1), 1), compute(4000)])],
        [
            Plain([
                compute(2200), load(_addr(7)), store(_addr(1), 5),
                compute(30), load(_addr(8)), compute(5),
            ]),
            Plain([store(_addr(9), 2), compute(12)]),
        ],
    ]
    m, burst = _machine_fingerprint(programs, "LockillerTM-RWIL", True)
    _, per_op = _machine_fingerprint(programs, "LockillerTM-RWIL", False)
    assert burst == per_op
    # Guard the guard: the retry path and both billing categories ran.
    assert m.core_stats[1].rejects_received >= 1
    assert m.core_stats[1].time[TimeCat.NON_TRAN] > 0
    assert m.core_stats[0].time[TimeCat.LOCK] > 0
    assert m.memsys.memory[_addr(1)] == 6


def test_cgl_sections_interleaved_with_plain_match_per_op():
    """CGL critical sections between plain segments, three cores.

    Sections start with a memop or with computes, end with a memop or
    with computes, and take a page fault, so every burst shape of the
    CGL and plain steppers (and the span start each one bills from)
    is compared against per-op stepping.
    """
    def program(t):
        shared = _addr(1)
        return [
            Plain([compute(3 + t), load(_addr(20 + t)), compute(7)]),
            Txn([load(shared), store(shared, 1), compute(9)]),
            Plain([store(_addr(30 + t), 1)]),
            Txn([compute(4), fault(), store(shared, 2), load(_addr(2))]),
            Plain([compute(11), load(shared), compute(2)]),
            Txn([compute(6), store(_addr(2), 1)]),
        ]

    programs = [program(t) for t in range(3)]
    m, burst = _machine_fingerprint(programs, "CGL", True)
    _, per_op = _machine_fingerprint(programs, "CGL", False)
    assert burst == per_op
    for cs in m.core_stats:
        assert cs.commits_lock == 3
        assert cs.time[TimeCat.LOCK] > 0
        assert cs.time[TimeCat.NON_TRAN] > 0
    assert sum(cs.time[TimeCat.WAITLOCK] for cs in m.core_stats) > 0
    assert m.memsys.memory[_addr(1)] == 9


def test_profile_run_smoke():
    """The profiling harness runs a cell and attributes its events."""
    from repro.harness.profiling import profile_run

    report = profile_run(
        "kmeans+", system="CGL", threads=2, scale=0.05, seed=2, top_n=5
    )
    assert report.execution_cycles > 0
    assert report.events_processed > 0
    assert "sim" in report.subsystems
    counters = report.subsystems["sim"]
    assert counters["events_processed"] == report.events_processed
    assert (
        counters["ring_events"] + counters["heap_events"]
        >= report.events_processed
    )
    rendered = report.render()
    assert "hottest functions" in rendered
    assert "ncalls" in rendered
