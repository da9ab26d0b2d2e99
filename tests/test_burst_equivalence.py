"""The coalesced burst layout must be *bit-identical* to the per-op one.

The CPU steps over each segment's bursts (repro.htm.isa.segment_bursts):
runs of compute folded into one engine event while every architecturally
visible boundary is kept — instruction retirement (the insts-based
priority input), abort/replay points, and same-cycle event ordering via
virtual allocation times.  ``op_layout`` gives the same programs one
burst per op (the per-op or one-op layout), so the same steppers
schedule one event per op.  These
tests run both layouts and require *identical* cycle counts and per-core
statistics, including the abort/replay billing that exercises the
mid-burst external-abort checkpoint machinery.  A few minimized
programs pin the ordering rules themselves, which both layouts share.
"""

from dataclasses import replace

import pytest

from repro.common.params import typical_params
from repro.common.stats import AbortReason, RunStats, TimeCat
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, fault, load, op_layout, store
from repro.htm.txstate import TxState
from repro.sim.fuzz import core_fingerprint, fuzz_params, run_fingerprint
from repro.sim.machine import Machine
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def _stats_fingerprint(stats):
    """Everything architecturally visible, per core, as one structure."""
    return (
        stats.execution_cycles,
        [core_fingerprint(cs) for cs in stats.cores],
    )


def _run(workload, system, threads, scale, seed, one_op=False):
    build = get_workload(workload).build(threads, scale, seed)
    if one_op:
        build = replace(build, programs=op_layout(build.programs))
    return run_workload(
        build,
        RunConfig(spec=get_system(system), threads=threads, scale=scale,
                  seed=seed),
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
def test_coalesced_matches_per_op(
    workload, system, threads, scale, seed
):
    a = _run(workload, system, threads, scale, seed)
    b = _run(workload, system, threads, scale, seed, one_op=True)
    assert _stats_fingerprint(a) == _stats_fingerprint(b)


def test_equivalence_cells_actually_abort():
    """Guard the guard: the contended cells must really abort/replay.

    If a parameter change ever made these cells conflict-free, the
    equivalence suite would silently stop covering the mid-burst abort
    checkpoint path; fail loudly instead.
    """
    stats = _run("intruder", "LockillerTM", 4, 0.05, 3)
    total_aborts = sum(
        v for cs in stats.cores for v in cs.aborts.values()
    )
    assert total_aborts > 0


def _machine_run(programs, system, params=None, seed=4):
    m = Machine(params or typical_params(), get_system(system), programs,
                seed=seed)
    return m, run_fingerprint(m, m.run())


def _both_layouts(programs, system, params=None, seed=4):
    """(burst machine, burst fingerprint, one-op fingerprint)."""
    m, burst = _machine_run(
        [[replace(s) for s in p] for p in programs], system, params, seed
    )
    _, one_op = _machine_run(op_layout(programs), system, params, seed)
    return m, burst, one_op


def _addr(line):
    return line << 6


def test_op_layout_is_one_burst_per_op():
    seg = Txn([compute(3), load(_addr(1)), compute(2), compute(4)])
    (copy,) = op_layout([[seg]])[0]
    assert copy.ops == seg.ops and copy is not seg
    assert copy._bursts == tuple((0, (), op, 0) for op in seg.ops)
    assert len(seg._bursts) == 2  # the input keeps its coalesced bursts


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
    m, burst, one_op = _both_layouts(programs, "LockillerTM-RWIL")
    assert burst == one_op
    # Guard the guard: the retry path and both billing categories ran.
    assert m.core_stats[1].rejects_received >= 1
    assert m.core_stats[1].time[TimeCat.NON_TRAN] > 0
    assert m.core_stats[0].time[TimeCat.LOCK] > 0
    assert m.memsys.memory[_addr(1)] == 6


def test_cgl_sections_interleaved_with_plain_match_per_op():
    """CGL critical sections between plain segments, three cores.

    Sections start with a memop or with computes, end with a memop or
    with computes, and take a page fault, so every burst shape of the
    span stepper (and the span start each one bills from) is compared
    against the one-op layout.
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
    m, burst, one_op = _both_layouts(programs, "CGL")
    assert burst == one_op
    for cs in m.core_stats:
        assert cs.commits_lock == 3
        assert cs.time[TimeCat.LOCK] > 0
        assert cs.time[TimeCat.NON_TRAN] > 0
    assert sum(cs.time[TimeCat.WAITLOCK] for cs in m.core_stats) > 0
    assert m.memsys.memory[_addr(1)] == 9


def test_plain_memop_orders_its_continuation_at_completion():
    """Pin the plain/CGL ordering rule with a same-cycle tie.

    A plain or CGL memop with no compute after it orders its
    continuation at completion (``vdelay = lat``), not at issue.  Both
    layouts share that rule, so only pinned numbers can hold it.  In
    this program (a random CGL-machine program, minimized) core 1's
    second load and core 2's store, both to line 4, fire in cycle 127.
    Core 2's store follows a 120-cycle load, so it orders after core
    1's load, which was scheduled at cycle 126.  Ordering it at issue
    (cycle 7) puts the store first and the run ends at 181, not 175.
    """
    programs = [
        [Plain([load(_addr(4))])],
        [Plain([load(_addr(3)), compute(1), load(_addr(4))])],
        [Plain([compute(7), load(_addr(2)), store(_addr(4), 3)])],
    ]
    m, burst, one_op = _both_layouts(
        programs, "CGL", params=fuzz_params(4), seed=26
    )
    assert burst == one_op
    cycles, cores, memory = burst
    assert cycles == 175
    assert [c[0]["NON_TRAN"] for c in cores] == [175, 175, 175]
    # (loads, stores, l1_hits, l1_misses) per core.
    assert [(c[13], c[14], c[15], c[16]) for c in cores] == [
        (1, 0, 0, 1), (2, 0, 0, 2), (1, 1, 0, 2),
    ]
    assert memory == [(_addr(4), 3)]


def test_insts_priority_orders_same_cycle_boundaries(monkeypatch):
    """``insts_at`` counts an elided compute at ``now`` only if it fired.

    LockillerTM resolves conflicts by instructions retired in the
    attempt.  Here a priority query lands in the cycle in which one of
    the holder's elided computes retires, but before that compute's
    one-op event would have fired.  Counting the compute regardless of
    same-cycle order flips the conflict and the layouts disagree.
    """
    seen = []
    real = TxState.insts_at

    def spy(tx, now):
        anchor = tx.pending_anchor
        if anchor is not None and any(
            anchor + off == now for off, _n in tx.pending_steps
        ):
            seen.append(now)
        return real(tx, now)

    programs = [
        [Txn([compute(9), load(_addr(4)), store(_addr(3), 1)])],
        [Plain([compute(1)])],
        [Txn([compute(9), store(_addr(3), 1), compute(1)])],
    ]
    monkeypatch.setattr(TxState, "insts_at", spy)
    m, burst, one_op = _both_layouts(
        programs, "LockillerTM", params=fuzz_params(4), seed=18
    )
    assert burst == one_op
    # Guard the guard: the tie happened and the conflict was resolved.
    assert seen
    assert sum(cs.aborts[r] for cs in m.core_stats for r in cs.aborts) >= 1
    assert m.memsys.memory[_addr(3)] == 2


def test_external_abort_checkpoint_keeps_boundary_vtime():
    """Two victims of one kill roll back at the same elided boundary.

    Core 0 faults, runs out of retries (``max_retries=1``) and takes
    the classic fallback lock at cycle 29, killing cores 1 and 2.  Both
    were inside compute bursts whose next elided boundary is cycle 30:
    core 1's was allocated at cycle 25, core 2's at cycle 3.  Their
    abort checkpoints must carry those virtual times, so core 2 rolls
    back first, re-requests the lock first and gets it first, as in the
    one-op layout.
    """
    params = typical_params()
    params = replace(params, htm=replace(params.htm, max_retries=1))
    programs = [
        [Txn([fault(persistent=True), store(_addr(1), 1)])],
        [Txn([compute(22), compute(5), compute(10), store(_addr(2), 1)])],
        [Txn([compute(27), compute(10), store(_addr(3), 1)])],
    ]
    m, burst, one_op = _both_layouts(programs, "Baseline", params, seed=1)
    assert burst == one_op
    # Guard the guard: both victims died to the lock and retried on it.
    for cs in m.core_stats[1:]:
        assert cs.aborts[AbortReason.MUTEX] == 1
        assert cs.fallback_entries == 1
    assert m.cpus[2].finish_time < m.cpus[1].finish_time


@pytest.mark.xfail(
    strict=True,
    reason="an elided continuation ties with another core's event of "
    "equal virtual time and wins on its earlier sequence number; "
    "closing the gap moves pinned grid-contention cells",
)
def test_equal_vtime_tie_matches_op_layout():
    """Fuzz case (seed 0, case 98) on LockillerTM-RWL, minimized.

    Core 0's retry elides ``compute(2)`` before its first store; its
    continuation and core 2's next access fire in the same cycle with
    the same virtual time.  The one-op layout schedules core 0's event
    in that cycle, after core 2's; the burst layout scheduled it two
    cycles earlier, so it fires first.
    """
    programs = [
        [Txn([compute(2), store(_addr(2), 3), store(_addr(5), 2),
              load(_addr(4)), load(_addr(0))])],
        [Txn([load(_addr(2))])],
        [Plain([store(_addr(3), 2)]),
         Txn([load(_addr(2)), store(_addr(3), 2)])],
    ]
    _, burst, one_op = _both_layouts(
        programs, "LockillerTM-RWL", params=fuzz_params(4), seed=98
    )
    assert burst == one_op


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


def test_kills_inside_bursts_agree_fresh_pooled_and_one_op(monkeypatch):
    """External aborts that land inside elided bursts.

    Each such kill cancels the in-flight continuation
    (``CPU.note_external_abort``), and the CPU drops its recycled
    continuation token.  A fresh machine, a pooled machine run twice
    (the second run reuses it) and the one-op layout must agree.
    """
    from repro.sim.cpu import CPU
    from repro.sim.pool import MachinePool

    cancels = []
    drop = CPU._drop_burst

    def counting_drop(self):
        tok = self._burst_token
        if tok is not None and not tok.cancelled:
            cancels.append(self.core)
        drop(self)

    monkeypatch.setattr(CPU, "_drop_burst", counting_drop)
    threads, scale, seed = 8, 0.05, 42
    build = get_workload("vacation+").build(threads, scale, seed)
    spec = get_system("Baseline")
    m = Machine(RunConfig(spec=spec).params, spec, build.programs, seed=seed)
    cycles = m.run()
    fresh = _stats_fingerprint(
        RunStats(execution_cycles=cycles, cores=m.core_stats)
    )
    assert len(cancels) > 100  # guard the guard: the cancel path runs
    pool = MachinePool()
    config = RunConfig(spec=spec, threads=threads, scale=scale, seed=seed,
                       machine_pool=pool)
    pooled = [_stats_fingerprint(run_workload(build, config))
              for _ in range(2)]
    assert pool.reuses == 1
    one_op = _stats_fingerprint(run_workload(
        replace(build, programs=op_layout(build.programs)), config
    ))
    assert pooled == [fresh, fresh]
    assert one_op == fresh
