"""Simulator throughput microbenchmarks (true repeated-timing benches).

Unlike the figure benches (one-shot experiments), these measure the
simulator's own hot paths with pytest-benchmark's statistics: raw event
dispatch, the L1-hit fast path, the full directory miss path, and an
end-to-end simulated-cycles-per-second figure.  Useful for keeping the
reproduction usable as it evolves (the profiling-first HPC workflow).
"""

from repro.common.params import typical_params
from repro.harness.systems import get_system
from repro.sim.engine import SimEngine
from repro.sim.machine import Machine
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def test_engine_event_dispatch(benchmark):
    """Raw engine cost: a chain of 10 k delay-1 events, one resident."""

    def dispatch_10k():
        engine = SimEngine()
        count = [0]

        def tick(t):
            count[0] += 1
            if count[0] < 10_000:
                engine.schedule_after(1, tick)

        engine.schedule_after(0, tick)
        engine.run()
        return count[0]

    assert benchmark(dispatch_10k) == 10_000


def test_l1_hit_fast_path(benchmark):
    machine = Machine(
        typical_params(), get_system("Baseline"), [[] for _ in range(4)]
    )
    ms = machine.memsys
    ms.access(0, 64, True, 0)  # warm the line

    def hit_1k():
        total = 0
        for _ in range(1000):
            total += ms.access(0, 64, True, 0).latency
        return total

    assert benchmark(hit_1k) == 1000 * typical_params().l1.hit_latency


def test_directory_miss_path(benchmark):
    machine = Machine(
        typical_params(), get_system("LockillerTM"), [[] for _ in range(4)]
    )
    ms = machine.memsys
    state = {"line": 0}

    def misses_256():
        total = 0
        for _ in range(256):
            state["line"] += 1
            total += ms.access(0, state["line"] << 6, False, 0).latency
        return total

    assert benchmark(misses_256) > 0


def _engine_counts(workload, config):
    """One extra (uncounted) run to attribute events for extra_info."""
    build = get_workload(workload).build(
        config.threads, config.scale, config.seed
    )
    machine = Machine(config.params, config.spec, build.programs,
                      seed=config.seed)
    machine.run()
    eng = machine.engine
    return eng.events_processed, eng.heap_events


def test_end_to_end_simulation_rate(benchmark):
    config = RunConfig(
        spec=get_system("LockillerTM"), threads=4, scale=0.1, seed=1
    )

    def one_run():
        stats = run_workload(get_workload("vacation-"), config)
        return stats.execution_cycles

    cycles = benchmark(one_run)
    assert cycles > 0
    events, heap = _engine_counts("vacation-", config)
    benchmark.extra_info["simulated_cycles"] = cycles
    benchmark.extra_info["events_processed"] = events
    benchmark.extra_info["heap_events"] = heap
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["simulated_cycles_per_second"] = round(
            cycles / benchmark.stats.stats.mean
        )


def test_end_to_end_fresh_build(benchmark):
    """The e2e cell with every reuse layer disabled.

    This is the pre-PR 7 configuration — a fresh WorkloadBuild (full
    generator RNG stream) and a fresh Machine every run.  Contrast with
    ``test_end_to_end_simulation_rate`` (which uses the default shared
    build cache and global machine pool) to read off the combined
    per-run cost that structural reuse removes from sweeps.
    """
    config = RunConfig(
        spec=get_system("LockillerTM"),
        threads=4,
        scale=0.1,
        seed=1,
        share_build=False,
        machine_pool=False,
    )

    def one_run():
        stats = run_workload(get_workload("vacation-"), config)
        return stats.execution_cycles

    assert benchmark(one_run) > 0


def test_end_to_end_pooled_machine(benchmark):
    """The e2e cell on a private pool with observable counters.

    Performance-wise this matches ``test_end_to_end_simulation_rate``
    (which uses the process-global pool by default); the private pool
    lets the bench assert reuse actually happened and publish the
    build/reuse counts as extra_info.
    """
    from repro.sim.pool import MachinePool

    pool = MachinePool()
    config = RunConfig(
        spec=get_system("LockillerTM"),
        threads=4,
        scale=0.1,
        seed=1,
        machine_pool=pool,
    )

    def one_run():
        stats = run_workload(get_workload("vacation-"), config)
        return stats.execution_cycles

    one_run()  # prime the pool so even a single timed call is a reuse
    assert benchmark(one_run) > 0
    assert pool.reuses > 0
    benchmark.extra_info["pool_builds"] = pool.builds
    benchmark.extra_info["pool_reuses"] = pool.reuses


def test_end_to_end_with_telemetry(benchmark):
    """Same cell as above with a full telemetry session attached.

    Compare against ``test_end_to_end_simulation_rate`` to read off the
    observability overhead (docs/OBSERVABILITY.md records it: the
    telemetry-off path is one slot test per lifecycle site, telemetry-on
    pays the session's event handler, span building and finalize).
    """
    from repro.telemetry import Telemetry

    def one_run():
        tel = Telemetry()
        stats = run_workload(
            get_workload("vacation-"),
            RunConfig(
                spec=get_system("LockillerTM"),
                threads=4,
                scale=0.1,
                seed=1,
                telemetry=tel,
            ),
        )
        return stats.execution_cycles, len(tel.registry)

    (cycles, metrics) = benchmark(one_run)
    assert cycles > 0
    assert metrics > 0
    benchmark.extra_info["simulated_cycles"] = cycles
    benchmark.extra_info["metrics_published"] = metrics
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["simulated_cycles_per_second"] = round(
            cycles / benchmark.stats.stats.mean
        )


def test_compute_burst_throughput(benchmark):
    """Burst-heavy compute-bound case: long ALU runs, few memops.

    The coalescing win shows here undiluted — each transaction is
    dominated by OP_COMPUTE chains the builder folds into single
    engine events, so events-per-simulated-cycle is far below the
    memory-bound cases above.
    """
    from repro.htm.isa import Plain, Txn, compute, load, store

    def build_programs(threads=4, txs=40):
        programs = []
        for t in range(threads):
            prog = []
            for i in range(txs):
                ops = [compute(20)]
                for k in range(12):
                    ops.append(compute(5 + (k % 7)))
                ops.append(load((t * 4096 + i) << 6))
                ops.append(compute(30))
                ops.append(store((16384 + (i % 64)) << 6, 1))
                ops.append(compute(15))
                prog.append(Txn(ops, tag=f"burst-{t}-{i}"))
                prog.append(Plain([compute(25)]))
            programs.append(prog)
        return programs

    programs = build_programs()
    spec = get_system("LockillerTM")
    params = typical_params()

    def one_run():
        machine = Machine(params, spec, programs, seed=7)
        cycles = machine.run()
        return cycles, machine.engine.events_processed

    cycles, events = benchmark(one_run)
    assert cycles > 0
    benchmark.extra_info["simulated_cycles"] = cycles
    benchmark.extra_info["events_processed"] = events
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["simulated_cycles_per_second"] = round(
            cycles / benchmark.stats.stats.mean
        )
