"""Random-program fuzzing of the full simulator stack.

Complements the hypothesis property tests: generates seedable random
multi-threaded programs over a small hot address space (worst case for
the conflict machinery), runs them on a set of systems — optionally with
tiny caches to force overflows and paranoid SWMR checking — and verifies
the functional expectation on every run.  Every clean (no fault plan)
run is repeated in the one-op-per-burst layout
(:func:`~repro.htm.isa.op_layout`) and must match the coalesced run
exactly.  Any counterexample is reported with its exact (seed, case)
coordinates for replay.

Used by ``python -m repro.harness.cli fuzz`` and the stress test in
``tests/test_fuzz.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.params import CacheParams, SystemParams
from repro.common.rng import substream
from repro.harness.systems import get_system
from repro.htm.isa import (
    Plain,
    Segment,
    Txn,
    compute,
    fault,
    load,
    op_layout,
    store,
)
from repro.sim.machine import Machine
from repro.workloads.base import expected_final_memory

DEFAULT_SYSTEMS = (
    "CGL",
    "Baseline",
    "LosaTM-SAFU",
    "LockillerTM-RAI",
    "LockillerTM-RRI",
    "LockillerTM-RWI",
    "LockillerTM-RWL",
    "LockillerTM-RWIL",
    "LockillerTM",
)


def fuzz_params(num_cores: int = 4) -> SystemParams:
    """Tiny overflow-prone machine for fuzzing."""
    return SystemParams(
        num_cores=num_cores,
        l1=CacheParams(4 * 64, 2, 2),
        llc=CacheParams(512 * 64, 16, 12),
    )


def random_programs(
    rng: np.random.Generator,
    max_threads: int = 4,
    max_segments: int = 5,
    max_ops: int = 8,
    n_lines: int = 6,
    fault_prob: float = 0.08,
) -> List[List[Segment]]:
    """One random program per thread over ``n_lines`` hot lines."""
    programs: List[List[Segment]] = []
    for _ in range(int(rng.integers(1, max_threads + 1))):
        segments: List[Segment] = []
        for _ in range(int(rng.integers(1, max_segments + 1))):
            ops = [compute(int(rng.integers(1, 12)))]
            for _ in range(int(rng.integers(1, max_ops + 1))):
                kind = int(rng.integers(0, 3))
                addr = int(rng.integers(0, n_lines)) * 64
                if kind == 0:
                    ops.append(load(addr))
                elif kind == 1:
                    ops.append(store(addr, int(rng.integers(1, 4))))
                else:
                    ops.append(compute(int(rng.integers(1, 6))))
            if rng.random() < 0.5:
                if rng.random() < fault_prob:
                    ops.insert(
                        1, fault(persistent=bool(rng.integers(0, 2)))
                    )
                segments.append(Txn(ops))
            else:
                segments.append(
                    Plain([op for op in ops if op[0] != 3])  # no plain faults
                )
        programs.append(segments)
    return programs


@dataclass
class FuzzFailure:
    """One counterexample with its *complete* replay coordinates.

    ``seed`` is the campaign seed; ``machine_seed`` is the exact seed
    the failing :class:`Machine` was built with (``seed + case`` — the
    value :func:`replay_case` needs).  ``plan`` names the fault plan in
    force, if any.
    """

    case: int
    system: str
    seed: int
    detail: str
    machine_seed: int = 0
    plan: Optional[str] = None

    def replay_coords(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "case": self.case,
            "system": self.system,
            "machine_seed": self.machine_seed,
            "plan": self.plan,
        }


@dataclass
class FuzzReport:
    cases: int
    runs: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.cases} cases x systems = {self.runs} runs, "
            f"{len(self.failures)} failure(s)"
        ]
        for f in self.failures[:10]:
            where = f"case {f.case} on {f.system}"
            if f.plan:
                where += f" under plan {f.plan}"
            lines.append(
                f"  {where} (machine seed {f.machine_seed}): {f.detail}"
            )
        return "\n".join(lines)


def case_programs(seed: int, case: int) -> List[List[Segment]]:
    """The deterministic programs of fuzz case ``(seed, case)``."""
    return random_programs(substream(seed, "fuzz", case))


def _build_machine(
    progs: List[List[Segment]],
    system: str,
    seed: int,
    case: int,
    paranoid: bool,
    params: Optional[SystemParams],
    plan,
    watchdog,
) -> Machine:
    machine = Machine(
        params or fuzz_params(max(4, len(progs))),
        get_system(system),
        progs,
        seed=seed + case,
        fault_plan=plan,
        watchdog=watchdog,
    )
    machine.replay_info["case"] = case
    machine.replay_info["campaign_seed"] = seed
    if paranoid:
        machine.memsys.paranoid = True
    return machine


def core_fingerprint(cs) -> tuple:
    """Everything architecturally visible about one core's run."""
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


def run_fingerprint(machine: Machine, cycles: int) -> tuple:
    """Cycles, per-core statistics and memory image of a finished run."""
    return (
        cycles,
        [core_fingerprint(cs) for cs in machine.core_stats],
        sorted(machine.memsys.memory.items()),
    )


def _check_run(machine: Machine, expected, n_txns: int) -> List[str]:
    """Functional-oracle checks; returns failure details (empty = ok)."""
    details: List[str] = []
    got: Dict[int, int] = {
        a: v for a, v in machine.memsys.memory.items() if v != 0
    }
    if got != expected:
        details.append("memory image mismatch")
    commits = sum(cs.commits for cs in machine.core_stats)
    if commits != n_txns:
        details.append(f"{commits} commits for {n_txns} transactions")
    problems = machine.memsys.check_quiescent()
    if problems:
        details.append("; ".join(problems[:2]))
    return details


def replay_case(
    seed: int,
    case: int,
    system: str,
    plan=None,
    paranoid: bool = False,
    params: Optional[SystemParams] = None,
    watchdog=None,
) -> Machine:
    """Re-run one fuzz case bit-for-bit and return the finished machine.

    Takes the coordinates a :class:`FuzzFailure` records (campaign seed,
    case, system, plan) and rebuilds the exact same run — same programs,
    same machine seed, same injection schedule — for debugging.
    """
    progs = case_programs(seed, case)
    machine = _build_machine(
        progs, system, seed, case, paranoid, params, plan, watchdog
    )
    machine.run()
    return machine


def run_fuzz(
    cases: int = 25,
    seed: int = 0,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    paranoid: bool = False,
    params: Optional[SystemParams] = None,
    plans: Sequence = (None,),
    watchdog=None,
) -> FuzzReport:
    """Fuzz campaign: ``cases`` random programs x ``systems`` x ``plans``.

    ``plans`` is a sequence of fault plans (``None`` = clean run); the
    functional oracle must hold under every one of them.  A clean run
    is repeated in the one-op layout and reports ``layout mismatch``
    when the two runs differ in any cycle, statistic or memory word.
    """
    report = FuzzReport(cases=cases, runs=0)
    for case in range(cases):
        progs = case_programs(seed, case)
        expected = expected_final_memory(progs)
        n_txns = sum(1 for p in progs for s in p if isinstance(s, Txn))
        for system in systems:
            for plan in plans:
                plan_name = plan.name if plan is not None else None
                report.runs += 1

                def fail(detail: str) -> None:
                    report.failures.append(
                        FuzzFailure(
                            case,
                            system,
                            seed,
                            detail,
                            machine_seed=seed + case,
                            plan=plan_name,
                        )
                    )

                try:
                    machine = _build_machine(
                        progs, system, seed, case, paranoid, params,
                        plan, watchdog,
                    )
                    cycles = machine.run()
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    fail(f"crash: {exc!r}")
                    continue
                for detail in _check_run(machine, expected, n_txns):
                    fail(detail)
                if plan is not None:
                    continue
                try:
                    oracle = _build_machine(
                        op_layout(progs), system, seed, case, paranoid,
                        params, plan, watchdog,
                    )
                    oracle_cycles = oracle.run()
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    fail(f"crash in the one-op layout: {exc!r}")
                    continue
                if run_fingerprint(machine, cycles) != run_fingerprint(
                    oracle, oracle_cycles
                ):
                    fail("layout mismatch")
    return report


def run_chaos_fuzz(
    cases: int = 25,
    seed: int = 0,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    paranoid: bool = False,
    params: Optional[SystemParams] = None,
    plans: Optional[Sequence] = None,
    watchdog=None,
) -> FuzzReport:
    """Chaos mode: the fuzz oracle under the default fault campaign.

    Every run is armed with a fault plan and the forward-progress
    watchdog, so a genuine livelock surfaces as a structured
    :class:`~repro.common.errors.LivelockError` crash failure rather
    than a hung process.
    """
    from repro.resilience.faults import default_campaign
    from repro.resilience.watchdog import WatchdogConfig

    if plans is None:
        plans = default_campaign()
    if watchdog is None:
        watchdog = WatchdogConfig(horizon=2_000_000)
    return run_fuzz(
        cases=cases,
        seed=seed,
        systems=systems,
        paranoid=paranoid,
        params=params,
        plans=plans,
        watchdog=watchdog,
    )
