"""Multi-seed experiment statistics.

A single deterministic run answers "what happened"; publishing-quality
numbers need "how stable is it".  This module repeats a configuration
across seeds and reports mean, standard deviation, min/max and a normal
approximation confidence half-width for any scalar metric, plus a
convenience for seed-stable speedup ratios (paired by seed, as the paper
compares systems on identical inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.params import SystemParams, typical_params
from repro.common.stats import RunStats
from repro.harness.parallel import (
    CellTask,
    resolve_spec,
    run_cells,
    trace_cell,
)
from repro.harness.systems import get_system

#: z for a ~95% two-sided normal interval.
Z95 = 1.96


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    stdev: float
    minimum: float
    maximum: float
    n: int

    @property
    def ci95_half_width(self) -> float:
        if self.n <= 1:
            return 0.0
        return Z95 * self.stdev / math.sqrt(self.n)

    @property
    def cov(self) -> float:
        """Coefficient of variation (relative spread)."""
        if self.mean == 0:
            return 0.0
        return self.stdev / abs(self.mean)

    def render(self, unit: str = "") -> str:
        return (
            f"{self.mean:.2f}{unit} ± {self.ci95_half_width:.2f} "
            f"(n={self.n}, min={self.minimum:.2f}, max={self.maximum:.2f})"
        )


def summarize_values(values: Sequence[float]) -> MetricSummary:
    if not values:
        raise ValueError("no values to summarize")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return MetricSummary(mean, math.sqrt(var), min(values), max(values), n)


def seed_tasks(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float,
    params: SystemParams,
    base_index: int = 0,
    fault_plan=None,
    watchdog=None,
) -> List[CellTask]:
    """One task per seed, indexed from ``base_index`` in seed order."""
    spec = resolve_spec(get_system, system)
    return [
        CellTask(
            base_index + i,
            workload,
            spec,
            threads,
            scale,
            seed,
            params,
            fault_plan,
            watchdog,
        )
        for i, seed in enumerate(seeds)
    ]


def multi_seed_runs(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.25,
    params: Optional[SystemParams] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> List[RunStats]:
    """One run per seed, in seed order.  ``jobs`` fans the seeds out to
    worker processes and ``cache`` consults/fills the persistent run
    cache; output is identical either way (each run is deterministic in
    its seed)."""
    tasks = seed_tasks(
        workload, system, threads, seeds, scale, params or typical_params()
    )
    return run_cells(tasks, jobs=jobs, cache=cache).stats


def trace_seed(
    workload: str,
    system: str,
    threads: int,
    seed: int,
    scale: float = 0.25,
    params: Optional[SystemParams] = None,
    cache=None,
    telemetry=None,
) -> Dict[str, str]:
    """Re-run one seed of a multi-seed campaign with full telemetry.

    The observability companion to :func:`multi_seed_runs`: having
    spotted an outlier seed in a summary, re-run exactly that cell with
    a telemetry session attached and drop ``.metrics.json`` /
    ``.trace.json`` artifacts next to its runcache entry (creating the
    entry if the campaign didn't cache), through
    :func:`~repro.harness.parallel.trace_cell`.  Returns artifact paths
    keyed ``result`` / ``metrics`` / ``trace``.
    """
    (task,) = seed_tasks(
        workload, system, threads, (seed,), scale, params or typical_params()
    )
    return trace_cell(
        task, cache, f"{workload}/{system}/t{threads}/s{seed}", telemetry
    )


def multi_seed_runs_resilient(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.25,
    params: Optional[SystemParams] = None,
    retry=None,
    cache=None,
):
    """Crash-tolerant :func:`multi_seed_runs`: each seed runs under a
    timeout + retry policy, failures are quarantined instead of raising,
    and ``cache`` makes the campaign resumable.  Returns
    ``(runs, quarantined)``; see
    :func:`repro.resilience.harness.resilient_seed_runs`."""
    from repro.resilience.harness import resilient_seed_runs

    return resilient_seed_runs(
        workload,
        system,
        threads,
        seeds,
        scale=scale,
        params=params,
        retry=retry,
        cache=cache,
    )


def metric_over_seeds(
    workload: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    metric: Callable[[RunStats], float] = lambda s: float(s.execution_cycles),
    scale: float = 0.25,
    params: Optional[SystemParams] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> MetricSummary:
    runs = multi_seed_runs(
        workload, system, threads, seeds, scale, params, jobs=jobs, cache=cache
    )
    return summarize_values([metric(r) for r in runs])


def paired_speedup(
    workload: str,
    baseline: str,
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.25,
    params: Optional[SystemParams] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> MetricSummary:
    """Speedup of ``system`` over ``baseline``, paired per seed.

    Pairing removes the between-input variance: both systems see the
    exact same generated programs for each seed (as in the paper, where
    every system runs the same binaries).  Both systems' runs go into
    one task batch, so ``jobs=N`` parallelizes across the full
    ``2 x len(seeds)`` set.
    """
    p = params or typical_params()
    base_tasks = seed_tasks(workload, baseline, threads, seeds, scale, p)
    sys_tasks = seed_tasks(
        workload, system, threads, seeds, scale, p, base_index=len(base_tasks)
    )
    runs = run_cells(base_tasks + sys_tasks, jobs=jobs, cache=cache).stats
    base_runs, sys_runs = runs[: len(seeds)], runs[len(seeds):]
    ratios = [
        b.execution_cycles / s.execution_cycles
        for b, s in zip(base_runs, sys_runs)
    ]
    return summarize_values(ratios)


def stability_report(
    workloads: Sequence[str],
    system: str,
    threads: int,
    seeds: Sequence[int],
    scale: float = 0.2,
    jobs: Optional[int] = None,
    cache=None,
) -> Dict[str, MetricSummary]:
    """Execution-time stability (CoV) per workload — the lens under
    which the paper excluded bayes."""
    return {
        wl: metric_over_seeds(
            wl, system, threads, seeds, scale=scale, jobs=jobs, cache=cache
        )
        for wl in workloads
    }
