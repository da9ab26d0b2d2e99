"""Generic parameter-sweep driver.

The figure drivers in :mod:`repro.harness.experiments` cover the paper's
grids; this module generalizes them: declare axes (workloads, systems,
thread counts, cache configs, seeds, HTM parameter overrides), get back
a tidy list of records you can filter/aggregate, with optional progress
reporting and a run cache.  Used by the ablation benches and available
to downstream users exploring their own design space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.common.params import SystemParams, typical_params
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.harness.systems import get_system


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    workload: str
    system: str
    threads: int
    seed: int
    params_tag: str = "typical"

    def label(self) -> str:
        return (
            f"{self.workload}/{self.system}/t{self.threads}"
            f"/s{self.seed}/{self.params_tag}"
        )


@dataclass
class SweepRecord:
    point: SweepPoint
    stats: RunStats

    @property
    def cycles(self) -> int:
        return self.stats.execution_cycles

    @property
    def commit_rate(self) -> float:
        return self.stats.commit_rate


@dataclass
class Sweep:
    """Cartesian sweep definition."""

    workloads: Sequence[str]
    systems: Sequence[str]
    threads: Sequence[int] = (8,)
    seeds: Sequence[int] = (42,)
    scale: float = 0.25
    #: Named machine configurations; default only "typical".
    params_by_tag: Mapping[str, SystemParams] = field(
        default_factory=lambda: {"typical": typical_params()}
    )
    #: Optional spec resolver for systems outside Table II.
    spec_resolver: Callable[[str], SystemSpec] = get_system

    def points(self) -> Iterable[SweepPoint]:
        for wl, system, th, seed, tag in itertools.product(
            self.workloads,
            self.systems,
            self.threads,
            self.seeds,
            self.params_by_tag,
        ):
            yield SweepPoint(wl, system, th, seed, tag)

    def size(self) -> int:
        return (
            len(self.workloads)
            * len(self.systems)
            * len(self.threads)
            * len(self.seeds)
            * len(self.params_by_tag)
        )

    def cell_tasks(self, fault_plan=None, watchdog=None) -> list:
        """One :class:`~repro.harness.parallel.CellTask` per
        :meth:`points` entry, indexed in grid order.

        A system the resolver rejects becomes an
        :class:`~repro.harness.parallel.UnresolvedSpec`, so the error is
        raised by that cell's run.
        """
        # Imported here, not at the top, so importing the sweep driver
        # does not import the executor and the run cache.
        from repro.harness.parallel import CellTask, resolve_spec

        return [
            CellTask(
                i,
                point.workload,
                resolve_spec(self.spec_resolver, point.system),
                point.threads,
                self.scale,
                point.seed,
                self.params_by_tag[point.params_tag],
                fault_plan,
                watchdog,
            )
            for i, point in enumerate(self.points())
        ]

    def run(
        self,
        progress: Optional[Callable[[SweepPoint, int, int], None]] = None,
        jobs: Optional[int] = None,
        cache=None,
    ) -> "SweepResults":
        """Execute every cell; returns records in :meth:`points` order.

        ``jobs`` fans cells out to worker processes (see
        :mod:`repro.harness.parallel` for the ``None``/``0``/``N``
        convention); results are merged back in grid order, so a
        parallel run is bit-identical to a serial one.  ``cache``
        (``True``, a directory path, or a
        :class:`~repro.harness.runcache.RunCache`) consults and fills
        the persistent run cache so repeated or resumed sweeps skip
        completed cells.  ``progress`` fires once per completed cell
        with a monotonically increasing count (completion order under
        ``jobs > 1``).  The first failing cell's error propagates.
        """
        from repro.harness.parallel import run_cells

        points = list(self.points())
        done = run_cells(
            self.cell_tasks(),
            jobs=jobs,
            cache=cache,
            progress=counted(points, progress),
        )
        return SweepResults(
            [SweepRecord(p, s) for p, s in zip(points, done.stats)]
        )

    def rerun_with_telemetry(
        self,
        cache,
        telemetry=None,
        run_label: Optional[str] = None,
        **criteria,
    ) -> Dict[str, str]:
        """Re-run one cell under full telemetry; dump artifacts beside
        its runcache entry.

        ``criteria`` select exactly one :class:`SweepPoint` (same
        vocabulary as :meth:`SweepResults.filter`); the cell goes
        through :func:`~repro.harness.parallel.trace_cell`, labelled
        ``run_label`` or the point's label.  Returns ``{"metrics": path,
        "trace": path, "result": path}``.
        """
        from repro.harness.parallel import trace_cell

        _check_point_fields(*criteria)
        matches = [
            (p, task)
            for p, task in zip(self.points(), self.cell_tasks())
            if all(getattr(p, k) == v for k, v in criteria.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} sweep points match {criteria!r}; expected 1"
            )
        ((point, task),) = matches
        return trace_cell(task, cache, run_label or point.label(), telemetry)

    def run_resilient(
        self,
        retry=None,
        progress: Optional[Callable[[SweepPoint, int, int], None]] = None,
        fault_plan=None,
        watchdog=None,
        cache=None,
    ):
        """Crash-tolerant :meth:`run`: per-cell timeout + retry +
        quarantine; ``cache=`` is the resume journal.  See
        :func:`repro.resilience.harness.run_sweep_resilient`."""
        from repro.resilience.harness import run_sweep_resilient

        return run_sweep_resilient(
            self,
            retry=retry,
            progress=progress,
            fault_plan=fault_plan,
            watchdog=watchdog,
            cache=cache,
        )


def counted(
    points: Sequence[SweepPoint],
    progress: Optional[Callable[[SweepPoint, int, int], None]],
) -> Optional[Callable]:
    """Adapt a ``progress(point, done, total)`` callback to
    :func:`~repro.harness.parallel.run_cells`' per-task one."""
    if progress is None:
        return None
    count = itertools.count(1)
    return lambda task: progress(
        points[task.index], next(count), len(points)
    )


#: The criteria vocabulary of filter/one/pivot.
POINT_FIELDS = tuple(f.name for f in fields(SweepPoint))


def _check_point_fields(*names: str) -> None:
    """Reject typo'd criterion keys with the valid vocabulary attached."""
    for name in names:
        if name not in POINT_FIELDS:
            raise KeyError(
                f"unknown sweep criterion {name!r}; valid keys: "
                + ", ".join(POINT_FIELDS)
            )


class SweepResults:
    """Query interface over sweep records."""

    def __init__(self, records: List[SweepRecord]) -> None:
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, **criteria) -> "SweepResults":
        _check_point_fields(*criteria)

        def match(r: SweepRecord) -> bool:
            return all(
                getattr(r.point, key) == value
                for key, value in criteria.items()
            )

        return SweepResults([r for r in self.records if match(r)])

    def one(self, **criteria) -> SweepRecord:
        matches = self.filter(**criteria).records
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} records match {criteria!r}; expected 1"
            )
        return matches[0]

    def speedups_vs(self, baseline_system: str) -> Dict[SweepPoint, float]:
        """Per-point speedup relative to the same cell on ``baseline``."""
        base: Dict[tuple, int] = {}
        for r in self.records:
            if r.point.system == baseline_system:
                key = (
                    r.point.workload,
                    r.point.threads,
                    r.point.seed,
                    r.point.params_tag,
                )
                base[key] = r.cycles
        out: Dict[SweepPoint, float] = {}
        for r in self.records:
            if r.point.system == baseline_system:
                continue
            key = (
                r.point.workload,
                r.point.threads,
                r.point.seed,
                r.point.params_tag,
            )
            if key in base:
                out[r.point] = base[key] / r.cycles
        return out

    def pivot(
        self,
        value: Callable[[SweepRecord], float],
        rows: str = "system",
        cols: str = "threads",
    ) -> Dict[object, Dict[object, float]]:
        """Aggregate (mean) a metric into rows x cols."""
        _check_point_fields(rows, cols)
        acc: Dict[object, Dict[object, List[float]]] = {}
        for r in self.records:
            rkey = getattr(r.point, rows)
            ckey = getattr(r.point, cols)
            acc.setdefault(rkey, {}).setdefault(ckey, []).append(value(r))
        return {
            rkey: {ckey: sum(vs) / len(vs) for ckey, vs in row.items()}
            for rkey, row in acc.items()
        }


def small_vs_typical_sweep(
    workloads: Sequence[str],
    systems: Sequence[str],
    threads: Sequence[int] = (8,),
    scale: float = 0.2,
) -> Sweep:
    """Convenience: the Fig.-13 style two-cache-config sweep."""
    from repro.common.params import small_cache_params

    return Sweep(
        workloads=workloads,
        systems=systems,
        threads=threads,
        scale=scale,
        params_by_tag={
            "typical": typical_params(),
            "small": small_cache_params(),
        },
    )
