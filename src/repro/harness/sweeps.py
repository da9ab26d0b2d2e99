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
        ``jobs > 1``).
        """
        from repro.harness.parallel import CellTask, run_cells
        from repro.harness.runcache import cell_keyer, cell_meta, coerce_cache

        rc = coerce_cache(cache)
        key_of = cell_keyer()
        points = list(self.points())
        total = len(points)
        stats_list: List[Optional[RunStats]] = [None] * total
        keys: List[Optional[str]] = [None] * total
        tasks: List[CellTask] = []
        done_count = 0
        for i, point in enumerate(points):
            spec = self.spec_resolver(point.system)
            params = self.params_by_tag[point.params_tag]
            if rc is not None:
                keys[i] = key_of(
                    point.workload,
                    spec,
                    params,
                    point.threads,
                    self.scale,
                    point.seed,
                )
                hit = rc.get(keys[i])
                if hit is not None:
                    stats_list[i] = hit
                    done_count += 1
                    if progress is not None:
                        progress(point, done_count, total)
                    continue
            tasks.append(
                CellTask(
                    i,
                    point.workload,
                    spec,
                    point.threads,
                    self.scale,
                    point.seed,
                    params,
                )
            )

        def on_done(task: CellTask, stats: RunStats) -> None:
            nonlocal done_count
            if rc is not None:
                rc.put(
                    keys[task.index],
                    stats,
                    meta=cell_meta(
                        task.workload,
                        task.spec,
                        task.threads,
                        task.scale,
                        task.seed,
                    ),
                )
            done_count += 1
            if progress is not None:
                progress(points[task.index], done_count, total)

        executed = run_cells(tasks, jobs=jobs, on_done=on_done)
        for task in tasks:
            stats_list[task.index] = executed[task.index]
        return SweepResults(
            [SweepRecord(p, s) for p, s in zip(points, stats_list)]
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
        vocabulary as :meth:`SweepResults.filter`).  The cell is re-run
        with an attached :class:`~repro.telemetry.Telemetry` session —
        runs are pure functions of the cell key, so the re-run
        reproduces the cached result bit-for-bit while capturing the
        *why* — and ``<key>.metrics.json`` / ``<key>.trace.json`` are
        written atomically next to ``<key>.json`` in the cache shard.
        Returns ``{"metrics": path, "trace": path, "result": path}``.
        """
        from repro.harness.runcache import cell_key, coerce_cache
        from repro.sim.runner import RunConfig, run_workload
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import artifact_path
        from repro.workloads.registry import get_workload

        rc = coerce_cache(cache if cache is not None else True)
        if rc is None:
            raise ValueError("rerun_with_telemetry needs a run cache")
        _check_point_fields(*criteria)
        matches = [
            p
            for p in self.points()
            if all(getattr(p, k) == v for k, v in criteria.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} sweep points match {criteria!r}; expected 1"
            )
        point = matches[0]
        spec = self.spec_resolver(point.system)
        params = self.params_by_tag[point.params_tag]
        tel = telemetry if telemetry is not None else Telemetry()
        stats = run_workload(
            get_workload(point.workload),
            RunConfig(
                spec,
                threads=point.threads,
                scale=self.scale,
                seed=point.seed,
                params=params,
                telemetry=tel,
            ),
        )
        key = cell_key(
            point.workload, spec, params, point.threads, self.scale, point.seed
        )
        rc.put(key, stats, meta={"workload": point.workload,
                                 "system": point.system,
                                 "threads": point.threads,
                                 "scale": self.scale,
                                 "seed": point.seed})
        label = run_label or point.label()
        out = {"result": rc.path_for(key)}
        out["metrics"] = tel.write_metrics(artifact_path(rc, key, "metrics"))
        if tel.timeline is not None:
            out["trace"] = tel.write_trace(
                artifact_path(rc, key, "trace"), run_label=label
            )
        return out

    def run_resilient(
        self,
        checkpoint_path: Optional[str] = None,
        retry=None,
        progress: Optional[Callable[[SweepPoint, int, int], None]] = None,
        fault_plan=None,
        watchdog=None,
        cache=None,
    ):
        """Crash-tolerant :meth:`run`: per-cell timeout + retry +
        quarantine, with optional JSON checkpointing for resume.  The
        run cache (``cache=``) composes with the checkpoint: cells found
        in either are not re-run.  See
        :func:`repro.resilience.harness.run_sweep_resilient`."""
        from repro.resilience.harness import run_sweep_resilient

        return run_sweep_resilient(
            self,
            checkpoint_path=checkpoint_path,
            retry=retry,
            progress=progress,
            fault_plan=fault_plan,
            watchdog=watchdog,
            cache=cache,
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
