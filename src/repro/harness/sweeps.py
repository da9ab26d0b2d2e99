"""Generic parameter-sweep driver.

The figure drivers in :mod:`repro.harness.experiments` cover the paper's
grids; this module generalizes them: declare axes (workloads, systems,
thread counts, cache configs, seeds, HTM parameter overrides), get back
a tidy list of records you can filter/aggregate, with optional progress
reporting and a run cache.  Used by the ablation benches and available
to downstream users exploring their own design space.

:meth:`Sweep.points` is the harness's one grid expansion and
:class:`Cell` its one executable cell: sweeps, the multi-seed helpers
and service campaigns all run the cells it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.common.params import SystemParams, typical_params
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.harness.systems import get_system


@dataclass(frozen=True)
class UnresolvedSpec:
    """A system whose resolver raised while its cells were being built.

    Each run of the cell raises that error, so it is the cell's error:
    it propagates, or a retry policy retries and quarantines it.  A
    cell without a spec has no key, so it never touches the cache.
    """

    name: str
    error: Exception


@dataclass(frozen=True)
class Cell:
    """One cell of an experiment grid, ready to run and picklable.

    Its coordinates are its identity (equality, hashing and the
    :class:`SweepResults` criteria); the resolved spec, the params and
    the run-cache key ride along.  ``system`` is the name as given, so
    the label keeps it.  A cell with an :class:`UnresolvedSpec` has no
    key.
    """

    workload: str
    system: str
    threads: int
    scale: float
    seed: int
    params_tag: str
    spec: Union[SystemSpec, UnresolvedSpec] = field(
        compare=False, repr=False
    )
    params: SystemParams = field(compare=False, repr=False)
    key: Optional[str] = field(compare=False, repr=False)

    @classmethod
    def of(
        cls,
        workload: str,
        system: str,
        threads,
        scale,
        seed,
        params_tag: str,
        spec: Union[SystemSpec, UnresolvedSpec],
        params: SystemParams,
        key_of: Callable[..., str],
    ) -> "Cell":
        """Build a cell: ``threads`` and ``seed`` become ints, ``scale``
        a float, and ``key_of`` (a
        :func:`~repro.harness.runcache.cell_keyer`) keys it."""
        threads, scale, seed = int(threads), float(scale), int(seed)
        key = None
        if not isinstance(spec, UnresolvedSpec):
            key = key_of(workload, spec, params, threads, scale, seed)
        return cls(workload, system, threads, scale, seed, params_tag,
                   spec, params, key)

    def label(self) -> str:
        return (
            f"{self.workload}/{self.system}/t{self.threads}"
            f"/s{self.seed}/{self.params_tag}"
        )


@dataclass
class SweepRecord:
    point: Cell
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

    def points(self) -> List[Cell]:
        """The grid's cells, workload-major (then system, threads, seed
        and params tag): the one expansion of a grid.

        A system the resolver rejects becomes an
        :class:`UnresolvedSpec`, so the error is raised by that cell's
        run.
        """
        # Imported here, not at the top, so importing the sweep driver
        # does not import the run cache.
        from repro.harness.runcache import cell_keyer

        specs: Dict[str, Union[SystemSpec, UnresolvedSpec]] = {}
        for system in self.systems:
            try:
                specs[system] = self.spec_resolver(system)
            except Exception as exc:  # noqa: BLE001 - raised by its cells
                specs[system] = UnresolvedSpec(system, exc)
        key_of = cell_keyer()
        return [
            Cell.of(wl, system, th, self.scale, seed, tag, specs[system],
                    self.params_by_tag[tag], key_of)
            for wl, system, th, seed, tag in itertools.product(
                self.workloads,
                self.systems,
                self.threads,
                self.seeds,
                self.params_by_tag,
            )
        ]

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
        progress: Optional[Callable[[Cell, int, int], None]] = None,
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

        cells = self.points()
        done = run_cells(
            cells,
            jobs=jobs,
            cache=cache,
            progress=counted(len(cells), progress),
        )
        return SweepResults(
            [SweepRecord(c, s) for c, s in zip(cells, done.stats)]
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

        ``criteria`` select exactly one :class:`Cell` (same vocabulary
        as :meth:`SweepResults.filter`); the cell goes through
        :func:`~repro.harness.parallel.trace_cell`, labelled
        ``run_label`` or the cell's label.  Returns ``{"metrics": path,
        "trace": path, "result": path}``.
        """
        from repro.harness.parallel import trace_cell

        _check_point_fields(*criteria)
        matches = [
            c for c in self.points()
            if all(getattr(c, k) == v for k, v in criteria.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} sweep points match {criteria!r}; expected 1"
            )
        (cell,) = matches
        return trace_cell(cell, cache, run_label or cell.label(), telemetry)

    def run_resilient(
        self,
        retry=None,
        progress: Optional[Callable[[Cell, int, int], None]] = None,
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
    total: int, progress: Optional[Callable[[Cell, int, int], None]]
) -> Optional[Callable[[Cell], None]]:
    """Adapt a ``progress(cell, done, total)`` callback to
    :func:`~repro.harness.parallel.run_cells`' per-cell one."""
    if progress is None:
        return None
    count = itertools.count(1)
    return lambda cell: progress(cell, next(count), total)


#: The criteria vocabulary of filter/one/pivot: a cell's coordinates.
POINT_FIELDS = tuple(f.name for f in fields(Cell) if f.compare)


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

    def speedups_vs(self, baseline_system: str) -> Dict[Cell, float]:
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
        out: Dict[Cell, float] = {}
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
