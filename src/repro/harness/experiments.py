"""Per-figure experiment drivers (see DESIGN.md experiment index).

Each ``figN_*`` function runs the workload/system/thread grid the paper's
figure covers and returns a structured result; ``print_figN`` renders the
same rows/series the figure plots.  Runs are memoized per
:class:`ExperimentContext` so overlapping figures (7, 12, 13 share the
same sweeps) do not re-simulate.

The ``scale`` knob shrinks the workloads uniformly — the paper's shapes
(who wins, by roughly what factor, where crossovers fall) are stable
across scale; the bench defaults trade a little noise for tractable
wall-clock time on one laptop core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.params import (
    SystemParams,
    large_cache_params,
    small_cache_params,
    typical_params,
)
from repro.common.stats import (
    ABORT_REASONS,
    TIME_CATS,
    RunStats,
    geometric_mean,
    weighted_average,
)
from repro.harness.reporting import (
    format_breakdown_table,
    format_series,
    format_table,
)
from repro.harness.parallel import run_cells
from repro.harness.runcache import cell_keyer
from repro.harness.sweeps import Cell
from repro.harness.systems import TABLE_ORDER, get_system
from repro.workloads.registry import PAPER_ORDER

#: Paper thread sweep; trimmed via REPRO_BENCH_THREADS for quick runs.
PAPER_THREADS: Tuple[int, ...] = (2, 4, 8, 16, 32)


def default_threads() -> Tuple[int, ...]:
    env = os.environ.get("REPRO_BENCH_THREADS")
    if env:
        return tuple(int(x) for x in env.split(",") if x)
    return (2, 8, 32)


def default_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@dataclass
class ExperimentContext:
    """Shared run memo + sweep configuration.

    ``jobs`` (default ``None``: ``$REPRO_JOBS``, else serial, resolved
    by :func:`~repro.harness.parallel.run_cells`) lets the figure
    drivers execute their grids through the multi-process runner —
    every driver pre-warms its full cell grid via :meth:`prewarm`, then
    reads the memo cell by cell.  ``disk_cache`` additionally persists
    results through a :class:`~repro.harness.runcache.RunCache`, so
    overlapping figures in *different* processes (e.g. the per-figure
    benches) reuse each other's runs.
    """

    scale: float = field(default_factory=default_scale)
    seed: int = 42
    threads: Tuple[int, ...] = field(default_factory=default_threads)
    workloads: Tuple[str, ...] = tuple(PAPER_ORDER)
    params: SystemParams = field(default_factory=typical_params)
    jobs: Optional[int] = None
    #: Persistent run cache (RunCache | path | True | None).
    disk_cache: object = None
    _cache: Dict[tuple, RunStats] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        from repro.harness.runcache import coerce_cache

        self.disk_cache = coerce_cache(self.disk_cache)

    def _key(
        self, workload: str, system: str, threads: int, params_tag: str
    ) -> tuple:
        return (workload, system, threads, params_tag, self.scale, self.seed)

    def run(
        self,
        workload: str,
        system: str,
        threads: int,
        params: Optional[SystemParams] = None,
        params_tag: str = "typical",
    ) -> RunStats:
        self.prewarm([(workload, system, threads)], params, params_tag)
        return self._cache[self._key(workload, system, threads, params_tag)]

    def prewarm(
        self,
        cells: Iterable[Tuple[str, str, int]],
        params: Optional[SystemParams] = None,
        params_tag: str = "typical",
    ) -> int:
        """Bulk-run missing ``(workload, system, threads)`` cells.

        With ``jobs > 1`` the missing cells execute concurrently in
        worker processes; either way each result lands in the memo (and
        the disk cache, when armed) so subsequent :meth:`run` calls are
        pure lookups.  Returns the number of cells actually executed.
        """
        p = params or self.params
        key_of = cell_keyer()
        todo: Dict[tuple, Cell] = {}
        for wl, system, th in cells:
            key = self._key(wl, system, th, params_tag)
            if key not in self._cache and key not in todo:
                todo[key] = Cell.of(
                    wl, system, th, self.scale, self.seed, params_tag,
                    get_system(system), p, key_of,
                )
        done = run_cells(
            list(todo.values()), jobs=self.jobs, cache=self.disk_cache
        )
        self._cache.update(zip(todo, done.stats))
        return done.executed

    def speedup_vs_cgl(
        self,
        workload: str,
        system: str,
        threads: int,
        params: Optional[SystemParams] = None,
        params_tag: str = "typical",
    ) -> float:
        cgl = self.run(workload, "CGL", threads, params, params_tag)
        sysr = self.run(workload, system, threads, params, params_tag)
        return cgl.execution_cycles / sysr.execution_cycles


# ---------------------------------------------------------------------------
# Tables I and II
# ---------------------------------------------------------------------------

def table1_parameters(params: Optional[SystemParams] = None) -> str:
    p = params or typical_params()
    rows = [
        ("Number of cores", p.num_cores),
        ("Cache line size", f"{p.l1.line_size} bytes"),
        (
            "L1 I&D caches",
            f"private, {p.l1.size_bytes // 1024}KB, {p.l1.assoc}-way, "
            f"{p.l1.hit_latency}-cycle hit",
        ),
        (
            "L2 (LLC)",
            f"shared, {p.llc.size_bytes // (1024 * 1024)}MB, "
            f"{p.llc.assoc}-way, {p.llc.hit_latency}-cycle hit",
        ),
        ("Memory", f"{p.memory.latency}-cycle latency"),
        ("Coherence protocol", "MESI, directory-based"),
        (
            "Topology / routing",
            f"2-D mesh ({p.network.mesh_cols}x{p.network.mesh_rows}), X-Y",
        ),
        (
            "Flit / message size",
            f"{p.network.flit_bytes} bytes / {p.network.data_flits} flits "
            f"(data), {p.network.control_flits} flit (control)",
        ),
        (
            "Link latency / bandwidth",
            f"{p.network.link_latency} cycle / 1 flit per cycle",
        ),
    ]
    return format_table(
        ["Component", "Value"], rows, title="Table I. System Model Parameters"
    )


def table2_systems() -> str:
    rows = [(name, get_system(name).describe()) for name in TABLE_ORDER]
    return format_table(
        ["System", "Composition"], rows, title="Table II. Evaluated Systems"
    )


# ---------------------------------------------------------------------------
# Fig. 1 — motivation: Baseline vs CGL at 2 threads
# ---------------------------------------------------------------------------

def fig1_motivation(ctx: ExperimentContext) -> Dict[str, float]:
    ctx.prewarm(
        (wl, system, 2)
        for wl in ctx.workloads
        for system in ("CGL", "Baseline")
    )
    return {
        wl: ctx.speedup_vs_cgl(wl, "Baseline", 2) for wl in ctx.workloads
    }


def print_fig1(ctx: ExperimentContext) -> str:
    data = fig1_motivation(ctx)
    out = format_table(
        ["workload", "speedup vs CGL"],
        sorted(data.items()),
        title=(
            "Fig. 1 — requester-wins best-effort HTM vs coarse-grained "
            "locking, 2 threads"
        ),
    )
    losers = [w for w, s in data.items() if s < 1.0]
    out += f"\nworkloads losing to CGL: {sorted(losers)}"
    return out


# ---------------------------------------------------------------------------
# Fig. 7 — speedup of every system vs CGL across thread counts
# ---------------------------------------------------------------------------

def fig7_speedup_grid(
    ctx: ExperimentContext,
    systems: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    systems = list(systems or [s for s in TABLE_ORDER if s != "CGL"])
    ctx.prewarm(
        (wl, system, th)
        for wl in ctx.workloads
        for system in ["CGL"] + systems
        for th in ctx.threads
    )
    grid: Dict[str, Dict[str, Dict[int, float]]] = {}
    for wl in ctx.workloads:
        grid[wl] = {}
        for system in systems:
            grid[wl][system] = {
                th: ctx.speedup_vs_cgl(wl, system, th) for th in ctx.threads
            }
    return grid


def print_fig7(
    ctx: ExperimentContext, systems: Optional[Sequence[str]] = None
) -> str:
    grid = fig7_speedup_grid(ctx, systems)
    blocks = []
    for wl, per_system in grid.items():
        blocks.append(
            format_series(
                per_system,
                title=f"Fig. 7 [{wl}] — speedup vs CGL (typical caches)",
            )
        )
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Fig. 8 — average commit rate of the recovery systems
# ---------------------------------------------------------------------------

FIG8_SYSTEMS = (
    "Baseline",
    "LockillerTM-RAI",
    "LockillerTM-RRI",
    "LockillerTM-RWI",
)


def fig8_commit_rate(ctx: ExperimentContext) -> Dict[str, Dict[int, float]]:
    """Average commit rate per system/thread count.

    The average weights each workload by its transaction attempts —
    a workload committing 9 of 10 transactions should not drag the
    aggregate around as hard as one committing 9000 of 10000.
    """
    ctx.prewarm(
        (wl, system, th)
        for wl in ctx.workloads
        for system in FIG8_SYSTEMS
        for th in ctx.threads
    )
    out: Dict[str, Dict[int, float]] = {}
    for system in FIG8_SYSTEMS:
        out[system] = {}
        for th in ctx.threads:
            runs = [ctx.run(wl, system, th) for wl in ctx.workloads]
            if any(r.tx_attempts for r in runs):
                out[system][th] = weighted_average(
                    (r.commit_rate, float(r.tx_attempts)) for r in runs
                )
            else:
                out[system][th] = 1.0
    return out


def print_fig8(ctx: ExperimentContext) -> str:
    data = fig8_commit_rate(ctx)
    out = format_series(
        data,
        title="Fig. 8 — average transaction commit rate (all workloads)",
    )
    base = data["Baseline"]
    improvements = {
        system: {
            th: (vals[th] / base[th] if base[th] else float("nan"))
            for th in vals
        }
        for system, vals in data.items()
        if system != "Baseline"
    }
    out += "\n\n" + format_series(
        improvements, title="commit-rate improvement over Baseline (x)"
    )
    return out


# ---------------------------------------------------------------------------
# Figs. 9 / 11 — execution-time breakdown + commit rate
# ---------------------------------------------------------------------------

FIG9_SYSTEMS = ("LockillerTM-RWI", "LockillerTM-RWL", "LockillerTM-RWIL")
FIG11_SYSTEMS = ("LockillerTM-RWIL", "LockillerTM")


def breakdown_experiment(
    ctx: ExperimentContext,
    threads: int,
    systems: Sequence[str],
) -> Dict[str, Dict[str, dict]]:
    ctx.prewarm(
        (wl, system, threads)
        for wl in ctx.workloads
        for system in systems
    )
    out: Dict[str, Dict[str, dict]] = {}
    for wl in ctx.workloads:
        out[wl] = {}
        for system in systems:
            stats = ctx.run(wl, system, threads)
            out[wl][system] = {
                "fractions": {
                    c.value: f for c, f in stats.time_fractions().items()
                },
                "commit_rate": stats.commit_rate,
                "cycles": stats.execution_cycles,
            }
    return out


def fig9_breakdown32(ctx: ExperimentContext) -> Dict[str, Dict[str, dict]]:
    return breakdown_experiment(ctx, max(ctx.threads), FIG9_SYSTEMS)


def fig11_breakdown2(ctx: ExperimentContext) -> Dict[str, Dict[str, dict]]:
    return breakdown_experiment(ctx, min(ctx.threads), FIG11_SYSTEMS)


def _print_breakdown(
    data: Dict[str, Dict[str, dict]], title: str
) -> str:
    cats = [c.value for c in TIME_CATS]
    blocks = []
    for wl, per_system in data.items():
        table = {
            system: entry["fractions"] for system, entry in per_system.items()
        }
        block = format_breakdown_table(
            table,
            row_order=list(per_system),
            col_order=cats,
            title=f"{title} [{wl}]",
        )
        rates = "  ".join(
            f"{system}: cr={entry['commit_rate']:.2f}"
            for system, entry in per_system.items()
        )
        blocks.append(block + "\n" + rates)
    return "\n\n".join(blocks)


def print_fig9(ctx: ExperimentContext) -> str:
    threads = max(ctx.threads)
    return _print_breakdown(
        fig9_breakdown32(ctx),
        f"Fig. 9 — execution-time breakdown, {threads} threads",
    )


def print_fig11(ctx: ExperimentContext) -> str:
    threads = min(ctx.threads)
    return _print_breakdown(
        fig11_breakdown2(ctx),
        f"Fig. 11 — execution-time breakdown, {threads} threads",
    )


# ---------------------------------------------------------------------------
# Fig. 10 — abort-reason percentages at 2 threads
# ---------------------------------------------------------------------------

FIG10_SYSTEMS = ("Baseline", "LockillerTM-RWIL", "LockillerTM")


def fig10_abort_reasons(
    ctx: ExperimentContext, threads: Optional[int] = None
) -> Dict[str, Dict[str, Dict[str, float]]]:
    th = threads if threads is not None else min(ctx.threads)
    ctx.prewarm(
        (wl, system, th)
        for wl in ctx.workloads
        for system in FIG10_SYSTEMS
    )
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for wl in ctx.workloads:
        out[wl] = {}
        for system in FIG10_SYSTEMS:
            stats = ctx.run(wl, system, th)
            out[wl][system] = {
                r.value: f for r, f in stats.abort_fractions().items()
            }
    return out


def print_fig10(ctx: ExperimentContext) -> str:
    th = min(ctx.threads)
    data = fig10_abort_reasons(ctx, th)
    reasons = [r.value for r in ABORT_REASONS if r.value != "explicit"]
    blocks = []
    for wl, per_system in data.items():
        blocks.append(
            format_breakdown_table(
                per_system,
                row_order=list(per_system),
                col_order=reasons,
                title=f"Fig. 10 — abort reasons, {th} threads [{wl}]",
            )
        )
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Fig. 12 — average speedup across systems
# ---------------------------------------------------------------------------

def fig12_avg_speedup(
    ctx: ExperimentContext,
    systems: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[int, float]]:
    systems = list(systems or [s for s in TABLE_ORDER if s != "CGL"])
    ctx.prewarm(
        (wl, system, th)
        for wl in ctx.workloads
        for system in ["CGL"] + systems
        for th in ctx.threads
    )
    out: Dict[str, Dict[int, float]] = {}
    for system in systems:
        out[system] = {}
        for th in ctx.threads:
            out[system][th] = geometric_mean(
                ctx.speedup_vs_cgl(wl, system, th) for wl in ctx.workloads
            )
    return out


def headline_ratios(ctx: ExperimentContext) -> Dict[str, float]:
    """The paper's 1.86x / 1.57x headline: LockillerTM vs Baseline and
    vs LosaTM-SAFU, geomean over workloads and thread counts."""
    ctx.prewarm(
        (wl, system, th)
        for th in ctx.threads
        for wl in ctx.workloads
        for system in ("LockillerTM", "Baseline", "LosaTM-SAFU")
    )
    ratios_base: List[float] = []
    ratios_losa: List[float] = []
    for th in ctx.threads:
        for wl in ctx.workloads:
            lk = ctx.run(wl, "LockillerTM", th).execution_cycles
            base = ctx.run(wl, "Baseline", th).execution_cycles
            losa = ctx.run(wl, "LosaTM-SAFU", th).execution_cycles
            ratios_base.append(base / lk)
            ratios_losa.append(losa / lk)
    return {
        "vs Baseline": geometric_mean(ratios_base),
        "vs LosaTM-SAFU": geometric_mean(ratios_losa),
    }


def print_fig12(ctx: ExperimentContext) -> str:
    data = fig12_avg_speedup(ctx)
    out = format_series(
        data,
        title="Fig. 12 — average (geomean) speedup vs CGL across workloads",
    )
    heads = headline_ratios(ctx)
    out += (
        f"\n\nheadline: LockillerTM speedup {heads['vs Baseline']:.2f}x "
        f"vs Baseline, {heads['vs LosaTM-SAFU']:.2f}x vs LosaTM-SAFU "
        "(paper: 1.86x / 1.57x)"
    )
    return out


# ---------------------------------------------------------------------------
# Fig. 13 — cache-size sensitivity
# ---------------------------------------------------------------------------

FIG13_SYSTEMS = ("Baseline", "LosaTM-SAFU", "LockillerTM")


def fig13_cache_sensitivity(
    ctx: ExperimentContext,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    configs = {
        "small (8KB/1MB)": (small_cache_params(), "small"),
        "typical (32KB/8MB)": (typical_params(), "typical"),
        "large (128KB/32MB)": (large_cache_params(), "large"),
    }
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for label, (params, tag) in configs.items():
        ctx.prewarm(
            (
                (wl, system, th)
                for wl in ctx.workloads
                for system in ("CGL",) + FIG13_SYSTEMS
                for th in ctx.threads
            ),
            params=params,
            params_tag=tag,
        )
        out[label] = {}
        for system in FIG13_SYSTEMS:
            out[label][system] = {}
            for th in ctx.threads:
                out[label][system][th] = geometric_mean(
                    ctx.speedup_vs_cgl(wl, system, th, params, tag)
                    for wl in ctx.workloads
                )
    return out


def extreme_scenario(ctx: ExperimentContext) -> Dict[str, float]:
    """The 'maximum 7.79x / 6.73x' corner: high-contention workloads,
    8 KB L1, most threads."""
    from repro.workloads.registry import HIGH_CONTENTION

    params, tag = small_cache_params(), "small"
    th = max(ctx.threads)
    ctx.prewarm(
        (
            (wl, system, th)
            for wl in HIGH_CONTENTION
            for system in ("LockillerTM", "Baseline", "LosaTM-SAFU")
        ),
        params=params,
        params_tag=tag,
    )
    ratios_base: List[float] = []
    ratios_losa: List[float] = []
    for wl in HIGH_CONTENTION:
        lk = ctx.run(wl, "LockillerTM", th, params, tag).execution_cycles
        base = ctx.run(wl, "Baseline", th, params, tag).execution_cycles
        losa = ctx.run(wl, "LosaTM-SAFU", th, params, tag).execution_cycles
        ratios_base.append(base / lk)
        ratios_losa.append(losa / lk)
    return {
        "max vs Baseline": max(ratios_base),
        "max vs LosaTM-SAFU": max(ratios_losa),
    }


def print_fig13(ctx: ExperimentContext) -> str:
    data = fig13_cache_sensitivity(ctx)
    blocks = []
    for label, per_system in data.items():
        blocks.append(
            format_series(
                per_system,
                title=f"Fig. 13 — geomean speedup vs CGL, {label}",
            )
        )
    ext = extreme_scenario(ctx)
    blocks.append(
        "extreme scenario (8KB L1, high-contention workloads, "
        f"{max(ctx.threads)} threads): LockillerTM up to "
        f"{ext['max vs Baseline']:.2f}x vs Baseline, "
        f"{ext['max vs LosaTM-SAFU']:.2f}x vs LosaTM-SAFU "
        "(paper: 7.79x / 6.73x)"
    )
    return "\n\n".join(blocks)
