"""Tests for the bayes workload (implemented though paper-excluded)."""

import statistics

import pytest

from repro.harness.systems import get_system
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.analyze import profile_programs
from repro.workloads.registry import get_workload


class TestBayesShape:
    def test_footprints_highly_variable(self):
        build = get_workload("bayes").build(threads=4, scale=1.0, seed=2)
        prof = profile_programs(build.programs)
        footprints = [t.footprint for t in prof.txns]
        assert min(footprints) < 20
        assert max(footprints) > 150
        # Heavy tail: the spread is the workload's defining trait.
        assert statistics.pstdev(footprints) > statistics.mean(footprints) * 0.6

    def test_deterministic(self):
        wl = get_workload("bayes")
        a = wl.build(threads=2, scale=0.3, seed=5)
        b = wl.build(threads=2, scale=0.3, seed=5)
        assert a.expected == b.expected

    def test_runs_on_all_key_systems(self):
        for system in ("CGL", "Baseline", "LockillerTM"):
            stats = run_workload(
                get_workload("bayes"),
                RunConfig(
                    spec=get_system(system), threads=4, scale=0.2, seed=3
                ),
            )
            assert stats.sanity_failures == []
            assert stats.commits > 0

    def test_execution_time_is_volatile_across_seeds(self):
        """The paper's stated reason for excluding bayes."""
        cycles = []
        for seed in range(4):
            stats = run_workload(
                get_workload("bayes"),
                RunConfig(
                    spec=get_system("Baseline"), threads=4, scale=0.2,
                    seed=seed,
                ),
            )
            cycles.append(stats.execution_cycles)
        spread = max(cycles) / min(cycles)
        assert spread > 1.1  # noticeably seed-sensitive

    def test_mixed_commit_paths(self):
        """Small txs commit speculatively; huge ones overflow/fall back."""
        stats = run_workload(
            get_workload("bayes"),
            RunConfig(
                spec=get_system("LockillerTM"), threads=4, scale=0.4, seed=3
            ),
        )
        merged = stats.merged()
        assert merged.commits_htm > 0
        assert merged.commits_lock + merged.commits_switched > 0
