"""Tests for the generic sweep driver."""

import pytest

from repro.common.errors import ConfigError
from repro.harness.export import fingerprint
from repro.harness.runcache import RunCache
from repro.harness.sweeps import (
    Sweep,
    SweepPoint,
    small_vs_typical_sweep,
)
from repro.harness.systems import get_system


def six_cell_sweep(**overrides):
    axes = dict(
        workloads=("kmeans+", "ssca2"),
        systems=("CGL", "Baseline", "LockillerTM"),
        threads=(2,),
        seeds=(1,),
        scale=0.05,
    )
    axes.update(overrides)
    return Sweep(**axes)


@pytest.fixture(scope="module")
def results():
    return six_cell_sweep().run()


class TestSweepDefinition:
    def test_size(self):
        sweep = Sweep(
            workloads=("a", "b"),
            systems=("x",),
            threads=(2, 4),
            seeds=(1, 2, 3),
        )
        assert sweep.size() == 12
        assert len(list(sweep.points())) == 12

    def test_point_label(self):
        p = SweepPoint("kmeans+", "CGL", 4, 7)
        assert "kmeans+" in p.label() and "t4" in p.label()

    def test_progress_callback(self):
        seen = []
        sweep = Sweep(
            workloads=("ssca2",),
            systems=("CGL",),
            threads=(2,),
            seeds=(1,),
            scale=0.05,
        )
        sweep.run(progress=lambda p, i, n: seen.append((i, n)))
        assert seen == [(1, 1)]


class TestSweepExecutor:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_then_warm_through_cache(self, jobs, results, tmp_path):
        reference = [fingerprint(r.stats) for r in results.records]
        cache = RunCache(str(tmp_path))
        seen = []
        cold = six_cell_sweep().run(
            jobs=jobs, cache=cache, progress=lambda p, i, n: seen.append(i)
        )
        assert seen == [1, 2, 3, 4, 5, 6]
        assert (cache.hits, cache.misses, cache.stores) == (0, 6, 6)
        warm = six_cell_sweep().run(jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (6, 6, 6)
        for done in (cold, warm):
            assert [r.point for r in done.records] == [
                r.point for r in results.records
            ]
            assert [fingerprint(r.stats) for r in done.records] == reference

    def test_run_raises_the_failing_cells_error(self):
        def resolver(name):
            if name == "Broken":
                raise ConfigError("deliberately broken system")
            return get_system(name)

        sweep = six_cell_sweep(
            systems=("CGL", "Broken"), spec_resolver=resolver
        )
        with pytest.raises(ConfigError, match="deliberately broken"):
            sweep.run()


class TestSweepResults:
    def test_all_points_present(self, results):
        assert len(results) == 6

    def test_filter(self, results):
        only = results.filter(system="CGL")
        assert len(only) == 2
        assert all(r.point.system == "CGL" for r in only.records)

    def test_one(self, results):
        r = results.one(system="CGL", workload="ssca2")
        assert r.cycles > 0

    def test_one_raises_on_ambiguity(self, results):
        with pytest.raises(KeyError):
            results.one(system="CGL")

    def test_speedups_vs_cgl(self, results):
        speedups = results.speedups_vs("CGL")
        # 2 workloads x 2 non-CGL systems.
        assert len(speedups) == 4
        assert all(v > 0 for v in speedups.values())
        # ssca2 on any HTM flavour beats CGL even at tiny scale.
        ssca_pts = {
            p: v for p, v in speedups.items() if p.workload == "ssca2"
        }
        assert all(v > 1.0 for v in ssca_pts.values())

    def test_pivot(self, results):
        table = results.pivot(lambda r: r.commit_rate)
        assert set(table) == {"CGL", "Baseline", "LockillerTM"}
        assert all(2 in row for row in table.values())
        assert table["CGL"][2] == pytest.approx(1.0)

    def test_filter_rejects_unknown_criterion(self, results):
        # Regression: a typo'd key used to silently match nothing (or
        # blow up with a bare AttributeError deep in the match loop).
        with pytest.raises(KeyError, match="unknown sweep criterion"):
            results.filter(sytem="CGL")
        with pytest.raises(KeyError, match="workload"):
            # The error names the valid vocabulary.
            results.filter(wl="ssca2")

    def test_one_rejects_unknown_criterion(self, results):
        with pytest.raises(KeyError, match="unknown sweep criterion"):
            results.one(threds=2)

    def test_pivot_rejects_unknown_axis(self, results):
        with pytest.raises(KeyError, match="unknown sweep criterion"):
            results.pivot(lambda r: r.cycles, rows="sys", cols="threads")
        with pytest.raises(KeyError, match="unknown sweep criterion"):
            results.pivot(lambda r: r.cycles, cols="thread_count")


class TestConvenience:
    def test_small_vs_typical_sweep_tags(self):
        sweep = small_vs_typical_sweep(("ssca2",), ("CGL",), scale=0.05)
        tags = {p.params_tag for p in sweep.points()}
        assert tags == {"typical", "small"}
        res = sweep.run()
        assert len(res) == 2
