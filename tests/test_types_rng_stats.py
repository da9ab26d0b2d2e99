"""Unit tests for common.types, common.rng and common.stats."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import SplitMix64, derive_seed, substream
from repro.common.stats import (
    AbortReason,
    CoreStats,
    RunStats,
    TimeCat,
    geometric_mean,
    speedup,
    weighted_average,
)
from repro.common.types import LINE_SIZE, line_base, line_of, same_line


class TestTypes:
    def test_line_of_base_roundtrip(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1
        assert line_base(3) == 192

    @given(st.integers(min_value=0, max_value=2**48))
    def test_line_of_consistent(self, addr):
        ln = line_of(addr)
        assert line_base(ln) <= addr < line_base(ln) + LINE_SIZE

    @given(st.integers(min_value=0, max_value=2**32), st.integers(0, 63))
    def test_same_line_within_line(self, base, off):
        a = base * LINE_SIZE
        assert same_line(a, a + off)

    def test_different_lines(self):
        assert not same_line(0, 64)


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_sensitive_to_tags(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_substream_reproducible(self):
        a, b = substream(7, "x"), substream(7, "x")
        assert [a.integers(0, 1000) for _ in range(10)] == [
            b.integers(0, 1000) for _ in range(10)
        ]

    def test_splitmix_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [
            b.next_u64() for _ in range(5)
        ]

    def test_splitmix_below_range(self):
        r = SplitMix64(1)
        for _ in range(200):
            assert 0 <= r.below(7) < 7

    def test_splitmix_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_chance_extremes(self):
        r = SplitMix64(3)
        assert not r.chance(0.0)
        assert r.chance(1.0)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_chance_roughly_calibrated(self, p):
        r = SplitMix64(99)
        hits = sum(r.chance(p) for _ in range(2000))
        assert abs(hits / 2000 - p) < 0.08


class TestCoreStats:
    def test_commit_rate_no_attempts(self):
        assert CoreStats().commit_rate == 1.0

    def test_commit_rate(self):
        cs = CoreStats()
        cs.tx_attempts = 10
        cs.commits_htm = 6
        cs.commits_lock = 2
        assert cs.commit_rate == pytest.approx(0.8)

    def test_add_time_rejects_negative(self):
        with pytest.raises(ValueError):
            CoreStats().add_time(TimeCat.HTM, -1)

    def test_totals(self):
        cs = CoreStats()
        cs.aborts[AbortReason.CONFLICT_HTM] = 3
        cs.aborts[AbortReason.OVERFLOW] = 2
        assert cs.total_aborts == 5


class TestRunStats:
    def _stats(self):
        a, b = CoreStats(), CoreStats()
        a.add_time(TimeCat.HTM, 100)
        b.add_time(TimeCat.LOCK, 300)
        a.commits_htm = 4
        a.tx_attempts = 5
        b.commits_lock = 1
        b.tx_attempts = 1
        a.aborts[AbortReason.CONFLICT_HTM] = 1
        return RunStats(execution_cycles=400, cores=[a, b])

    def test_time_breakdown_sums_cores(self):
        bd = self._stats().time_breakdown()
        assert bd[TimeCat.HTM] == 100
        assert bd[TimeCat.LOCK] == 300

    def test_time_fractions_sum_to_one(self):
        fr = self._stats().time_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_abort_fractions(self):
        fr = self._stats().abort_fractions()
        assert fr[AbortReason.CONFLICT_HTM] == pytest.approx(1.0)

    def test_commit_rate_aggregates(self):
        st_ = self._stats()
        assert st_.commits == 5
        assert st_.tx_attempts == 6
        assert st_.commit_rate == pytest.approx(5 / 6)

    def test_merged_matches_breakdown(self):
        st_ = self._stats()
        merged = st_.merged()
        assert merged.time[TimeCat.LOCK] == 300
        assert merged.commits == 5
        assert merged.total_aborts == 1

    def test_empty_fractions(self):
        st_ = RunStats(execution_cycles=0, cores=[CoreStats()])
        assert all(v == 0.0 for v in st_.time_fractions().values())
        assert all(v == 0.0 for v in st_.abort_fractions().values())


class TestAggregators:
    def test_geometric_mean_known(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_geometric_mean_single(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=8))
    def test_geometric_mean_bounds(self, vals):
        g = geometric_mean(vals)
        assert min(vals) - 1e-9 <= g <= max(vals) + 1e-9

    def test_speedup(self):
        assert speedup(200, 100) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(100, 0)

    def test_weighted_average_weights_matter(self):
        # 0.9 with weight 10 vs 0.5 with weight 90: far from the
        # unweighted mean of 0.7.
        assert weighted_average([(0.9, 10), (0.5, 90)]) == pytest.approx(0.54)

    def test_weighted_average_equal_weights_is_mean(self):
        assert weighted_average([(1.0, 1), (2.0, 1), (3.0, 1)]) == pytest.approx(2.0)

    def test_weighted_average_zero_weight_entry_ignored(self):
        assert weighted_average([(100.0, 0), (2.0, 5)]) == pytest.approx(2.0)

    def test_weighted_average_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_average([])

    def test_weighted_average_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            weighted_average([(1.0, -1.0)])

    def test_weighted_average_rejects_zero_total_weight(self):
        with pytest.raises(ValueError):
            weighted_average([(1.0, 0.0), (2.0, 0.0)])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=0.1, max_value=10),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_weighted_average_bounds(self, pairs):
        w = weighted_average(pairs)
        vals = [v for v, _ in pairs]
        assert min(vals) - 1e-9 <= w <= max(vals) + 1e-9
