"""Tests for the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_metrics.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from tracing import profile_split  # noqa: E402


def test_cell_gaps_time_first_cell_from_round_start():
    assert metrics.cell_gaps(10.0, [10.5, 11.0, 13.0]) == [0.5, 0.5, 2.0]


def test_cell_gaps_skip_work_done_inside_the_callback():
    # Timing resumes 0.1 after each stamp (a calibration slice ran).
    gaps = metrics.cell_gaps(10.0, [10.5, 11.0, 13.0], [10.6, 11.1, 13.1])
    assert gaps == pytest.approx([0.5, 0.4, 1.9])


def test_normalize_rescales_by_the_median_of_nearby_slices():
    times = [1.0, 1.0, 1.0, 1.0]
    slices = [4.0, 8.0, 8.0, 4.0]
    # Windows (half-width 1): [4,8] [4,8,8] [8,8,4] [8,4].
    out = metrics.normalize(times, slices, ref=4.0, half_window=1)
    assert out == pytest.approx([4 / 6, 0.5, 0.5, 4 / 6])
    # On a host running at the reference speed nothing changes.
    assert metrics.normalize([2.0, 3.0], [4.0, 4.0], ref=4.0) == [2.0, 3.0]
    with pytest.raises(ValueError):
        metrics.normalize([1.0], [], ref=4.0)


def test_best_of_rounds_sum_takes_each_cells_fastest_round():
    rounds = [
        [1.0, 5.0, 3.0],
        [2.0, 4.0, 3.5],
        [1.5, 6.0, 2.5],
    ]
    # Cell minima come from different rounds: 1.0 + 4.0 + 2.5.
    assert metrics.best_of_rounds_sum(rounds) == pytest.approx(7.5)
    # It is never above the fastest whole round.
    assert metrics.best_of_rounds_sum(rounds) <= min(map(sum, rounds))


def test_best_of_rounds_sum_rejects_ragged_or_empty_rounds():
    with pytest.raises(ValueError):
        metrics.best_of_rounds_sum([])
    with pytest.raises(ValueError):
        metrics.best_of_rounds_sum([[1.0, 2.0], [1.0]])


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "op": None}


def test_self_time_is_span_minus_covered_children():
    spans = [
        _span(1, "cell", 0.0, 10.0),
        _span(2, "build", 1.0, 3.0, parent=1),
        _span(3, "run", 2.0, 6.0, parent=1),   # overlaps build: union 1..6
        _span(4, "inner", 4.0, 5.0, parent=3),
        _span(5, "put", 8.0, 12.0, parent=1),  # clipped to the parent: 8..10
    ]
    own = metrics.self_times(spans)
    assert own["cell"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["build"] == pytest.approx(2.0)
    assert own["run"] == pytest.approx(4.0 - 1.0)
    assert own["inner"] == pytest.approx(1.0)
    assert own["put"] == pytest.approx(4.0)


def test_self_time_sums_spans_of_one_name():
    spans = [_span(1, "get", 0.0, 1.0), _span(2, "get", 5.0, 5.5)]
    assert metrics.self_times(spans)["get"] == pytest.approx(1.5)


def test_covered_merges_overlaps_and_clips():
    assert metrics.covered([(0, 2), (1, 3), (5, 9)], 1, 6) == 3


def test_tail_percentile_reports_highest_with_ten_beyond():
    samples = list(range(1, 101))           # 100 samples
    p, value, n = metrics.tail_percentile(samples)
    assert (p, value, n) == (90.0, 90, 100)  # 10 samples beyond p90
    p, _, _ = metrics.tail_percentile(list(range(1000)))
    assert p == 99.0                         # 10 beyond p99, 1 beyond p99.9
    p, value, _ = metrics.tail_percentile(list(range(1, 21)))
    assert (p, value) == (50.0, 10)          # only the median qualifies
    assert metrics.tail_percentile(list(range(19))) is None
    assert metrics.tail_percentile([]) is None


def test_percentile_is_nearest_rank():
    assert metrics.percentile([5, 1, 3, 2, 4], 50) == 3
    assert metrics.percentile([5, 1, 3, 2, 4], 90) == 5
    assert metrics.beyond(100, 90) == 10
    assert metrics.beyond(99, 90) == 9


def test_ratio_bases():
    # htm.commit_ratio: base is attempts.
    assert metrics.commit_ratio(commits=45, attempts=100) == 0.45
    # mem.access_per_commit: base is commits.
    assert metrics.access_per_commit(accesses=820, commits=100) == 8.2
    # service.dedup_ratio: base is every cell delivered.
    assert metrics.dedup_ratio(from_cache=48, deduped=1, scheduled=1) \
        == pytest.approx(1 / 50)
    # An empty base reads 0, never a division error.
    assert metrics.commit_ratio(0, 0) == 0.0
    assert metrics.dedup_ratio(0, 0, 0) == 0.0


def test_profile_split_groups_by_module_and_counts_calls():
    raw = {
        ("/x/src/repro/sim/engine.py", 1, "run"): (1, 1, 2.0, 9.0, {}),
        ("/x/src/repro/sim/cpu.py", 1, "_tx_step_burst"): (5, 7, 1.0, 3, {}),
        ("/x/src/repro/coherence/memsys.py", 1, "access"): (9, 9, 1.0, 2, {}),
        ("/x/src/repro/core/conflict.py", 1, "resolve"): (3, 3, 0.5, 1, {}),
        ("~", 0, "<built-in method len>"): (4, 4, 0.5, 0.5, {}),
    }
    split = profile_split(raw)
    assert split["sim.engine_share"] == pytest.approx(2.0 / 5.0)
    assert split["core.share"] == pytest.approx(0.5 / 5.0)
    assert split["sim.tx_step_calls"] == 7
    assert split["mem.access_calls"] == 9
    assert split["core.resolve_calls"] == 3
    assert split["noc.share"] == 0.0
