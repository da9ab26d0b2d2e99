"""ProfileReport: call counts, collector passes, save/load round trip,
and the diff."""

import json
from dataclasses import asdict

from repro.harness.profiling import (
    GcPasses,
    ProfileReport,
    compare_reports,
    load_report,
    profile_run,
)


def _report(**overrides):
    base = dict(
        workload="kmeans+",
        system="CGL",
        threads=2,
        scale=0.05,
        seed=2,
        wall_seconds=0.5,
        execution_cycles=10_000,
        events_processed=1_000,
        total_calls=40_000,
        subsystems={"sim": {"events_processed": 1_000}},
        stats_text="ncalls  tottime",
    )
    base.update(overrides)
    return ProfileReport(**base)


def test_profile_run_counts_calls():
    report = profile_run(
        "kmeans+", system="CGL", threads=2, scale=0.05, seed=2, top_n=5
    )
    # Every event is at least the engine's callback.
    assert report.total_calls > report.events_processed > 0
    assert report.calls_per_event == (
        report.total_calls / report.events_processed
    )
    # The profiled region holds the collector pause of run_workload.
    assert report.gc_passes == 0 and report.gc_ms == 0.0


def test_header_shows_calls_per_event():
    head = _report().render().splitlines()[1]
    assert "40000 calls (40.0/event)" in head


def test_header_shows_gc_passes():
    head = _report(gc_passes=3, gc_ms=1.25).render().splitlines()[1]
    assert head.endswith("| 3 gc passes (1.2 ms)")


def test_gc_passes_counts_forced_collections():
    import gc

    with GcPasses() as passes:
        gc.collect()
        gc.collect(0)
    assert passes.passes == 2 and passes.seconds > 0
    assert passes not in gc.callbacks


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "r.json"
    report = _report()
    report.save(str(path))
    loaded = load_report(str(path))
    assert loaded == report
    assert loaded.total_calls == 40_000


def test_report_saved_before_call_counts_loads_with_zero(tmp_path):
    data = asdict(_report())
    del data["total_calls"], data["gc_passes"], data["gc_ms"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    loaded = load_report(str(path))
    assert loaded.total_calls == 0
    assert (loaded.gc_passes, loaded.gc_ms) == (0, 0.0)
    assert loaded.calls_per_event == 0.0
    assert "0 calls (0.0/event)" in loaded.render()


def test_compare_reports_shows_calls_per_event_delta():
    before = _report()
    after = _report(total_calls=36_000)
    text = compare_reports(before, after)
    assert "calls/event: 40.0 -> 36.0 (-10.0%)" in text
    assert "calls/event: 40.0 -> 40.0 (=)" in compare_reports(before, before)


def test_compare_reports_shows_gc_delta():
    before = _report(gc_passes=700, gc_ms=150.0)
    after = _report(gc_passes=0, gc_ms=0.0)
    text = compare_reports(before, after)
    assert (
        "gc passes: 700 -> 0 (-100.0%) | gc ms: 150.0 -> 0.0 (-100.0%)"
        in text
    )
