"""ProfileReport: call counts, save/load round trip, and the diff."""

import json
from dataclasses import asdict

from repro.harness.profiling import (
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


def test_header_shows_calls_per_event():
    head = _report().render().splitlines()[1]
    assert "40000 calls (40.0/event)" in head


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "r.json"
    report = _report()
    report.save(str(path))
    loaded = load_report(str(path))
    assert loaded == report
    assert loaded.total_calls == 40_000


def test_report_saved_before_call_counts_loads_with_zero(tmp_path):
    data = asdict(_report())
    del data["total_calls"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    loaded = load_report(str(path))
    assert loaded.total_calls == 0
    assert loaded.calls_per_event == 0.0
    assert "0 calls (0.0/event)" in loaded.render()


def test_compare_reports_shows_calls_per_event_delta():
    before = _report()
    after = _report(total_calls=36_000)
    text = compare_reports(before, after)
    assert "calls/event: 40.0 -> 36.0 (-10.0%)" in text
    assert "calls/event: 40.0 -> 40.0 (=)" in compare_reports(before, before)
