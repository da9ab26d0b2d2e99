"""Tests for the fuzzer and a fuzz-based stress pass over all systems."""

import hashlib

import pytest

from repro.common.rng import substream
from repro.htm.isa import Txn
from repro.sim.fuzz import (
    DEFAULT_SYSTEMS,
    FuzzReport,
    case_programs,
    fuzz_params,
    random_programs,
    run_fuzz,
)


#: Digest of each segment's kind and ops for fuzz cases 0-49 at campaign
#: seed 0, the programs :func:`~repro.sim.fuzz.replay_case` rebuilds.
CASE_DIGESTS = (
    "8f325fc07d", "9d0179228d", "2c699e4921", "e74fba8cbb", "aae9ff0f94",
    "d5f41ae849", "ae5b0f44c7", "71c8444b67", "11d04ed536", "5bc62ee770",
    "9ae098c294", "8cde31db6d", "2f3109d63d", "a9a747fe22", "304121bfc9",
    "69bb1c3b7a", "6410628377", "ed39ae36ae", "15d0caa730", "30f8cec023",
    "289ad9f11c", "36bde50cc2", "5a85ce1a8f", "0168edb614", "5ac2a3adce",
    "e669a66b85", "a2fd572339", "f12a6b62ef", "56c655755e", "a702d5aaee",
    "2599dc48ee", "557fcb3b72", "fb42181ea6", "1d1655fdb3", "b2f6299f7f",
    "178ef97c35", "161a1535a9", "2c3d49e185", "d0d0fade15", "0998e26ae1",
    "0a02bd6e30", "20560bd325", "d44a2813df", "6741a7ee1d", "3dbeb92e90",
    "52fcaac244", "e749c512e6", "be9c6ba721", "5e5659be85", "cf2ada00de",
)


def programs_digest(programs):
    h = hashlib.sha256()
    for prog in programs:
        for seg in prog:
            h.update(repr((type(seg).__name__, seg.ops)).encode())
    return h.hexdigest()[:10]


class TestGenerator:
    def test_case_programs_are_pinned(self):
        moved = [
            case for case, want in enumerate(CASE_DIGESTS)
            if programs_digest(case_programs(0, case)) != want
        ]
        assert not moved, f"fuzz case programs moved: {moved}"

    def test_deterministic(self):
        a = random_programs(substream(1, "x"))
        b = random_programs(substream(1, "x"))
        assert [[s.ops for s in p] for p in a] == [
            [s.ops for s in p] for p in b
        ]

    def test_respects_bounds(self):
        for seed in range(10):
            progs = random_programs(
                substream(seed, "b"), max_threads=3, max_segments=2, max_ops=4
            )
            assert 1 <= len(progs) <= 3
            for prog in progs:
                assert 1 <= len(prog) <= 2
                for seg in prog:
                    assert len(seg.ops) <= 6  # compute + ops (+ fault)

    def test_plain_segments_never_fault(self):
        for seed in range(20):
            progs = random_programs(substream(seed, "c"), fault_prob=1.0)
            for prog in progs:
                for seg in prog:
                    if not isinstance(seg, Txn):
                        assert all(op[0] != 3 for op in seg.ops)

    def test_fuzz_params_tiny(self):
        p = fuzz_params()
        assert p.l1.num_lines == 4  # overflow-prone on purpose


class TestFuzzRuns:
    def test_clean_report_all_systems(self):
        report = run_fuzz(cases=12, seed=7)
        assert report.ok, report.render()
        assert report.runs == 12 * len(DEFAULT_SYSTEMS)

    def test_paranoid_mode(self):
        report = run_fuzz(
            cases=4, seed=3, systems=("LockillerTM",), paranoid=True
        )
        assert report.ok, report.render()

    def test_report_render(self):
        r = FuzzReport(cases=1, runs=1)
        assert "0 failure" in r.render()

    @pytest.mark.parametrize("seed", [11, 99, 12345])
    def test_seed_sweep_on_full_stack(self, seed):
        report = run_fuzz(cases=6, seed=seed, systems=("LockillerTM",))
        assert report.ok, report.render()


#: The seed-0 campaign's one known layout mismatch, kept as a strict
#: xfail in tests/test_burst_equivalence.py
#: (test_equal_vtime_tie_matches_op_layout).
KNOWN_LAYOUT_GAPS = [(98, "LockillerTM-RWL", "layout mismatch")]


class TestLayoutOracle:
    def test_seed0_cases_match_op_layout(self):
        """Every clean run also runs in the one-op layout and must match."""
        report = run_fuzz(cases=200, seed=0)
        assert report.runs == 200 * len(DEFAULT_SYSTEMS)
        got = [(f.case, f.system, f.detail) for f in report.failures]
        assert got == KNOWN_LAYOUT_GAPS, report.render()

    def test_fault_plans_skip_the_layout_run(self, monkeypatch):
        from repro.resilience.faults import default_campaign
        import repro.sim.fuzz as fuzz

        calls = []
        real = fuzz.op_layout
        monkeypatch.setattr(
            fuzz, "op_layout", lambda p: calls.append(1) or real(p)
        )
        plans = (None, default_campaign()[0])
        report = run_fuzz(cases=2, seed=5, systems=("Baseline",), plans=plans)
        assert report.ok, report.render()
        assert len(calls) == 2  # one per clean run
