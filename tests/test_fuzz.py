"""Tests for the fuzzer and a fuzz-based stress pass over all systems."""

import numpy as np
import pytest

from repro.common.rng import substream
from repro.htm.isa import Txn
from repro.sim.fuzz import (
    DEFAULT_SYSTEMS,
    FuzzReport,
    fuzz_params,
    random_programs,
    run_fuzz,
)


class TestGenerator:
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
