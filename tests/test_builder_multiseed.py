"""Tests for ProgramBuilder and the multi-seed statistics helpers."""

import pytest

from repro.common.errors import ConfigError
from repro.harness.export import fingerprint
from repro.harness.multiseed import (
    metric_over_seeds,
    multi_seed_runs,
    paired_speedup,
    stability_report,
    summarize_values,
)
from repro.harness.runcache import RunCache
from repro.harness.systems import get_system
from repro.htm.builder import ProgramBuilder, build_programs
from repro.htm.isa import OP_COMPUTE, OP_FAULT, OP_LOAD, OP_STORE, Plain, Txn
from repro.sim.machine import Machine
from repro.common.params import typical_params
from conftest import line_addr


class TestProgramBuilder:
    def test_plain_then_txn(self):
        b = ProgramBuilder()
        b.compute(10).load(64)
        with b.txn(tag="t1"):
            b.rmw(128, 5)
        b.compute(3)
        prog = b.build()
        assert [type(s) for s in prog] == [Plain, Txn, Plain]
        assert prog[1].tag == "t1"
        assert [op[0] for op in prog[1].ops] == [OP_LOAD, OP_STORE]

    def test_rmw_is_adjacent_pair(self):
        b = ProgramBuilder()
        with b.txn():
            b.rmw(64, 2)
        (txn,) = b.build()
        assert txn.ops == [(OP_LOAD, 64, 0), (OP_STORE, 64, 2)]

    def test_nested_txn_flattens(self):
        b = ProgramBuilder()
        with b.txn(tag="outer"):
            b.load(64)
            assert b.nesting_depth == 1
            with b.txn(tag="inner"):
                assert b.nesting_depth == 2
                b.store(128, 1)
            assert b.nesting_depth == 1
            b.compute(2)
        prog = b.build()
        assert len(prog) == 1
        assert prog[0].tag == "outer"
        assert len(prog[0].ops) == 3

    def test_fault_only_inside_txn(self):
        b = ProgramBuilder()
        with pytest.raises(ConfigError):
            b.fault()
        with b.txn():
            b.fault(persistent=True)
            b.store(64, 1)
        (txn,) = b.build()
        assert txn.ops[0][0] == OP_FAULT

    def test_empty_txn_rejected(self):
        b = ProgramBuilder()
        with pytest.raises(ConfigError):
            with b.txn():
                pass

    def test_build_inside_txn_rejected(self):
        b = ProgramBuilder()
        with pytest.raises(ConfigError):
            with b.txn():
                b.load(64)
                b.build()

    def test_builder_reusable_after_build(self):
        b = ProgramBuilder()
        b.compute(1)
        first = b.build()
        b.compute(2)
        second = b.build()
        assert len(first) == 1 and len(second) == 1
        assert first[0].ops != second[0].ops

    def test_build_programs_runs_end_to_end(self):
        def make(b: ProgramBuilder, t: int) -> None:
            b.compute(5 + t)
            with b.txn(tag=f"inc-{t}"):
                b.rmw(line_addr(0), 1)

        programs = build_programs(3, make)
        m = Machine(typical_params(), get_system("LockillerTM"), programs)
        m.run()
        assert m.memsys.memory[line_addr(0)] == 3


class TestSummaries:
    def test_summarize_known_values(self):
        s = summarize_values([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.stdev == pytest.approx(1.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.ci95_half_width > 0

    def test_single_value(self):
        s = summarize_values([5.0])
        assert s.stdev == 0.0 and s.ci95_half_width == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_values([])

    def test_cov(self):
        assert summarize_values([2.0, 2.0]).cov == 0.0

    def test_render(self):
        text = summarize_values([1.0, 2.0]).render(unit="x")
        assert "±" in text and "n=2" in text


class TestMultiSeed:
    def test_metric_over_seeds(self):
        s = metric_over_seeds(
            "kmeans-", "Baseline", threads=2, seeds=(1, 2, 3), scale=0.05
        )
        assert s.n == 3
        assert s.minimum <= s.mean <= s.maximum

    def test_paired_speedup_positive(self):
        s = paired_speedup(
            "ssca2", "CGL", "Baseline", threads=2, seeds=(1, 2), scale=0.05
        )
        assert s.mean > 1.0  # HTM beats CGL on ssca2 at any seed

    def test_stability_report_flags_bayes(self):
        report = stability_report(
            ["kmeans-", "bayes"],
            "Baseline",
            threads=4,
            seeds=(1, 2, 3),
            scale=0.15,
        )
        # bayes is the volatile one — that is why the paper excluded it.
        assert report["bayes"].cov > report["kmeans-"].cov

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_multi_seed_runs_through_cache(self, jobs, tmp_path):
        args = ("ssca2", "LockillerTM", 2, (1, 2, 3))
        reference = [
            fingerprint(s) for s in multi_seed_runs(*args, scale=0.05)
        ]
        cache = RunCache(str(tmp_path))
        cold = multi_seed_runs(*args, scale=0.05, jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 3, 3)
        warm = multi_seed_runs(*args, scale=0.05, jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (3, 3, 3)
        assert [fingerprint(s) for s in cold] == reference
        assert [fingerprint(s) for s in warm] == reference

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paired_speedup_through_cache(self, jobs, tmp_path):
        args = ("ssca2", "CGL", "LockillerTM", 2, (1, 2))
        reference = paired_speedup(*args, scale=0.05)
        cache = RunCache(str(tmp_path))
        cold = paired_speedup(*args, scale=0.05, jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (0, 4, 4)
        warm = paired_speedup(*args, scale=0.05, jobs=jobs, cache=cache)
        assert (cache.hits, cache.misses, cache.stores) == (4, 4, 4)
        assert cold == reference and warm == reference

    def test_unknown_system_raises_its_error(self):
        with pytest.raises(ConfigError, match="NoSuchSystem"):
            multi_seed_runs("ssca2", "NoSuchSystem", 2, (1,), scale=0.05)
