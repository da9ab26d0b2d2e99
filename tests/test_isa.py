"""Unit tests for the micro-op ISA and program representation."""

import pytest

from repro.htm import isa
from repro.htm.isa import (
    OP_COMPUTE,
    OP_FAULT,
    OP_LOAD,
    OP_STORE,
    Plain,
    Txn,
    coalesce_ops,
    compute,
    fault,
    load,
    program_stats,
    store,
)
from repro.sim.fuzz import case_programs
from repro.workloads.registry import get_workload


class TestOpConstructors:
    def test_compute(self):
        assert compute(5) == (OP_COMPUTE, 5, 0)

    def test_compute_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute(0)

    def test_load(self):
        assert load(128) == (OP_LOAD, 128, 0)
        with pytest.raises(ValueError):
            load(-1)

    def test_store(self):
        assert store(128, 7) == (OP_STORE, 128, 7)
        assert store(128) == (OP_STORE, 128, 0)
        with pytest.raises(ValueError):
            store(-4, 1)

    def test_fault(self):
        assert fault() == (OP_FAULT, 0, 0)
        assert fault(persistent=True) == (OP_FAULT, 1, 0)


class TestSegments:
    def test_segment_validates_ops(self):
        with pytest.raises(ValueError):
            Plain([(99, 0, 0)])
        with pytest.raises(ValueError):
            Plain([(OP_LOAD, 1)])  # malformed tuple

    def test_txn_line_sets(self):
        t = Txn([compute(2), load(0), load(64), store(64, 1), store(256, 1)])
        assert t.read_lines() == {0, 1, 4}
        assert t.write_lines() == {1, 4}

    def test_num_ops(self):
        assert Plain([compute(1), load(0)]).num_ops == 2

    def test_txn_tag(self):
        assert Txn([load(0)], tag="x").tag == "x"


class TestProgramStats:
    def test_counts(self):
        prog = [
            Plain([compute(10), load(0)]),
            Txn([load(0), store(64, 1), fault()]),
            Txn([store(128, 2)]),
        ]
        s = program_stats(prog)
        assert s["segments"] == 3
        assert s["txns"] == 2
        assert s["loads"] == 2
        assert s["stores"] == 2
        assert s["faults"] == 1
        assert s["mean_tx_ops"] == pytest.approx(2.0)

    def test_empty_program(self):
        s = program_stats([])
        assert s["txns"] == 0 and s["mean_tx_ops"] == 0.0


def _steps_by_value(programs):
    """value -> {id} of every non-empty ``steps`` tuple in ``programs``."""
    seen = {}
    for program in programs:
        for seg in program:
            for _c, steps, _op, _last in seg._bursts:
                if steps:
                    seen.setdefault(steps, set()).add(id(steps))
    return seen


class TestSharedValues:
    """Programs share their immutable compute ops and step tuples."""

    def test_compute_is_shared_per_cycle_count(self):
        assert compute(2) is compute(2)
        assert compute(123457) is compute(123457)

    def test_compute_keeps_the_operand_type(self):
        # 2, 2.0 and True are equal dict keys: none may take another's op.
        for n in (98765.0, 2.0, True):
            assert type(compute(n)[1]) is type(n)
        for n in (98765, 2, 1):
            op = compute(n)
            assert type(op[1]) is int
            assert op is compute(n)
        assert compute(2.0) is not compute(2)
        assert compute(True) is not compute(1)

    @pytest.mark.parametrize("cycles", [0, -3, 0.0, False])
    def test_compute_still_rejects_nonpositive(self, cycles):
        with pytest.raises(ValueError):
            compute(cycles)

    def test_steps_keep_the_operand_type(self):
        one = coalesce_ops([(OP_COMPUTE, 2.0, 0), load(0)])
        assert type(one[0][1][0][1]) is float
        assert type(coalesce_ops([compute(2), load(0)])[0][1][0][1]) is int
        mixed = ((OP_COMPUTE, 1, 0), (OP_COMPUTE, True, 0), load(0))
        assert type(coalesce_ops(mixed)[0][1][1][1]) is bool
        plain = coalesce_ops([compute(1), compute(1), load(0)])
        assert type(plain[0][1][1][1]) is int

    def test_equal_patterns_share_one_tuple_across_segments(self):
        ops = [compute(3), compute(4), load(0), compute(5), store(64, 1),
               compute(6)]
        a, b = Txn(list(ops)), Plain(list(ops))
        assert a._bursts == b._bursts
        for x, y in zip(a._bursts, b._bursts):
            assert x[1] is y[1]

    def test_equal_patterns_share_one_tuple_across_builds(self):
        workload = get_workload("genome")
        seen = _steps_by_value(
            workload.build(4, 0.05, 42).programs
            + workload.build(8, 0.05, 43).programs
        )
        assert any(len(steps) == 1 for steps in seen)
        assert any(len(steps) > 1 for steps in seen)
        assert all(len(ids) == 1 for ids in seen.values())

    def test_flood_leaves_every_table_at_its_cap(self, monkeypatch):
        for name in ("_COMPUTE_OPS", "_ONE_STEP", "_STEPS"):
            monkeypatch.setattr(isa, name, {})
        over = 50
        for n in range(1, isa.MAX_COMPUTE_OPS + over + 1):
            assert compute(n) == (OP_COMPUTE, n, 0)
        for n in range(1, isa.MAX_STEP_PATTERNS + over + 1):
            ops = [(OP_COMPUTE, n, 0), load(0), (OP_COMPUTE, 1, 0),
                   (OP_COMPUTE, n, 0), load(0)]
            bursts = coalesce_ops(ops)
            assert bursts[0][1] == ((0, n),)
            assert bursts[1][1] == ((0, 1), (1, n))
        assert len(isa._COMPUTE_OPS) == isa.MAX_COMPUTE_OPS
        assert len(isa._ONE_STEP) == isa.MAX_STEP_PATTERNS
        assert len(isa._STEPS) == isa.MAX_STEP_PATTERNS
        # Fuzz programs draw many multi-step patterns; past the cap they
        # still coalesce to the same values, built fresh.
        programs = case_programs(0, 7)
        fresh = [[coalesce_ops(seg.ops) for seg in p] for p in programs]
        assert fresh == [[seg._bursts for seg in p] for p in programs]
        assert len(isa._STEPS) == isa.MAX_STEP_PATTERNS
