"""The simulator's random stream against numpy, draw for draw.

:class:`~repro.common.rng.RandomStream` must reproduce
``numpy.random.default_rng(seed)`` exactly on the five methods the
workloads call, because every pinned build and golden cell was taken on
numpy's stream.  numpy is the oracle here only; the simulator never
imports it (``test_cell_runs_without_numpy``).
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.rng import RandomStream, substream

np = pytest.importorskip("numpy")

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Range widths on both sides of the 32-bit (buffered half-word) and
#: 64-bit (Lemire over full draws) paths; 2**31 + 1 and 2**62 + 1 reject
#: about half and a quarter of their first draws.
WIDTHS = (1, 2, 3, 40, 1000, 1 << 31, (1 << 31) + 1, (1 << 32) - 1,
          1 << 32, (1 << 32) + 1, 1 << 40, (1 << 62) + 1, (1 << 63) - 1,
          1 << 63)

#: (population, size) on both sides of numpy's tail-shuffle switch
#: (``pop > 10000 and size > pop // 50``) and at its edges.
CHOICES = ((1, 0), (1, 1), (5, 5), (100, 12), (8192, 6), (8192, 200),
           (10000, 201), (10001, 200), (10001, 201), (20000, 400),
           (20000, 401), (20000, 20000))


def draw(rng, op, pyr):
    """One randomly chosen call on ``rng``; the args come from ``pyr``."""
    if op == 0:
        low = pyr.randrange(-50, 1)
        return rng.integers(low, low + pyr.choice(WIDTHS))
    if op == 1:
        return rng.random()
    if op == 2:
        return rng.uniform(-1.5, pyr.choice((0.5, 7.0, 1e6)))
    if op == 3:
        return list(rng.permutation(pyr.choice((0, 1, 2, 3, 9, 20, 65))))
    if op == 4:
        pop, size = pyr.choice(CHOICES)
        return list(rng.choice(pop, size=size, replace=False))
    return list(rng.choice(pyr.choice((1, 7, 300)), size=3))


def mixed_sequence(rng, seed, n=40):
    pyr = random.Random(seed)
    return [
        [int(x) for x in out] if isinstance(out, list)
        else out if isinstance(out, float) else int(out)
        for out in (draw(rng, pyr.randrange(6), pyr) for _ in range(n))
    ]


@pytest.mark.parametrize("block", range(4))
def test_mixed_draws_match_numpy(block):
    """50 seeds per block: mixed sequences of all five methods."""
    for k in range(50):
        i = block * 50 + k
        seed = (i * 0x9E3779B97F4A7C15) & ((1 << 63) - 1) if i % 3 else i
        ours = mixed_sequence(RandomStream(seed), i)
        want = mixed_sequence(np.random.default_rng(seed), i)
        assert ours == want, f"seed {seed} (sequence {i})"


def test_seeds_of_every_width_match_numpy():
    """SeedSequence mixing for 0 and for one- to four-word seeds."""
    for seed in (0, 1, 42, (1 << 32) - 1, 1 << 32, (1 << 63) - 1,
                 1 << 64, (1 << 100) + 12345, (1 << 128) - 1):
        ours = RandomStream(seed)
        want = np.random.default_rng(seed)
        assert [ours.integers(0, 1 << 62) for _ in range(4)] == [
            int(want.integers(0, 1 << 62)) for _ in range(4)
        ], seed


def test_half_word_persists_across_methods():
    """A 32-bit draw leaves its upper half for the next 32-bit draw,
    across ``random()`` (which takes whole 64-bit words) in between."""
    ours, want = RandomStream(7), np.random.default_rng(7)
    for call in ("integers", "random", "integers", "integers", "random",
                 "integers", "permutation", "random", "integers"):
        if call == "integers":
            assert ours.integers(0, 10) == want.integers(0, 10)
        elif call == "random":
            assert ours.random() == want.random()
        else:
            assert ours.permutation(5) == want.permutation(5).tolist()


def test_full_int64_range():
    ours, want = RandomStream(9), np.random.default_rng(9)
    for _ in range(20):
        assert ours.integers(-(1 << 63), 1 << 63) == want.integers(
            -(1 << 63), 1 << 63
        )


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_permutations(n):
    ours, want = RandomStream(3), np.random.default_rng(3)
    assert ours.permutation(n) == want.permutation(n).tolist()
    # Nothing drawn for n < 2: the streams stay in step.
    assert ours.random() == want.random()


@pytest.mark.parametrize("pop,size", CHOICES)
def test_choice_without_replacement(pop, size):
    ours, want = RandomStream(11), np.random.default_rng(11)
    got = ours.choice(pop, size=size, replace=False)
    assert got == want.choice(pop, size=size, replace=False).tolist()
    assert len(set(got)) == size
    assert ours.integers(0, 1 << 40) == want.integers(0, 1 << 40)


def test_substream_returns_the_stream():
    assert isinstance(substream(7, "x"), RandomStream)


def test_empty_ranges_raise():
    with pytest.raises(ValueError):
        RandomStream(1).integers(5, 5)
    with pytest.raises(ValueError):
        RandomStream(1).choice(3, size=4, replace=False)


#: Runs the golden cell (``tests/test_golden_determinism.py``) through
#: the library and then through the CLI in one process, and fails if
#: anything imported numpy.
CELL_WITHOUT_NUMPY = """
import runpy, sys
from repro import RunConfig, get_system, run_workload
from repro.workloads.registry import get_workload
stats = run_workload(get_workload("intruder"), RunConfig(
    spec=get_system("LockillerTM"), threads=4, scale=0.05, seed=3))
assert stats.execution_cycles == 9755, stats.execution_cycles
sys.argv = ["repro", "run", "--workload", "intruder", "--system",
            "LockillerTM", "--threads", "4", "--scale", "0.05", "--seed", "3"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_cell_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", CELL_WITHOUT_NUMPY],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # The CLI printed the golden cell's cycle count.
    assert "execution cycles    9755" in proc.stdout, proc.stdout
