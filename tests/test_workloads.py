"""Tests for the STAMP-like workload generators."""

import hashlib

import pytest

from repro.htm.isa import OP_FAULT, OP_LOAD, OP_STORE, Plain, Txn, program_stats
from repro.workloads.base import (
    PRIVATE_BASE,
    SHARED_BASE,
    expected_final_memory,
    private_line_addr,
    shared_line_addr,
)
from repro.workloads.registry import (
    HIGH_CONTENTION,
    PAPER_ORDER,
    WORKLOADS,
    get_workload,
    workload_names,
)


class TestRegistry:
    def test_paper_selection_present(self):
        assert set(PAPER_ORDER) <= set(WORKLOADS)
        # bayes is implemented but excluded from the paper sweep (§IV-A).
        assert "bayes" in WORKLOADS
        assert "bayes" not in PAPER_ORDER

    def test_both_contention_variants(self):
        assert {"kmeans+", "kmeans-", "vacation+", "vacation-"} <= set(WORKLOADS)

    def test_get_workload_unknown(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            get_workload("quake")

    def test_high_contention_subset(self):
        assert set(HIGH_CONTENTION) <= set(WORKLOADS)

    def test_names_ordered(self):
        assert workload_names() == PAPER_ORDER


class TestAddressing:
    def test_shared_lines_disjoint_from_private(self):
        assert shared_line_addr(10**5) < PRIVATE_BASE
        assert private_line_addr(0, 0) >= PRIVATE_BASE

    def test_private_regions_disjoint_across_threads(self):
        hi0 = private_line_addr(0, 10**4)
        lo1 = private_line_addr(1, 0)
        assert hi0 < lo1

    def test_line_granularity(self):
        assert shared_line_addr(1) - shared_line_addr(0) == 64


class TestExpectedMemory:
    def test_sums_additive_stores(self):
        progs = [
            [Txn([(OP_STORE, 100, 2), (OP_STORE, 200, 3)])],
            [Plain([(OP_STORE, 100, 5)])],
        ]
        exp = expected_final_memory(progs)
        assert exp == {100: 7, 200: 3}

    def test_zero_deltas_dropped(self):
        progs = [[Txn([(OP_STORE, 100, 1), (OP_STORE, 100, -1)])]]
        assert expected_final_memory(progs) == {}


@pytest.mark.parametrize("name", PAPER_ORDER)
class TestEachWorkload:
    def test_build_shape(self, name):
        wl = get_workload(name)
        build = wl.build(threads=3, scale=0.1, seed=1)
        assert len(build.programs) == 3
        assert build.name == name
        for prog in build.programs:
            s = program_stats(prog)
            assert s["txns"] >= 1
            assert s["stores"] >= 1

    def test_deterministic(self, name):
        wl = get_workload(name)
        a = wl.build(threads=2, scale=0.1, seed=9)
        b = wl.build(threads=2, scale=0.1, seed=9)
        for pa, pb in zip(a.programs, b.programs):
            assert [s.ops for s in pa] == [s.ops for s in pb]
        assert a.expected == b.expected

    def test_seed_changes_programs(self, name):
        wl = get_workload(name)
        a = wl.build(threads=2, scale=0.1, seed=1)
        b = wl.build(threads=2, scale=0.1, seed=2)
        assert any(
            [s.ops for s in pa] != [s.ops for s in pb]
            for pa, pb in zip(a.programs, b.programs)
        )

    def test_scale_controls_size(self, name):
        wl = get_workload(name)
        small = wl.build(threads=1, scale=0.1, seed=1)
        big = wl.build(threads=1, scale=0.5, seed=1)
        n_small = program_stats(small.programs[0])["txns"]
        n_big = program_stats(big.programs[0])["txns"]
        assert n_big > n_small

    def test_expected_memory_consistent(self, name):
        wl = get_workload(name)
        build = wl.build(threads=2, scale=0.1, seed=3)
        assert build.expected == expected_final_memory(build.programs)

    def test_rejects_bad_args(self, name):
        wl = get_workload(name)
        with pytest.raises(ValueError):
            wl.build(threads=0)
        with pytest.raises(ValueError):
            wl.build(threads=1, scale=0)

    def test_verify_detects_mismatch(self, name):
        wl = get_workload(name)
        build = wl.build(threads=1, scale=0.1, seed=1)
        wrong = dict(build.expected)
        some_addr = next(iter(wrong))
        wrong[some_addr] += 1
        assert build.verify(wrong)
        assert build.verify(dict(build.expected)) == []


class TestWorkloadProfiles:
    """Structural properties the paper's per-workload behaviour relies on."""

    def _mean_tx_ops(self, name):
        build = get_workload(name).build(threads=2, scale=0.3, seed=4)
        return program_stats(build.programs[0])["mean_tx_ops"]

    def test_labyrinth_txs_are_huge(self):
        assert self._mean_tx_ops("labyrinth") > 200

    def test_ssca2_txs_are_tiny(self):
        assert self._mean_tx_ops("ssca2") < 15

    def test_labyrinth_overflows_typical_l1(self):
        build = get_workload("labyrinth").build(threads=1, scale=0.2, seed=4)
        txns = [s for s in build.programs[0] if isinstance(s, Txn)]
        # Footprint far beyond 128 sets * 4 ways worst-case per-set load.
        footprints = [len(t.read_lines() | t.write_lines()) for t in txns]
        assert min(footprints) > 250

    def test_yada_has_many_faults(self):
        build = get_workload("yada").build(threads=4, scale=1.0, seed=4)
        txns = [s for p in build.programs for s in p if isinstance(s, Txn)]
        faulting = sum(
            any(op[0] == OP_FAULT for op in t.ops) for t in txns
        )
        assert faulting / len(txns) > 0.8

    def test_other_workloads_fault_free(self):
        for name in ("genome", "intruder", "kmeans+", "ssca2", "vacation-"):
            build = get_workload(name).build(threads=2, scale=0.2, seed=4)
            ops = [op for p in build.programs for s in p for op in s.ops]
            assert not any(op[0] == OP_FAULT for op in ops), name

    def test_intruder_has_hot_queue_line(self):
        build = get_workload("intruder").build(threads=4, scale=0.3, seed=4)
        head = shared_line_addr(0)
        writers = 0
        for prog in build.programs:
            for seg in prog:
                if isinstance(seg, Txn) and any(
                    op[0] == OP_STORE and op[1] == head for op in seg.ops
                ):
                    writers += 1
        # Every iteration pops the queue: one pop txn per iteration.
        assert writers >= 4 * 20

    def test_kmeans_contention_ordering(self):
        """kmeans+ concentrates updates on fewer centers than kmeans-."""
        from repro.workloads.kmeans import KMeansHighWorkload, KMeansLowWorkload

        assert KMeansHighWorkload.clusters < KMeansLowWorkload.clusters

    def test_vacation_contention_ordering(self):
        from repro.workloads.vacation import (
            VacationHighWorkload,
            VacationLowWorkload,
        )

        assert VacationHighWorkload.table_lines < VacationLowWorkload.table_lines
        assert VacationHighWorkload.n_writes > VacationLowWorkload.n_writes

    def test_metadata_summaries(self):
        for name, wl in WORKLOADS.items():
            assert wl.metadata()["name"] == name
            assert wl.summary


#: (workload, threads, scale) -> :func:`build_digest` at seed 42: every
#: workload at scale 0.05 on 1, 4 and 16 threads, and at the two grid
#: scales (0.25, 0.1) on 8 and 16 threads.
BUILD_DIGESTS = {
    ("genome", 1, 0.05): "46926e0f9d55f4c3",
    ("genome", 4, 0.05): "d18275a707cc7069",
    ("genome", 16, 0.05): "9fbe8d9ba3fa186c",
    ("intruder", 1, 0.05): "34e2b3d230d3460e",
    ("intruder", 4, 0.05): "5d5accaa9db6d3b6",
    ("intruder", 16, 0.05): "3d7bdef9cf999b07",
    ("kmeans+", 1, 0.05): "c5ebaee174ff4110",
    ("kmeans+", 4, 0.05): "1b8f25b07ef456f0",
    ("kmeans+", 16, 0.05): "9de23bd1a6443d94",
    ("kmeans-", 1, 0.05): "69310ce3a6198959",
    ("kmeans-", 4, 0.05): "341171099847c4cc",
    ("kmeans-", 16, 0.05): "9840d67b1f7375b0",
    ("labyrinth", 1, 0.05): "3f362dee012290de",
    ("labyrinth", 4, 0.05): "11b84e3aef5e0145",
    ("labyrinth", 16, 0.05): "1dd5654c7c4d5211",
    ("ssca2", 1, 0.05): "b88dad1bab5f5a67",
    ("ssca2", 4, 0.05): "12ff8570e580aa44",
    ("ssca2", 16, 0.05): "3668d6f89a33614e",
    ("vacation+", 1, 0.05): "ffdd062a982e97f5",
    ("vacation+", 4, 0.05): "e952e7c53196b3d0",
    ("vacation+", 16, 0.05): "451f81f1388ccd11",
    ("vacation-", 1, 0.05): "07e6f4f2d81108dd",
    ("vacation-", 4, 0.05): "ed9ba5852e4b30a6",
    ("vacation-", 16, 0.05): "470c4f210fc95de9",
    ("yada", 1, 0.05): "ac1a5ca2fbb38441",
    ("yada", 4, 0.05): "3ee2543f54c3ebc9",
    ("yada", 16, 0.05): "64bcba36458d0ade",
    ("genome", 8, 0.25): "9d9c95ce133faa9a",
    ("genome", 16, 0.25): "743accbd7fd64cb5",
    ("intruder", 8, 0.25): "d07fc076e3945b89",
    ("intruder", 16, 0.25): "e7a460c1a1e9463a",
    ("kmeans+", 8, 0.25): "5594f6a86cd42ce9",
    ("kmeans+", 16, 0.25): "2fc64a31e3873f23",
    ("kmeans-", 8, 0.25): "d665a1987dcdef33",
    ("kmeans-", 16, 0.25): "c9988f0091ffc87f",
    ("labyrinth", 8, 0.25): "a81263c40b038b60",
    ("labyrinth", 16, 0.25): "5bedc37ffb6a8e54",
    ("ssca2", 8, 0.25): "48ca960aadf7f047",
    ("ssca2", 16, 0.25): "0292bb7c43208773",
    ("vacation+", 8, 0.25): "13f0ce0d77f1a0f7",
    ("vacation+", 16, 0.25): "9ed4bcff4cc35f1c",
    ("vacation-", 8, 0.25): "dc8c81b5c650e6c7",
    ("vacation-", 16, 0.25): "874d477f03ee95ce",
    ("yada", 8, 0.25): "f19c7c77c5a5a84b",
    ("yada", 16, 0.25): "6c016bf8b010a9d9",
    ("genome", 8, 0.1): "989d7855ec2b20a1",
    ("genome", 16, 0.1): "09630ce20862bcd8",
    ("intruder", 8, 0.1): "5d1f0a58ca7f2e24",
    ("intruder", 16, 0.1): "1d2b4e4c77256ef1",
    ("kmeans+", 8, 0.1): "5f6c63bc66d9f954",
    ("kmeans+", 16, 0.1): "9c88951e314cb58a",
    ("kmeans-", 8, 0.1): "b8cf56a0d3094d89",
    ("kmeans-", 16, 0.1): "0fa02f6bc0b0cdb7",
    ("labyrinth", 8, 0.1): "d1c367e388da532d",
    ("labyrinth", 16, 0.1): "0152e6264ac83d37",
    ("ssca2", 8, 0.1): "9032e3b2cd9f898f",
    ("ssca2", 16, 0.1): "9f806ce9716f22a3",
    ("vacation+", 8, 0.1): "2e5df4cd1dda72d5",
    ("vacation+", 16, 0.1): "e129a3ce186d969a",
    ("vacation-", 8, 0.1): "1343694f0d1a160f",
    ("vacation-", 16, 0.1): "6a3a8ee1b118527c",
    ("yada", 8, 0.1): "9d06e6507b4c2bc1",
    ("yada", 16, 0.1): "4c0a445ac44d22d0",
}

#: (threads, scale, seed) -> :func:`build_digest` of ``bayes``, which is
#: outside ``PAPER_ORDER`` and the only build that draws ``uniform`` and
#: rounds ``math.exp`` of it.
BAYES_DIGESTS = {
    (2, 0.25, 42): "4244b7e360988091",
    (2, 0.25, 7): "8b1a76ce5285b859",
    (2, 1.0, 42): "4419e1f57a1f0bf0",
    (2, 1.0, 7): "c884c4d8073ab426",
    (8, 0.25, 42): "a09726631b1d50f2",
    (8, 0.25, 7): "fd9f76741a9d27e3",
    (8, 1.0, 42): "100e266025b68fca",
    (8, 1.0, 7): "203cae9c3663b53d",
}


def build_digest(build) -> str:
    """Value digest of a build's programs and expected memory image.

    Hashes the ``repr`` of each segment's kind, tag, ops and bursts, then
    of the sorted expectation.  ``repr`` sees values only (``2``,
    ``2.0`` and ``True`` differ); pickle would also see which equal
    objects a build shares, which is no part of its content.
    """
    h = hashlib.sha256()
    for program in build.programs:
        for seg in program:
            h.update(repr((type(seg).__name__, getattr(seg, "tag", None),
                           seg.ops, seg._bursts)).encode())
    h.update(repr(sorted(build.expected.items())).encode())
    return h.hexdigest()[:16]


class TestBuildDigest:
    def test_digests_cover_every_workload(self):
        assert {w for w, _t, _s in BUILD_DIGESTS} == set(PAPER_ORDER)
        assert len(BUILD_DIGESTS) == len(PAPER_ORDER) * (3 + 2 * 2)

    def test_builds_match_pinned_digests(self):
        got = {
            cell: build_digest(get_workload(cell[0]).build(cell[1], cell[2], 42))
            for cell in BUILD_DIGESTS
        }
        moved = sorted(c for c in got if got[c] != BUILD_DIGESTS[c])
        assert not moved, f"build content moved: {moved}"

    def test_bayes_builds_match_pinned_digests(self):
        bayes = get_workload("bayes")
        got = {
            cell: build_digest(bayes.build(*cell)) for cell in BAYES_DIGESTS
        }
        moved = sorted(c for c in got if got[c] != BAYES_DIGESTS[c])
        assert not moved, f"bayes build content moved: {moved}"
