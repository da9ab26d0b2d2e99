"""Unit and property tests for the LLC overflow signatures (§III-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.signatures import BloomSignature


class TestBasics:
    def test_empty_initially(self):
        sig = BloomSignature(256, 2)
        assert sig.empty
        assert not sig.test(1)

    def test_insert_then_test(self):
        sig = BloomSignature(256, 2)
        sig.insert(7)
        assert sig.test(7)
        assert not sig.empty
        assert sig.inserted == 1

    def test_clear(self):
        sig = BloomSignature(256, 2)
        sig.insert(7)
        sig.clear()
        assert sig.empty
        assert not sig.test(7)
        assert sig.inserted == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            BloomSignature(100, 2)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ConfigError):
            BloomSignature(256, 0)

    def test_seed_changes_mapping(self):
        a = BloomSignature(64, 1, seed=1)
        b = BloomSignature(64, 1, seed=2)
        a.insert(5)
        b.insert(5)
        assert a._field != b._field or True  # mappings may rarely coincide
        # but at least the constructors accept distinct seeds
        assert a.hashes == b.hashes

    def test_popcount_grows(self):
        sig = BloomSignature(2048, 4)
        before = sig.popcount
        sig.insert(10)
        assert sig.popcount > before

    def test_false_positive_rate_monotone(self):
        sig = BloomSignature(256, 4)
        assert sig.false_positive_rate() == 0.0
        for i in range(50):
            sig.insert(i)
        assert 0 < sig.false_positive_rate() <= 1.0


class TestNoFalseNegatives:
    """A Bloom signature must never miss a real member — missing one
    would let an HTM transaction steal the irrevocable lock
    transaction's data (§III-B)."""

    @given(st.sets(st.integers(0, 2**40), max_size=200))
    @settings(max_examples=80)
    def test_every_inserted_line_tests_positive(self, lines):
        sig = BloomSignature(1024, 4, seed=3)
        for ln in lines:
            sig.insert(ln)
        for ln in lines:
            assert sig.test(ln)

    @given(st.sets(st.integers(0, 2**30), min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_clear_then_reinsert(self, lines):
        sig = BloomSignature(512, 2)
        for ln in lines:
            sig.insert(ln)
        sig.clear()
        sig.insert(99)
        assert sig.test(99)


class TestFalsePositiveBehaviour:
    def test_fp_rate_reasonable_at_paper_size(self):
        # Table-defaults: 2048 bits, 4 hashes; a 200-line overflow set
        # (a big labyrinth spill) should stay well under 10% FP.
        sig = BloomSignature(2048, 4)
        members = set(range(0, 200 * 64, 64))
        for ln in members:
            sig.insert(ln)
        probes = [ln for ln in range(1_000_000, 1_002_000) if ln not in members]
        fp = sum(sig.test(ln) for ln in probes) / len(probes)
        assert fp < 0.10

    def test_saturated_signature_rejects_everything(self):
        sig = BloomSignature(64, 1)
        for ln in range(500):
            sig.insert(ln)
        # Fully saturated -> conservative: everything tests positive.
        assert all(sig.test(ln) for ln in range(1000, 1010))


def _per_index_field(bits, hashes, seed, lines):
    """The bit field of the per-index formula: one shift per index
    function of a splitmix64 mix, double hashing over its halves."""
    m64 = (1 << 64) - 1

    def mix64(x):
        x &= m64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m64
        return x ^ (x >> 31)

    field = 0
    for line in lines:
        h = mix64(line ^ (seed * 0x9E3779B97F4A7C15))
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        for i in range(hashes):
            field |= 1 << ((h1 + i * h2) & (bits - 1))
    return field


class TestIndexFormula:
    """The field and membership follow the per-index formula exactly."""

    LINES = (
        list(range(3000))
        + [(i * 0x9E3779B1) % (1 << 58) for i in range(1, 2000)]
        + [(1 << 64) - 1, 1 << 64, (1 << 70) + 12345]
    )

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "bits,hashes", [(2048, 4), (1024, 7), (256, 2), (64, 1)]
    )
    def test_field_matches_per_index_formula(self, bits, hashes, seed):
        sig = BloomSignature(bits, hashes, seed=seed)
        inserted = []
        # A sparse subset, checked as it grows: small fields saturate.
        for chunk in range(0, len(self.LINES), 500):
            for line in self.LINES[chunk:chunk + 25]:
                sig.insert(line)
                inserted.append(line)
            assert sig._field == _per_index_field(bits, hashes, seed, inserted)
        # A member has every one of its index bits set.
        for line in self.LINES:
            want = _per_index_field(bits, hashes, seed, [line])
            assert sig.test(line) == (sig._field & want == want)

    def test_chaos_fp_fires_only_on_a_miss_of_a_nonempty_signature(self):
        calls = []

        def fp():
            calls.append(1)
            return True

        sig = BloomSignature(2048, 4, seed=1)
        sig.chaos_fp = fp
        assert not sig.test(7)  # empty: no spurious hit, hook not asked
        assert calls == []
        sig.insert(7)
        assert sig.test(7)  # a real member: hook not asked
        assert calls == []
        absent = next(
            ln for ln in range(8, 10_000)
            if sig._field & _per_index_field(2048, 4, 1, [ln])
            != _per_index_field(2048, 4, 1, [ln])
        )
        assert sig.test(absent)  # a miss: the hook decides
        assert calls == [1]
        sig.chaos_fp = lambda: False
        assert not sig.test(absent)
