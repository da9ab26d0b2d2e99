"""LLC overflow signatures for the HTMLock mechanism (§III-B, Fig. 5).

Inspired by LogTM-SE, the LLC holds two hash signatures — ``OfRdSig`` and
``OfWrSig`` — recording the lines of the HTMLock-mode transaction's read
and write sets that overflowed out of its L1.  Membership tests are
conservative (Bloom-filter false positives reject harmless requests but
never miss a real conflict), which is safe: a false positive only costs a
retry, a false negative would let an HTM transaction read or steal data
the irrevocable lock transaction depends on.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.common.errors import ConfigError

_M64 = (1 << 64) - 1


class BloomSignature:
    """Fixed-size Bloom filter over cache-line addresses.

    The bit array is a single Python int (cheap set/test via shifts);
    ``k`` index functions come from double hashing of a 64-bit mix.
    """

    __slots__ = ("bits", "hashes", "_field", "inserted", "_salt", "chaos_fp")

    def __init__(self, bits: int = 2048, hashes: int = 4, seed: int = 0) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ConfigError("signature size must be a positive power of two")
        if hashes <= 0:
            raise ConfigError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        #: The seed's share of the hash input (golden-ratio multiple).
        self._salt = (seed * 0x9E3779B97F4A7C15) & _M64
        self.reset()

    def reset(self) -> None:
        """Set the run state: empty, with no fault-injection hook."""
        self.clear()
        #: Fault-injection hook: () -> bool, True forces a spurious
        #: membership hit.  Safe by construction — Bloom signatures are
        #: conservative, so extra false positives only cost retries.
        self.chaos_fp: Optional[Callable[[], bool]] = None

    def _probe(self, line: int) -> Tuple[int, int]:
        """The line's first index (unmasked) and odd index step.

        A splitmix64 finalizer mixes the salted line; its halves drive
        double hashing, index ``i`` being ``(h1 + i * h2) mod bits``.
        """
        x = (line ^ self._salt) & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        x ^= x >> 31
        return x & 0xFFFFFFFF, (x >> 32) | 1  # odd => full period

    def insert(self, line: int) -> None:
        idx, step = self._probe(line)
        mask = self.bits - 1
        field = self._field
        for _ in range(self.hashes):
            field |= 1 << (idx & mask)
            idx += step
        self._field = field
        self.inserted += 1

    def test(self, line: int) -> bool:
        # Stops at the first clear bit: most probes miss a sparse
        # signature, and a full k-bit mask would cost k big-int
        # shifts and ORs to find that out.
        idx, step = self._probe(line)
        mask = self.bits - 1
        field = self._field
        for _ in range(self.hashes):
            if not field >> (idx & mask) & 1:
                return (
                    self.chaos_fp is not None
                    and not self.empty
                    and self.chaos_fp()
                )
            idx += step
        return True

    def clear(self) -> None:
        """Empty the filter; the fault-injection hook stays wired."""
        self._field = 0
        self.inserted = 0

    @property
    def empty(self) -> bool:
        return self._field == 0

    @property
    def popcount(self) -> int:
        return bin(self._field).count("1")

    def false_positive_rate(self) -> float:
        """Current theoretical FP probability given the fill level."""
        fill = self.popcount / self.bits
        return fill**self.hashes
