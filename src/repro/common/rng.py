"""Deterministic random-number plumbing.

Every stochastic decision in the simulator (workload generation, backoff
jitter, fault injection) draws from a stream derived from a single run
seed, so a run is exactly reproducible from ``(system, workload, seed)``.
Sub-streams are split with stable string tags to keep component draws
independent of call order elsewhere.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(root_seed: int, *tags: object) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and tags."""
    text = "|".join(str(t) for t in tags)
    mixed = zlib.crc32(text.encode("utf-8"))
    return ((root_seed * 0x9E3779B97F4A7C15) ^ (mixed * 0xBF58476D1CE4E5B9)) & (
        (1 << 63) - 1
    )


def substream(root_seed: int, *tags: object) -> np.random.Generator:
    """Return an independent numpy Generator for the tagged sub-stream."""
    return np.random.default_rng(derive_seed(root_seed, *tags))


class SplitMix64:
    """Tiny allocation-free PRNG for hot simulator paths (backoff jitter).

    numpy Generators cost a Python-call round trip per draw; this keeps a
    single int of state and inlines well in interpreted loops.
    """

    __slots__ = ("_state",)

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` (bound >= 1)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def chance(self, prob: float) -> bool:
        """Bernoulli draw with probability ``prob``."""
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self.next_u64() < prob * (1 << 64)
