"""Deterministic random-number plumbing.

Every stochastic decision in the simulator (workload generation, backoff
jitter, fault injection) draws from a stream derived from a single run
seed, so a run is exactly reproducible from ``(system, workload, seed)``.
Sub-streams are split with stable string tags to keep component draws
independent of call order elsewhere.

:class:`RandomStream` is a pure-Python PCG64 generator that reproduces
``numpy.random.default_rng(seed)`` draw for draw on the five methods the
workloads call (``tests/test_rng.py`` checks it against numpy).  Owning
the stream keeps numpy out of the simulator process and keeps every
pinned build independent of numpy's release-to-release stream policy.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Optional

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def derive_seed(root_seed: int, *tags: object) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and tags."""
    text = "|".join(str(t) for t in tags)
    mixed = zlib.crc32(text.encode("utf-8"))
    return ((root_seed * 0x9E3779B97F4A7C15) ^ (mixed * 0xBF58476D1CE4E5B9)) & (
        (1 << 63) - 1
    )


def substream(root_seed: int, *tags: object) -> "RandomStream":
    """Return an independent random stream for the tagged sub-stream."""
    return RandomStream(derive_seed(root_seed, *tags))


def _seed_words(seed: int) -> List[int]:
    """numpy ``SeedSequence(seed).generate_state(8, uint32)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        words.append(value ^ (value >> 16))
    return words


class RandomStream:
    """numpy-compatible PCG64 stream (``numpy.random.default_rng(seed)``).

    Implements the five ``numpy.random.Generator`` methods the simulator
    calls, with numpy's algorithms: PCG64's XSL-RR output, its buffered
    32-bit half-word (kept across calls, as the bit generator keeps it),
    Lemire bounded integers, Fisher-Yates permutations and Floyd or
    tail-shuffle sampling without replacement.  Draws return Python
    ``int``/``float``; sequences return lists.

    The hot draws inline the PCG step rather than call :meth:`_next64`,
    and the loops keep the state in locals: workload builds, which run
    inside every cold grid round, spend most of their time drawing.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w = _seed_words(seed)
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (
            (self._inc + initstate) * _PCG_MULT + self._inc
        ) & _M128
        #: The unused upper half of the last 64-bit draw, or ``None``.
        self._half: Optional[int] = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        v = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((v >> r) | (v << (64 - r))) & _M64

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        excl = high - low
        if excl <= 0x100000000:
            if excl <= 1:
                if excl == 1:
                    return low
                raise ValueError("low >= high")
            # Lemire over the buffered 32-bit draw, inlined.
            half = self._half
            if half is None:
                s = self._state = (
                    self._state * _PCG_MULT + self._inc
                ) & _M128
                v = ((s >> 64) ^ s) & _M64
                r = s >> 122
                x = ((v >> r) | (v << (64 - r))) & _M64
                self._half = x >> 32
                half = x & _M32
            else:
                self._half = None
            m = half * excl
            if (m & _M32) < excl and (m & _M32) < 0x100000000 % excl:
                # Rejected (rarely): rejection sampling is memoryless,
                # so the rest is one fresh bounded draw.
                return low + self._lemire((excl - 1,))[0]
            return low + (m >> 32)
        m = self._next64() * excl
        if (m & _M64) < excl:
            threshold = (1 << 64) % excl
            while (m & _M64) < threshold:
                m = self._next64() * excl
        return low + (m >> 64)

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 random bits."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        v = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((((v >> r) | (v << (64 - r))) & _M64) >> 11) * _TWO_M53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return low + (high - low) * self.random()

    def permutation(self, n: int) -> List[int]:
        """A random ordering of ``range(n)``."""
        if n > 0x100000000:
            raise ValueError("permutation supports n <= 2**32")
        out = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        for i in range(n - 1, 0, -1):
            # numpy's random_interval: masked rejection over the
            # buffered 32-bit draw.
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    v = ((state >> 64) ^ state) & _M64
                    r = state >> 122
                    x = ((v >> r) | (v << (64 - r))) & _M64
                    half = x >> 32
                    j = x & mask
                else:
                    j = half & mask
                    half = None
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._state, self._half = state, half
        return out

    def choice(self, a: int, size: int, replace: bool = True) -> List[int]:
        """``size`` draws from ``range(a)``; distinct if not ``replace``."""
        if not 0 < a <= 0x100000000 and size:
            raise ValueError("choice supports 0 < a <= 2**32")
        if replace:
            return self._lemire([a - 1] * size)
        if not 0 <= size <= a:
            raise ValueError(
                "Cannot take a larger sample than population when "
                "replace is False"
            )
        if a > 10000 and size > a // 50:
            # Tail shuffle: the last ``size`` slots of a partial shuffle.
            out = list(range(a))
            swaps = range(a - 1, max(a - size, 1) - 1, -1)
            draws = self._lemire(swaps)
        else:
            # Floyd's algorithm, then a full shuffle of the sample.  No
            # bound depends on a draw, so one pass draws for both.
            floyd = range(a - size, a)
            swaps = range(size - 1, 0, -1)
            draws = self._lemire([*floyd, *swaps])
            seen = set()
            out = []
            for j, val in zip(floyd, draws):
                if val in seen:
                    val = j
                seen.add(val)
                out.append(val)
            draws = draws[size:]
        for i, j in zip(swaps, draws):
            out[i], out[j] = out[j], out[i]
        return out[len(out) - size:]

    def _lemire(self, bounds: Iterable[int]) -> List[int]:
        """One Lemire draw in ``[0, b]`` per ``b < 2**32``, in order.

        numpy's ``random_bounded_uint64`` over 32-bit ranges: a bound of
        0 returns 0 without drawing.
        """
        state, inc, half = self._state, self._inc, self._half
        out = []
        append = out.append
        for b in bounds:
            if not b:
                append(0)
                continue
            excl = b + 1
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    v = ((state >> 64) ^ state) & _M64
                    r = state >> 122
                    x = ((v >> r) | (v << (64 - r))) & _M64
                    half = x >> 32
                    m = (x & _M32) * excl
                else:
                    m = half * excl
                    half = None
                # Reject below 2**32 % excl (< excl, so rarely computed).
                if (m & _M32) >= excl or (m & _M32) >= 0x100000000 % excl:
                    break
            append(m >> 32)
        self._state, self._half = state, half
        return out


class SplitMix64:
    """Tiny allocation-free PRNG for hot simulator paths (backoff jitter).

    Keeps a single int of state and costs one short method call per
    draw, so it inlines well in interpreted loops.
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
