"""The benchmark's own arithmetic: pure functions, no program imports.

Everything here is covered by ``test_metrics.py`` so the statistics the
benchmark gates on can be checked without running a simulation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for the tail report, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def cell_gaps(start: float, stamps: Sequence[float],
              resumes: Optional[Sequence[float]] = None) -> List[float]:
    """Per-cell times from a round's start and its progress timestamps.

    A cell's time is the gap between consecutive progress callbacks; the
    first cell is timed from the round's start.  ``resumes[i]``, when
    given, is when timing resumed after callback ``i`` (work done inside
    the callback is not charged to the next cell).
    """
    out = []
    prev = start
    for i, t in enumerate(stamps):
        out.append(t - prev)
        prev = resumes[i] if resumes is not None else t
    return out


def normalize(times: Sequence[float], slices: Sequence[float],
              ref: float, half_window: int = 2) -> List[float]:
    """Rescale each time to the reference host speed.

    ``slices[i]`` is the calibration slice measured right after
    ``times[i]``; each time is multiplied by ``ref`` over the median of
    the slices within ``half_window`` positions of it.
    """
    if len(times) != len(slices):
        raise ValueError("one calibration slice per time is required")
    out = []
    for i, t in enumerate(times):
        near = slices[max(0, i - half_window):i + half_window + 1]
        out.append(t * ref / statistics.median(near))
    return out


def best_of_rounds_sum(rounds: Sequence[Sequence[float]]) -> float:
    """Sum over cells of each cell's fastest time across the rounds.

    ``rounds[r][c]`` is cell ``c``'s time in round ``r``; every round
    must cover the same cells.
    """
    if not rounds:
        raise ValueError("no complete rounds")
    width = len(rounds[0])
    if any(len(r) != width for r in rounds):
        raise ValueError("rounds cover different cell counts")
    return sum(min(r[c] for r in rounds) for c in range(width))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(p/100 * n)``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked after the nearest-rank ``p`` percentile of ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(
    samples: Sequence[float],
    candidates: Iterable[float] = TAIL_CANDIDATES,
    min_beyond: int = TAIL_MIN_BEYOND,
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``min_beyond`` samples past it.

    Returns ``(p, value, n)`` or None when even the lowest candidate has
    too few samples beyond it.
    """
    n = len(samples)
    best = None
    for p in sorted(candidates):
        if n and beyond(n, p) >= min_beyond:
            best = p
    if best is None:
        return None
    return best, percentile(samples, best), n


def ratio(value: float, base: float) -> float:
    """``value / base``, 0.0 when the base is empty."""
    return value / base if base else 0.0


def commit_ratio(commits: int, attempts: int) -> float:
    """``htm.commit_ratio``: commits per transaction attempt."""
    return ratio(commits, attempts)


def access_per_commit(accesses: int, commits: int) -> float:
    """``mem.access_per_commit``: ``memsys.access`` calls per commit."""
    return ratio(accesses, commits)


def dedup_ratio(from_cache: int, deduped: int, scheduled: int) -> float:
    """``service.dedup_ratio``: in-flight dedups per cell delivered.

    A delivered cell came from the store, joined an in-flight execution,
    or was scheduled; the base is their sum.
    """
    return ratio(deduped, from_cache + deduped + scheduled)


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Per span name, the summed self time in seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans (those naming it as ``parent``) cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"])
            )
    out: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered(
            children.get(s["id"], ()), s["start"], s["end"]
        )
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
