"""Execution statistics: time-breakdown categories and abort reasons.

The categories follow the paper exactly:

* Figs. 9/11 execution-time breakdown: ``htm``, ``aborted``, ``lock``,
  ``switchLock``, ``waitlock``, ``rollback``, ``non_tran``.
* Fig. 10 abort reasons: ``mc`` (conflict with an HTM transaction),
  ``lock`` (conflict with a TL/STL lock transaction), ``mutex``
  (fallback-lock induced), ``non_tran`` (conflict with a plain access),
  ``of`` (capacity overflow), ``fault`` (exception).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Tuple


class LatencyHistogram:
    """Streaming log2-bucketed latency histogram.

    O(1) memory regardless of sample count; bucket ``b`` counts samples
    with ``bit_length == b`` i.e. values in ``[2^(b-1), 2^b)``.  Quantile
    queries return the (conservative, upper) bucket boundary — exact
    enough for the "how long do transactions take to commit" question.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        b = value.bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += value

    def merge(self, other: "LatencyHistogram") -> None:
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n
        self.count += other.count
        self.total += other.total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_upper_bound(self, q: float) -> int:
        """Upper bucket boundary containing quantile ``q`` (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0
        target = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= target:
                return (1 << b) - 1 if b else 0
        return (1 << max(self.buckets)) - 1  # pragma: no cover

    def as_dict(self) -> Dict[str, object]:
        return {
            "buckets": dict(self.buckets),
            "count": self.count,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencyHistogram":
        h = cls()
        h.buckets = {int(k): v for k, v in data["buckets"].items()}
        h.count = data["count"]
        h.total = data["total"]
        return h


class TimeCat(str, Enum):
    """Execution-time breakdown categories (Figs. 9 and 11)."""

    HTM = "htm"
    ABORTED = "aborted"
    LOCK = "lock"
    SWITCH_LOCK = "switchLock"
    WAITLOCK = "waitlock"
    ROLLBACK = "rollback"
    NON_TRAN = "non_tran"


class AbortReason(str, Enum):
    """Transaction abort attribution (Fig. 10)."""

    CONFLICT_HTM = "mc"
    CONFLICT_LOCK = "lock"
    MUTEX = "mutex"
    CONFLICT_NON_TRAN = "non_tran"
    OVERFLOW = "of"
    FAULT = "fault"
    #: Explicit user abort (xabort outside the taxonomy; kept for debug).
    EXPLICIT = "explicit"


TIME_CATS: List[TimeCat] = list(TimeCat)
ABORT_REASONS: List[AbortReason] = list(AbortReason)


@dataclass
class CoreStats:
    """Per-core counters accumulated during one simulation run."""

    time: Dict[TimeCat, int] = field(
        default_factory=lambda: dict.fromkeys(TIME_CATS, 0)
    )
    aborts: Dict[AbortReason, int] = field(
        default_factory=lambda: dict.fromkeys(ABORT_REASONS, 0)
    )
    commits_htm: int = 0
    commits_lock: int = 0
    commits_switched: int = 0
    tx_attempts: int = 0
    fallback_entries: int = 0
    switch_attempts: int = 0
    switch_successes: int = 0
    rejects_received: int = 0
    rejects_issued: int = 0
    wakeups_sent: int = 0
    wakeup_timeouts: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    #: Hits in the private middle cache (MESI-Three-Level mode only).
    l2_hits: int = 0
    #: Wall-clock latency of committed critical sections (entry of the
    #: final successful attempt to commit completion).
    commit_latency_hist: LatencyHistogram = field(
        default_factory=LatencyHistogram
    )

    def add_time(self, cat: TimeCat, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"negative time slice for {cat}: {cycles}")
        self.time[cat] += cycles

    @property
    def commits(self) -> int:
        return self.commits_htm + self.commits_lock + self.commits_switched

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    @property
    def commit_rate(self) -> float:
        """Committed attempts / all attempts (speculative and lock)."""
        if self.tx_attempts == 0:
            return 1.0
        return self.commits / self.tx_attempts

    def publish_telemetry(self, scope) -> None:
        """Publish this core's counters into a registry scope.

        ``scope`` is a :class:`repro.telemetry.registry.Scope` (duck-
        typed here to keep ``common`` free of telemetry imports).
        """
        for name in (
            "commits_htm",
            "commits_lock",
            "commits_switched",
            "tx_attempts",
            "fallback_entries",
            "switch_attempts",
            "switch_successes",
            "rejects_received",
            "rejects_issued",
            "wakeups_sent",
            "wakeup_timeouts",
            "loads",
            "stores",
            "l1_hits",
            "l1_misses",
            "l2_hits",
        ):
            scope.set(name, getattr(self, name))
        scope.set("commit_rate", self.commit_rate)
        for cat, cycles in self.time.items():
            scope.set(f"time.{cat.value}", cycles)
        for reason, count in self.aborts.items():
            scope.set(f"aborts.{reason.value}", count)
        scope.histogram("commit_latency").merge(self.commit_latency_hist)


@dataclass
class RunStats:
    """Whole-machine result of one run."""

    execution_cycles: int
    cores: List[CoreStats]
    sanity_failures: List[str] = field(default_factory=list)

    def time_breakdown(self) -> Dict[TimeCat, int]:
        out = {c: 0 for c in TimeCat}
        for cs in self.cores:
            for c, v in cs.time.items():
                out[c] += v
        return out

    def time_fractions(self) -> Dict[TimeCat, float]:
        bd = self.time_breakdown()
        total = sum(bd.values())
        if total == 0:
            return {c: 0.0 for c in TimeCat}
        return {c: v / total for c, v in bd.items()}

    def abort_breakdown(self) -> Dict[AbortReason, int]:
        out = {r: 0 for r in AbortReason}
        for cs in self.cores:
            for r, v in cs.aborts.items():
                out[r] += v
        return out

    def abort_fractions(self) -> Dict[AbortReason, float]:
        bd = self.abort_breakdown()
        total = sum(bd.values())
        if total == 0:
            return {r: 0.0 for r in AbortReason}
        return {r: v / total for r, v in bd.items()}

    @property
    def commits(self) -> int:
        return sum(cs.commits for cs in self.cores)

    @property
    def tx_attempts(self) -> int:
        return sum(cs.tx_attempts for cs in self.cores)

    @property
    def total_aborts(self) -> int:
        return sum(cs.total_aborts for cs in self.cores)

    @property
    def commit_rate(self) -> float:
        attempts = self.tx_attempts
        if attempts == 0:
            return 1.0
        return self.commits / attempts

    def merged(self) -> CoreStats:
        """Sum of all per-core stats (convenience for reporting)."""
        out = CoreStats()
        for cs in self.cores:
            for c in TimeCat:
                out.time[c] += cs.time[c]
            for r in AbortReason:
                out.aborts[r] += cs.aborts[r]
            out.commits_htm += cs.commits_htm
            out.commits_lock += cs.commits_lock
            out.commits_switched += cs.commits_switched
            out.tx_attempts += cs.tx_attempts
            out.fallback_entries += cs.fallback_entries
            out.switch_attempts += cs.switch_attempts
            out.switch_successes += cs.switch_successes
            out.rejects_received += cs.rejects_received
            out.rejects_issued += cs.rejects_issued
            out.wakeups_sent += cs.wakeups_sent
            out.wakeup_timeouts += cs.wakeup_timeouts
            out.loads += cs.loads
            out.stores += cs.stores
            out.l1_hits += cs.l1_hits
            out.l1_misses += cs.l1_misses
            out.l2_hits += cs.l2_hits
            out.commit_latency_hist.merge(cs.commit_latency_hist)
        return out


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's 'average speedup' aggregator."""
    vals = [v for v in values]
    if not vals:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    log_sum = 0.0
    import math

    for v in vals:
        log_sum += math.log(v)
    return math.exp(log_sum / len(vals))


def speedup(baseline_cycles: int, system_cycles: int) -> float:
    """Speedup of ``system`` relative to ``baseline`` (>1 means faster)."""
    if system_cycles <= 0:
        raise ValueError("system cycles must be positive")
    return baseline_cycles / system_cycles


def weighted_average(pairs: Iterable[Tuple[float, float]]) -> float:
    """Weighted mean of ``(value, weight)`` pairs.

    Used by the reporting layer to aggregate per-workload rates where
    equal weighting would misrepresent the population — e.g. a commit
    rate averaged across workloads weighted by each workload's
    transaction attempts.  Weights must be non-negative with a positive
    total.
    """
    total_w = 0.0
    acc = 0.0
    n = 0
    for value, weight in pairs:
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        acc += value * weight
        total_w += weight
        n += 1
    if n == 0:
        raise ValueError("weighted average of empty sequence")
    if total_w == 0:
        raise ValueError("weighted average with zero total weight")
    return acc / total_w
