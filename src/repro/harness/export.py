"""Serialization of run results for regression tracking.

``RunStats`` → plain JSON-able dicts and back, plus a stable run
fingerprint.  Intended use: persist a sweep's results once, then diff
future runs against it (`compare_runs`) to catch unintended simulator
behaviour changes — the numbers are deterministic per
``(system, workload, threads, scale, seed, params)``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

from repro.common.stats import (
    ABORT_REASONS,
    TIME_CATS,
    CoreStats,
    LatencyHistogram,
    RunStats,
)

SCHEMA_VERSION = 1

#: Member <-> wire-value tables.  A dict lookup is several times cheaper
#: than ``member.value`` or calling the enum class, and a stored entry
#: decodes up to 14 categories per core.
_TIME_VALUE = {c: c.value for c in TIME_CATS}
_ABORT_VALUE = {r: r.value for r in ABORT_REASONS}
_TIME_BY_VALUE = {v: c for c, v in _TIME_VALUE.items()}
_ABORT_BY_VALUE = {v: r for r, v in _ABORT_VALUE.items()}

_COUNTER_FIELDS = (
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
)


def core_stats_to_dict(cs: CoreStats) -> Dict:
    return {
        "time": {_TIME_VALUE[c]: v for c, v in cs.time.items()},
        "aborts": {_ABORT_VALUE[r]: v for r, v in cs.aborts.items()},
        "commits_htm": cs.commits_htm,
        "commits_lock": cs.commits_lock,
        "commits_switched": cs.commits_switched,
        "tx_attempts": cs.tx_attempts,
        "fallback_entries": cs.fallback_entries,
        "switch_attempts": cs.switch_attempts,
        "switch_successes": cs.switch_successes,
        "rejects_received": cs.rejects_received,
        "rejects_issued": cs.rejects_issued,
        "wakeups_sent": cs.wakeups_sent,
        "wakeup_timeouts": cs.wakeup_timeouts,
        "loads": cs.loads,
        "stores": cs.stores,
        "l1_hits": cs.l1_hits,
        "l1_misses": cs.l1_misses,
        "l2_hits": cs.l2_hits,
        "commit_latency_hist": cs.commit_latency_hist.as_dict(),
    }


def _decode_counts(raw: Mapping, by_value: Dict, members: List) -> Dict:
    """Category counts keyed by member, in enum order, zero-filled.

    An unknown category raises ``ValueError``, as calling the enum did.
    """
    out = dict.fromkeys(members, 0)
    for key, value in raw.items():
        member = by_value.get(key)
        if member is None:
            raise ValueError(f"unknown stats category {key!r}")
        out[member] = value
    return out


def core_stats_from_dict(data: Mapping) -> CoreStats:
    cs = CoreStats(
        time=_decode_counts(data["time"], _TIME_BY_VALUE, TIME_CATS),
        aborts=_decode_counts(data["aborts"], _ABORT_BY_VALUE, ABORT_REASONS),
        l2_hits=data.get("l2_hits", 0),
        **{name: data[name] for name in _COUNTER_FIELDS},
    )
    if "commit_latency_hist" in data:
        cs.commit_latency_hist = LatencyHistogram.from_dict(
            data["commit_latency_hist"]
        )
    return cs


def run_stats_to_dict(
    stats: RunStats, meta: Optional[Mapping] = None
) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "execution_cycles": stats.execution_cycles,
        "cores": [core_stats_to_dict(cs) for cs in stats.cores],
        "sanity_failures": list(stats.sanity_failures),
    }


def run_stats_from_dict(data: Mapping) -> RunStats:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return RunStats(
        execution_cycles=data["execution_cycles"],
        cores=[core_stats_from_dict(c) for c in data["cores"]],
        sanity_failures=list(data.get("sanity_failures", [])),
    )


def dumps(stats: RunStats, meta: Optional[Mapping] = None) -> str:
    return json.dumps(run_stats_to_dict(stats, meta), sort_keys=True)


def loads(text: str) -> RunStats:
    return run_stats_from_dict(json.loads(text))


def fingerprint(stats: RunStats) -> str:
    """Short stable digest of the run's observable behaviour."""
    import hashlib

    payload = json.dumps(
        {
            "cycles": stats.execution_cycles,
            "time": {
                _TIME_VALUE[c]: v for c, v in stats.time_breakdown().items()
            },
            "aborts": {
                _ABORT_VALUE[r]: v
                for r, v in stats.abort_breakdown().items()
            },
            "commits": stats.commits,
            "attempts": stats.tx_attempts,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def compare_runs(a: RunStats, b: RunStats) -> List[str]:
    """Human-readable list of differences (empty when identical)."""
    diffs: List[str] = []
    if a.execution_cycles != b.execution_cycles:
        diffs.append(
            f"execution_cycles: {a.execution_cycles} != {b.execution_cycles}"
        )
    for cat, va in a.time_breakdown().items():
        vb = b.time_breakdown()[cat]
        if va != vb:
            diffs.append(f"time[{cat.value}]: {va} != {vb}")
    for reason, va in a.abort_breakdown().items():
        vb = b.abort_breakdown()[reason]
        if va != vb:
            diffs.append(f"aborts[{reason.value}]: {va} != {vb}")
    if a.commits != b.commits:
        diffs.append(f"commits: {a.commits} != {b.commits}")
    if len(a.cores) != len(b.cores):
        diffs.append(f"core count: {len(a.cores)} != {len(b.cores)}")
    return diffs
