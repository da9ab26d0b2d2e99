"""Persistent on-disk cache of simulation results.

A run is a pure function of ``(workload, system spec, machine params,
threads, scale, seed)`` (see docs/ARCHITECTURE.md §7), so its
:class:`~repro.common.stats.RunStats` can be cached on disk and reused
across benches, figure drivers and resumed sweeps.  The cache key is a
SHA-256 content hash over the *canonicalized* cell description — every
spec flag and every machine parameter is part of the digest, so changing
any of them (or the cache/result schema version) silently invalidates
the entry by landing on a different key.  Nothing is ever mutated in
place: entries are written atomically (temp file + ``os.replace``) and a
corrupt or stale-schema file simply reads as a miss.

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON file per cell,
sharded by the first hash byte.  The root defaults to
``$REPRO_RUN_CACHE_DIR``, falling back to
``<XDG_CACHE_HOME|~/.cache>/repro-lockillertm/runcache``.

A writer killed between creating its temp file and the rename leaves
``<key>.json.tmp.<pid>.<n>`` behind.  Opening a cache removes every such
file whose pid is not running; a live writer's temp file is kept.

Because runs are pure and writes atomic, the cache is also the resume
journal of the crash-tolerant harness (:mod:`repro.resilience.harness`):
re-running an interrupted campaign against the same cache serves every
completed cell.  Fault-injected runs are never cached (the plan
perturbs timing, and chaos campaigns want fresh draws).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
from enum import Enum
from typing import Callable, Dict, NamedTuple, Optional, TypeVar

from repro.common.params import SystemParams
from repro.common.procs import pid_alive
from repro.common.stats import RunStats
from repro.core.policies import SystemSpec
from repro.harness.export import (
    SCHEMA_VERSION,
    fingerprint,
    run_stats_from_dict,
    run_stats_to_dict,
)

T = TypeVar("T")

#: Bump to invalidate every cached result (e.g. after a simulator change
#: that intentionally alters timing).  The export schema version is also
#: folded into the key, so result-format changes invalidate too.
CACHE_SCHEMA_VERSION = 1


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_RUN_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(xdg, "repro-lockillertm", "runcache")


def _canonical(obj):
    """Recursively reduce dataclasses/enums to stable JSON-able values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.name
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache key")


def cell_key(
    workload: str,
    spec: SystemSpec,
    params: SystemParams,
    threads: int,
    scale: float,
    seed: int,
) -> str:
    """Content hash identifying one simulation cell."""
    return _digest(
        workload, _fragment(spec), _fragment(params), threads, scale, seed
    )


def cell_keyer() -> Callable[..., str]:
    """A :func:`cell_key` that encodes each spec and params object once.

    Use one per grid expansion: every cell of a grid shares a handful of
    spec and params objects, and canonicalizing and encoding them is
    most of a key's cost.  The memo is keyed by object identity, holds
    each object so its id cannot be reused, and dies with the returned
    function.  It is not keyed by value: ``==``-equal params whose
    fields hold ``1``, ``1.0`` or ``True`` encode differently, so they
    have different keys.
    """
    memo: Dict[int, tuple] = {}

    def fragment(obj) -> str:
        entry = memo.get(id(obj))
        if entry is None:
            entry = memo[id(obj)] = (obj, _fragment(obj))
        return entry[1]

    def key(workload, spec, params, threads, scale, seed) -> str:
        return _digest(
            workload, fragment(spec), fragment(params), threads, scale, seed
        )

    return key


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fragment(obj) -> str:
    """The key payload's encoding of one spec or params object."""
    return _json(_canonical(obj))


def _digest(workload, spec_json: str, params_json: str, threads, scale,
            seed) -> str:
    # The payload equals ``_json`` of the cell's description dict,
    # written out in sorted key order so the pre-encoded spec and params
    # splice in as they are.  The numeric coordinates are coerced so
    # equal values hash equally whatever their Python type: ``scale=1``
    # and ``scale=1.0`` are one cell, though json renders "1" vs "1.0".
    # An int's json text is its ``str``; the schema versions are ints.
    payload = (
        f'{{"cache_schema":{CACHE_SCHEMA_VERSION},'
        f'"params":{params_json},'
        f'"result_schema":{SCHEMA_VERSION},'
        f'"scale":{_float_json(float(scale))},'
        f'"seed":{int(seed)},'
        f'"spec":{spec_json},'
        f'"threads":{int(threads)},'
        f'"workload":{json.dumps(workload)}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _float_json(x: float) -> str:
    """``json.dumps(x)``: a finite float's ``repr``, else json's spelling."""
    if math.isfinite(x):
        return repr(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def cell_meta(workload: str, spec: SystemSpec, threads: int,
              scale: float, seed: int) -> Dict:
    """The ``meta`` block the harness stores beside a cell's result."""
    return {
        "workload": workload,
        "system": spec.name,
        "threads": threads,
        "scale": scale,
        "seed": seed,
    }


class StoredResult(NamedTuple):
    """One cell's result as the service holds and serves it.

    Immutable, so one record can be shared by every job that delivers
    the cell.  ``stats_json`` is ``json.dumps(run_stats_to_dict(stats),
    sort_keys=True)`` of the decoded stats, the text the results body
    carries for the cell.
    """

    fingerprint: str
    stats_json: str
    execution_cycles: int

    @classmethod
    def of(cls, stats: RunStats) -> "StoredResult":
        return cls(
            fingerprint(stats),
            json.dumps(run_stats_to_dict(stats), sort_keys=True),
            stats.execution_cycles,
        )


def decode_entry(data: bytes) -> RunStats:
    """The stats an entry's bytes hold; raises if they are not one."""
    return run_stats_from_dict(json.loads(data.decode("utf-8")))


class RunCache:
    """File-per-cell result cache with hit/miss accounting."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = str(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._remove_stale_temps()

    def _remove_stale_temps(self) -> None:
        """Unlink the temp files of writers that are no longer running.

        See :meth:`_write_entry` for the name; a file whose pid is alive
        may be a put in progress and stays.
        """
        try:
            shards = [e.path for e in os.scandir(self.root) if e.is_dir()]
        except OSError:
            return  # no cache directory yet
        for shard in shards:
            try:
                names = os.listdir(shard)
            except OSError:
                continue
            for name in names:
                _, sep, tail = name.partition(".json.tmp.")
                pid = tail.split(".", 1)[0]
                if sep and pid.isdigit() and not pid_alive(int(pid)):
                    try:
                        os.unlink(os.path.join(shard, name))
                    except OSError:
                        pass  # another opener removed it first

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[RunStats]:
        """The entry's stats, decoded afresh: the caller owns them."""
        return self._read(key, decode_entry)

    def _read(self, key: str, decode: Callable[[bytes], T]) -> Optional[T]:
        """Read the entry for ``key`` and return ``decode`` of its bytes.

        Counts one hit or one miss.  Bytes that ``decode`` rejects are a
        corrupt entry: a miss, and the file is unlinked.
        """
        path = self.path_for(key)
        try:
            fh = open(path, "rb")
        except OSError:
            # No entry on disk: a plain miss.
            self.misses += 1
            return None
        try:
            with fh:
                value = decode(fh.read())
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or stale-schema entry: a miss, and the file can
            # never become a hit again — unlink it so the next run
            # re-stores cleanly instead of re-parsing garbage forever.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    _tmp_seq = itertools.count()

    def put(
        self, key: str, stats: RunStats, meta: Optional[Dict] = None
    ) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._write_entry(path, stats, meta)

    def _write_entry(
        self, path: str, stats: RunStats, meta: Optional[Dict]
    ) -> None:
        """Write one entry atomically: temp file, then ``os.replace``.

        If serialization or the write raises, the temp file is unlinked
        and the error re-raised, so a failed put leaves no orphan and
        the key still misses.
        """
        # pid disambiguates processes; the class-level counter
        # disambiguates threads within one process, so two concurrent
        # same-key puts never interleave writes into one temp file.
        tmp = f"{path}.tmp.{os.getpid()}.{next(RunCache._tmp_seq)}"
        try:
            # One dumps + one write: json.dump streams through the
            # pure-Python chunked encoder, dumps uses the C one.  The
            # bytes are identical either way.
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(run_stats_to_dict(stats, meta), sort_keys=True)
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1


def coerce_cache(cache) -> Optional[RunCache]:
    """Normalize the ``cache=`` argument accepted by the harness APIs.

    ``None``/``False`` → no caching; ``True`` → the default directory;
    a string/path → a cache rooted there; a :class:`RunCache` instance →
    itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return RunCache()
    if isinstance(cache, RunCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return RunCache(str(cache))
    raise TypeError(f"cannot interpret cache={cache!r}")
