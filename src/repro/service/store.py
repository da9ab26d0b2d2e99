"""Sharded result store for concurrent campaign writers.

:class:`ShardedStore` is a :class:`~repro.harness.runcache.RunCache`
whose on-disk layout fans out over **two** levels of key-prefix
directories — ``<root>/<key[:2]>/<key[2:4]>/<key>.json``, 65536 leaf
shards — so thousands of concurrent campaign writers land their entries
across many directories instead of contending on one, and per-shard
``os.makedirs``/listing costs stay flat as the store grows.  Writes are
additionally serialized per shard with a lock: the final
``os.replace`` is atomic either way, but the serialization bounds the
number of simultaneously open temp files per directory and gives the
service one choke point per shard rather than one global one.

Reads stay lock-free (an entry is only ever created whole by the atomic
replace).  Keys are exactly the content hashes of
:func:`repro.harness.runcache.cell_key`, so a sharded store and a flat
``RunCache`` are interchangeable at the key level — only the pathing
differs.  ``RunCache`` semantics (corrupt-entry repair, hit/miss
accounting, unique temp files) are inherited unchanged.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from repro.common.stats import RunStats
from repro.harness.runcache import RunCache


class ShardedStore(RunCache):
    """Two-level key-prefix fanout + per-shard write serialization."""

    def __init__(self, root: Optional[str] = None) -> None:
        super().__init__(root)
        self._shard_locks: Dict[str, threading.Lock] = {}
        self._shard_locks_guard = threading.Lock()

    def path_for(self, key: str) -> str:
        return os.path.join(
            self.root, key[:2], key[2:4], f"{key}.json"
        )

    def shard_of(self, key: str) -> str:
        """The leaf-shard identifier a key lands in."""
        return key[:4]

    def _shard_lock(self, key: str) -> threading.Lock:
        shard = self.shard_of(key)
        # dict reads are atomic under the GIL; only creation is guarded.
        lock = self._shard_locks.get(shard)
        if lock is None:
            with self._shard_locks_guard:
                lock = self._shard_locks.setdefault(
                    shard, threading.Lock()
                )
        return lock

    def put(
        self, key: str, stats: RunStats, meta: Optional[Dict] = None
    ) -> None:
        path = self.path_for(key)
        with self._shard_lock(key):
            # Made on every put (one stat when it exists): a shard
            # pruned from disk since the last put must come back.
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self._write_entry(path, stats, meta)

    def contains(self, key: str) -> bool:
        """Existence probe without parsing (no hit/miss accounting)."""
        return os.path.exists(self.path_for(key))
