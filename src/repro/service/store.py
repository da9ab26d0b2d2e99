"""The service's result store: a ``RunCache`` that returns records.

:class:`ShardedStore` keeps :class:`~repro.harness.runcache.RunCache`'s
layout, ``<root>/<key[:2]>/<key>.json``, and its write path unchanged,
so ``repro serve --cache-dir D`` and ``Sweep.run(cache=D)`` share
entries file for file.  Concurrent puts are safe through the inherited
unique temp names and atomic ``os.replace``.  Corrupt-entry repair and
hit/miss accounting are inherited too.

What differs is what a hit returns: :meth:`ShardedStore.get` gives the
immutable :class:`~repro.harness.runcache.StoredResult` the service
keeps per cell, not a ``RunStats``.  Every get still opens and reads
the entry file; the record is then looked up by the SHA-256 of the
bytes just read, and only bytes not seen before (or evicted from the
bounded memo) are decoded.  A deleted, replaced or corrupt entry thus
reads exactly as it would without the memo.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Optional

from repro.harness.runcache import RunCache, StoredResult, decode_entry

#: Most records one store keeps decoded, oldest evicted first.  Each
#: costs about the size of its entry (the cell's ``stats_json``).
MEMO_ENTRIES = 1024


class ShardedStore(RunCache):
    """A ``RunCache`` whose ``get`` returns the entry's memoized record."""

    def __init__(self, root: Optional[str] = None) -> None:
        super().__init__(root)
        #: SHA-256 of an entry's bytes -> its record.
        self._memo: Dict[bytes, StoredResult] = {}
        self._memo_lock = threading.Lock()

    def get(self, key: str) -> Optional[StoredResult]:
        """The entry's record, decoded once per distinct entry bytes."""
        return self._read(key, self._record)

    def _record(self, data: bytes) -> StoredResult:
        digest = hashlib.sha256(data).digest()
        record = self._memo.get(digest)
        if record is None:
            record = StoredResult.of(decode_entry(data))
            with self._memo_lock:
                if len(self._memo) >= MEMO_ENTRIES:
                    del self._memo[next(iter(self._memo))]
                self._memo[digest] = record
        return record
