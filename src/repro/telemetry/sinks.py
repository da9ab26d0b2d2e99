"""Telemetry sinks: the atomic JSON artifact writer.

Mirrors the run-cache discipline (temp file + ``os.replace``; nothing
half-written ever lands under a final name) so telemetry artifacts can
sit next to runcache entries without risking the cache's crash-safety
story.  ``artifact_path`` maps a cell key to its sibling artifact
(``<key>.metrics.json`` / ``<key>.trace.json`` in the entry's shard
directory), which is what ``Sweep.rerun_with_telemetry`` uses.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.harness.runcache import RunCache

#: Artifact kind -> filename suffix, used beside a runcache entry.
ARTIFACT_SUFFIXES = {
    "metrics": ".metrics.json",
    "trace": ".trace.json",
}


def write_json_atomic(path: str, doc, indent: Optional[int] = None) -> str:
    """Serialize ``doc`` to ``path`` atomically; returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=indent)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error path
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return path


def artifact_path(cache: RunCache, key: str, kind: str) -> str:
    """Path of a telemetry artifact next to the cell's runcache entry."""
    try:
        suffix = ARTIFACT_SUFFIXES[kind]
    except KeyError:
        raise ValueError(
            f"unknown artifact kind {kind!r}; "
            f"expected one of {sorted(ARTIFACT_SUFFIXES)}"
        ) from None
    entry = cache.path_for(key)
    base = entry[: -len(".json")] if entry.endswith(".json") else entry
    return base + suffix
