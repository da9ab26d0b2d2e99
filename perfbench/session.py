"""Host record stored with every run, to spot runs in a slow window."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict, Optional


def _steal_ticks() -> Optional[int]:
    """Cumulative steal time (clock ticks) from the ``cpu`` line of
    ``/proc/stat``; None where the file is missing."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def _src_digest(root: str) -> str:
    """SHA-1 over the program's Python sources: names the code where
    the checkout is not a git repository."""
    digest = hashlib.sha1()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


class Session:
    """Captures host state at the start and end of one benchmark run."""

    def __init__(self, root: str) -> None:
        self.record: Dict = {
            "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "git_commit": _git_commit(root),
            "src_sha1": _src_digest(root),
            "loadavg_before": _loadavg(),
        }
        self._steal0 = _steal_ticks()

    def finish(self) -> Dict:
        steal1 = _steal_ticks()
        self.record["loadavg_after"] = _loadavg()
        self.record["steal_ticks_delta"] = (
            steal1 - self._steal0
            if steal1 is not None and self._steal0 is not None else None
        )
        self.record["clock_ticks_per_s"] = os.sysconf("SC_CLK_TCK")
        return self.record
