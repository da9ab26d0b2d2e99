"""Process liveness, for files named after the process that wrote them."""

from __future__ import annotations

import os


def pid_alive(pid: int) -> bool:
    """True if a process with this pid is running (any user's).

    A recycled pid reads as alive, so callers that clean up after dead
    writers err on the side of keeping a file.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # running, under another user
    return True
