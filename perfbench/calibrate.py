"""A fixed pure-Python kernel that measures the host's current speed.

The VM this benchmark was built on drifts between a fast and a slow
mode that last from seconds to minutes (the same cold grid took 2.4 s in
one round and 3.6 s in the next).  Best-of-rounds alone cannot remove a
slow window that covers a whole run, so every timed cell or iteration is
followed by one kernel slice, and each time is rescaled by the median of
the slices around it: ``t * REF_S / slice``.  The kernel never changes
with the program under test, so a faster program still reads faster.
"""

from __future__ import annotations

import time

#: Kernel loop length; one slice takes about 4-6 ms on a 2-vCPU VM.
KERNEL_STEPS = 40_000
#: Slice time (seconds) that defines the reference host speed: a
#: normalized time is what the work would take where a slice takes 4 ms.
REF_S = 0.004


def _kernel(n: int) -> int:
    s = 0
    for i in range(n):
        s = (s * 31 + i) & 0xFFFF
        if s & 1:
            s ^= i
    return s


def slice_time(steps: int = KERNEL_STEPS) -> float:
    """Wall time of one kernel slice, in seconds."""
    start = time.perf_counter()
    _kernel(steps)
    return time.perf_counter() - start
