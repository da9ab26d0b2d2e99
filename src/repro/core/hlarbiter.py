"""LLC arbitration of HTMLock-mode entry (§III-C, Fig. 6).

Only one transaction may be in HTMLock mode at any time.  Typical entry
(``TL``) already holds the fallback lock, but under switchingMode a
speculative transaction may try to *switch* into HTMLock mode (``STL``)
without the lock, so the LLC serializes both paths:

* an STL applicant is granted iff no transaction currently owns HTMLock
  mode (an atomic test-and-set at the LLC — the ``applyingHLA`` flow);
* a TL applicant (lock holder) queues until a live STL owner finishes.

The arbiter charges a control round trip from the applicant's tile to a
fixed arbiter tile, standing in for the paper's "lightweight centralized
arbiter module" for distributed LLCs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.common.errors import SimulationError


class HLArbiter:
    """Single-occupancy arbitration of HTMLock mode (TL vs STL entry)."""

    __slots__ = (
        "_engine",
        "_network",
        "_tile_of_core",
        "arbiter_tile",
        "owner",
        "owner_is_stl",
        "_tl_queue",
        "stl_grants",
        "stl_denials",
        "tl_grants",
    )

    def __init__(
        self,
        engine,
        network,
        tile_of_core: Callable[[int], int],
        arbiter_tile: int = 0,
    ) -> None:
        self._engine = engine
        self._network = network
        self._tile_of_core = tile_of_core
        self.arbiter_tile = arbiter_tile
        self._tl_queue: Deque[Tuple[int, Callable[[int], None]]] = deque()
        self.reset()

    def reset(self) -> None:
        """Set the run state: no owner, an empty queue, counters zeroed."""
        self.owner: Optional[int] = None
        self.owner_is_stl = False
        self._tl_queue.clear()
        self.stl_grants = 0
        self.stl_denials = 0
        self.tl_grants = 0

    @property
    def busy(self) -> bool:
        return self.owner is not None

    def _latency_for(self, core: int) -> int:
        return self._network.round_trip(
            self._tile_of_core(core), self.arbiter_tile
        )

    def request_stl(
        self, core: int, on_result: Callable[[int, bool], None]
    ) -> None:
        """SwitchingMode application; ``on_result(time, granted)``.

        The grant decision is made *now* (the LLC serializes applications)
        but the applicant learns it one round trip later, matching the
        applyingHLA window in which the L1 blocks external requests.
        """
        latency = self._latency_for(core)
        if self.owner is None:
            self.owner = core
            self.owner_is_stl = True
            self.stl_grants += 1
            self._engine.schedule_after_nocancel(
                latency, lambda t: on_result(t, True)
            )
        else:
            self.stl_denials += 1
            self._engine.schedule_after_nocancel(
                latency, lambda t: on_result(t, False)
            )

    def request_tl(self, core: int, on_granted: Callable[[int], None]) -> None:
        """Typical HTMLock entry (fallback-lock holder executing hlbegin)."""
        latency = self._latency_for(core)
        if self.owner is None:
            self.owner = core
            self.owner_is_stl = False
            self.tl_grants += 1
            self._engine.schedule_after_nocancel(latency, on_granted)
        else:
            self._tl_queue.append((core, on_granted))

    def publish_telemetry(self, registry) -> None:
        """Publish arbiter counters under ``lock_tx.arbiter.*``."""
        scope = registry.scope("lock_tx.arbiter")
        scope.set("stl_grants", self.stl_grants)
        scope.set("stl_denials", self.stl_denials)
        scope.set("tl_grants", self.tl_grants)
        scope.set("tl_queue_depth", len(self._tl_queue))
        scope.set("busy", self.busy)
        scope.set("owner", self.owner if self.owner is not None else -1)

    def release(self, core: int) -> None:
        """hlend: leave HTMLock mode; grant a queued TL applicant if any."""
        if self.owner != core:
            raise SimulationError(
                f"core {core} releasing HTMLock mode owned by {self.owner}"
            )
        self.owner = None
        self.owner_is_stl = False
        if self._tl_queue:
            nxt, cb = self._tl_queue.popleft()
            self.owner = nxt
            self.owner_is_stl = False
            self.tl_grants += 1
            self._engine.schedule_after_nocancel(self._latency_for(nxt), cb)
