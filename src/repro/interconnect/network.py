"""Latency model for the mesh interconnect.

A message crossing ``h`` hops with ``f`` flits on 1-flit/cycle links with
1-cycle routers costs::

    h * (link_latency + router_latency) + (f - 1)

i.e. store-and-forward per hop for the head flit plus pipeline
serialization for the body flits (wormhole tail latency).  Per DESIGN.md
we do not model link *contention*; directory-bank serialization (modeled
in the coherence layer) is the first-order queueing effect for STAMP on
32 cores.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import NetworkParams
from repro.interconnect.topology import MeshTopology


class NetworkModel:
    """Prices messages between tiles.

    Default mode is stateless hop-latency pricing.  With
    ``params.model_contention`` (extension), each directional link keeps
    a ``busy_until`` window and messages sharing a link serialize; the
    current simulation time is read from :attr:`clock` (wired by the
    Machine), so component call sites stay unchanged.
    """

    __slots__ = (
        "topology",
        "params",
        "_per_hop",
        "_data_tail",
        "_ctrl_tail",
        "_hops_table",
        "_n_tiles",
        "_stateless",
        "_ctrl_by_hops",
        "_data_by_hops",
        "messages_sent",
        "flits_sent",
        "hops_traversed",
        "clock",
        "_link_busy",
        "link_stalls",
        "chaos",
    )

    def __init__(self, topology: MeshTopology, params: NetworkParams) -> None:
        self.topology = topology
        self.params = params
        self._per_hop = params.link_latency + params.router_latency
        self._data_tail = params.data_flits - 1
        self._ctrl_tail = params.control_flits - 1
        # Flat hop table shared with the topology (one load instead of a
        # method call per message).
        self._hops_table = topology._hops
        self._n_tiles = topology.num_tiles
        #: No link contention is modeled — latency is a pure function of
        #: (hops, class), so it can be memoized once per geometry.
        self._stateless = not params.model_contention
        self._ctrl_by_hops = self._by_hops(self._ctrl_tail)
        self._data_by_hops = self._by_hops(self._data_tail)
        #: Simulation clock; wired by the Machine when contention
        #: modeling is armed (defaults to a constant 0 = relative time).
        self.clock: Optional[Callable[[], int]] = None
        self._link_busy: Dict[Tuple[int, int], int] = {}
        self.reset()

    def reset(self) -> None:
        """Set the run state: counters zeroed, links idle, no chaos hook.

        The latency tables are pure functions of (geometry, params) and
        survive; the wired :attr:`clock` closure stays valid because the
        pool reuses the engine object in place.
        """
        self.messages_sent = 0
        self.flits_sent = 0
        self.hops_traversed = 0
        self._link_busy.clear()
        self.link_stalls = 0
        #: Fault-injection hook (latency -> perturbed latency); wired by
        #: the Machine when a FaultPlan is armed, else None (no cost).
        self.chaos: Optional[Callable[[int], int]] = None

    def _by_hops(self, tail: int) -> List[int]:
        """Stateless latency of a ``tail + 1``-flit message by hop count."""
        return [
            self.params.router_latency + tail if h == 0
            else h * self._per_hop + tail
            for h in range(self.topology.max_hops + 1)
        ]

    def _traverse(
        self, src_tile: int, dst_tile: int, flits: int, tail: int
    ) -> int:
        """Walk the X-Y route reserving each directional link."""
        now = self.clock() if self.clock is not None else 0
        if src_tile == dst_tile:
            return self.params.router_latency + tail
        t = now
        route = self.topology.route(src_tile, dst_tile)
        busy = self._link_busy
        for a, b in zip(route, route[1:]):
            key = (a, b)
            ready = busy.get(key, 0)
            if ready > t:
                self.link_stalls += 1
                t = ready
            # The link is occupied while all flits stream across it.
            busy[key] = t + flits * self.params.link_latency
            t += self._per_hop
        t += tail
        return max(1, t - now)

    def publish_telemetry(self, registry) -> None:
        """Publish NoC counters under ``noc.*`` / ``noc.link.X_Y.*``."""
        noc = registry.scope("noc")
        noc.set("messages_sent", self.messages_sent)
        noc.set("flits_sent", self.flits_sent)
        noc.set("hops_traversed", self.hops_traversed)
        noc.set("link_stalls", self.link_stalls)
        if self.messages_sent:
            noc.set(
                "mean_hops", self.hops_traversed / self.messages_sent
            )
        # Per-link occupancy exists only under contention modeling.
        for (a, b), busy_until in sorted(self._link_busy.items()):
            noc.set(f"link.{a}_{b}.busy_until", busy_until)

    def control_latency(self, src_tile: int, dst_tile: int) -> int:
        """Cycles for one control message; counts it on the NoC."""
        hops = self._hops_table[src_tile * self._n_tiles + dst_tile]
        self.messages_sent += 1
        self.flits_sent += self._ctrl_tail + 1
        self.hops_traversed += hops
        if self._stateless:
            lat = self._ctrl_by_hops[hops]
            if self.chaos is None:
                return lat
            return self.chaos(lat)
        lat = self._traverse(
            src_tile, dst_tile, self._ctrl_tail + 1, self._ctrl_tail
        )
        if self.chaos is not None:
            lat = self.chaos(lat)
        return lat

    def data_latency(self, src_tile: int, dst_tile: int) -> int:
        """Cycles for one data message; counts it on the NoC."""
        hops = self._hops_table[src_tile * self._n_tiles + dst_tile]
        self.messages_sent += 1
        self.flits_sent += self._data_tail + 1
        self.hops_traversed += hops
        if self._stateless:
            lat = self._data_by_hops[hops]
            if self.chaos is None:
                return lat
            return self.chaos(lat)
        lat = self._traverse(
            src_tile, dst_tile, self._data_tail + 1, self._data_tail
        )
        if self.chaos is not None:
            lat = self.chaos(lat)
        return lat

    def round_trip(self, a: int, b: int) -> int:
        """Control request + data response between two tiles."""
        return self.control_latency(a, b) + self.data_latency(b, a)
