"""On-chip interconnect: 2-D mesh topology, X-Y routing, latency model."""

from repro.interconnect.topology import MeshTopology
from repro.interconnect.network import NetworkModel

__all__ = ["MeshTopology", "NetworkModel"]
