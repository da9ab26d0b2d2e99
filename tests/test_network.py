"""Unit tests for the NoC latency model."""

import pytest

from repro.common.params import NetworkParams
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology


@pytest.fixture
def net() -> NetworkModel:
    params = NetworkParams()
    return NetworkModel(MeshTopology(params), params)


class TestLatency:
    def test_control_one_hop(self, net):
        # 1 hop * (link 1 + router 1) + 0 tail flits = 2
        assert net.control_latency(0, 1) == 2

    def test_data_one_hop(self, net):
        # 1 hop * 2 + 4 tail flits = 6
        assert net.data_latency(0, 1) == 6

    def test_control_corner_to_corner(self, net):
        assert net.control_latency(0, 31) == 20

    def test_local_delivery_nonzero(self, net):
        assert net.control_latency(3, 3) == 1
        assert net.data_latency(3, 3) == 5

    def test_data_slower_than_control(self, net):
        for a, b in ((0, 1), (0, 31), (5, 20)):
            assert net.data_latency(a, b) > net.control_latency(a, b)

    def test_round_trip_is_sum(self, net):
        assert net.round_trip(0, 3) == net.control_latency(0, 3) + net.data_latency(3, 0)

    def test_leg_latency_by_class(self, net):
        # Each class prices h hops as h * (link + router) + tail flits;
        # local delivery pays the router once.
        params = net.params
        hops = MeshTopology(params).hops
        per_hop = params.link_latency + params.router_latency
        for leg, flits in (
            (net.control_latency, params.control_flits),
            (net.data_latency, params.data_flits),
        ):
            for a, b in ((0, 0), (0, 1), (0, 31), (5, 20), (31, 0)):
                h = hops(a, b)
                base = h * per_hop if h else params.router_latency
                assert leg(a, b) == base + flits - 1

    def test_counters_accumulate(self, net):
        before = net.messages_sent
        net.control_latency(0, 2)
        net.data_latency(2, 0)
        assert net.messages_sent == before + 2
        assert net.flits_sent >= 6
        assert net.hops_traversed >= 4

    def test_monotone_in_distance(self, net):
        lats = [net.control_latency(0, t) for t in (1, 2, 3)]
        assert lats == sorted(lats)
