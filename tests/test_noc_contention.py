"""Tests for the opt-in NoC link-contention extension."""

from dataclasses import replace

from repro.common.params import NetworkParams, typical_params
from repro.harness.systems import get_system
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology
from repro.sim.runner import RunConfig, run_workload
from repro.workloads.registry import get_workload


def contended_net():
    params = NetworkParams(model_contention=True)
    net = NetworkModel(MeshTopology(params), params)
    clock = {"now": 0}
    net.clock = lambda: clock["now"]
    return net, clock


class TestLinkSerialization:
    def test_first_message_uncontended_matches_formula(self):
        net, _ = contended_net()
        # 2 hops * (1+1) + 0 tail = 4 for control on a fresh fabric.
        assert net.control_latency(0, 2) == 4

    def test_same_link_same_cycle_serializes(self):
        net, _ = contended_net()
        first = net.data_latency(0, 1)
        second = net.data_latency(0, 1)  # same cycle, same link
        assert second > first
        assert net.link_stalls > 0

    def test_disjoint_links_do_not_interfere(self):
        net, _ = contended_net()
        a = net.control_latency(0, 1)
        b = net.control_latency(4, 5)  # different row
        assert a == b
        assert net.link_stalls == 0

    def test_busy_window_expires(self):
        net, clock = contended_net()
        net.data_latency(0, 1)
        clock["now"] = 1000  # long after the link drained
        assert net.data_latency(0, 1) == 6  # back to formula price

    def test_opposite_directions_independent(self):
        net, _ = contended_net()
        a = net.control_latency(0, 1)
        b = net.control_latency(1, 0)
        assert a == b == 2

    def test_local_delivery_unaffected(self):
        net, _ = contended_net()
        assert net.control_latency(3, 3) == 1

    def test_disabled_mode_is_stateless(self):
        params = NetworkParams()  # default: no contention
        net = NetworkModel(MeshTopology(params), params)
        assert net.data_latency(0, 1) == net.data_latency(0, 1)
        assert net.link_stalls == 0


class TestEndToEnd:
    def _run(self, contention: bool):
        base = typical_params()
        params = replace(
            base,
            network=replace(base.network, model_contention=contention),
        )
        return run_workload(
            get_workload("vacation+"),
            RunConfig(
                spec=get_system("LockillerTM"),
                threads=8,
                scale=0.1,
                seed=6,
                params=params,
            ),
        )

    def test_contention_slows_but_preserves_function(self):
        off = self._run(False)
        on = self._run(True)
        # Queueing can only add cycles...
        assert on.execution_cycles >= off.execution_cycles
        # ... and functional results are identical (runner verified both).
        assert on.commits == off.commits

    def test_shape_insensitive_to_contention(self):
        """The DESIGN.md justification: who-wins is unchanged."""
        base = typical_params()
        params_on = replace(
            base, network=replace(base.network, model_contention=True)
        )
        speeds = {}
        for tag, params in (("off", base), ("on", params_on)):
            cgl = run_workload(
                get_workload("intruder"),
                RunConfig(spec=get_system("CGL"), threads=8, scale=0.1,
                          seed=6, params=params),
            )
            full = run_workload(
                get_workload("intruder"),
                RunConfig(spec=get_system("LockillerTM"), threads=8,
                          scale=0.1, seed=6, params=params),
            )
            speeds[tag] = cgl.execution_cycles / full.execution_cycles
        assert (speeds["off"] > 1.0) == (speeds["on"] > 1.0)
