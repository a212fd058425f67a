"""2D torus topology + dateline-VC routing tests."""

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core.express import average_hops, hop_count, route_path
from repro.noc.network import Network
from repro.noc.packet import ctrl_packet
from repro.noc.routing import TorusXYRouting
from repro.noc.simulator import Simulator
from repro.topology.base import LOCAL_PORT
from repro.topology.mesh2d import EAST, Mesh2D, WEST
from repro.topology.torus import Torus2D
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


@pytest.fixture
def torus():
    return Torus2D(5, 5, pitch_mm=1.0)


class TestTopology:
    def test_every_router_has_full_radix(self, torus):
        for node in torus.iter_nodes():
            assert torus.degree(node) == 4
        assert torus.max_radix() == 5

    def test_wrap_channel_count(self, torus):
        wraps = [l for l in torus.links if l.wrap]
        # 2 per row (E and W wrap) + 2 per column.
        assert len(wraps) == 2 * 5 + 2 * 5

    def test_wrap_connects_edges(self, torus):
        link = torus.out_ports[torus.node_at((4, 2))][EAST]
        assert link.wrap
        assert torus.coordinates(link.dst) == (0, 2)

    def test_folded_torus_channel_length(self, torus):
        for link in torus.links:
            assert link.length_mm == pytest.approx(2.0)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            Torus2D(2, 5, pitch_mm=1.0)

    def test_coordinates_roundtrip(self, torus):
        for node in torus.iter_nodes():
            assert torus.node_at(torus.coordinates(node)) == node


class TestRouting:
    def test_takes_shorter_way_around(self, torus):
        routing = TorusXYRouting(torus)
        # (0,0) -> (4,0): 1 hop west beats 4 hops east.
        assert routing.output_port(0, torus.node_at((4, 0))) == WEST

    def test_tie_goes_forward(self):
        torus = Torus2D(4, 4, pitch_mm=1.0)
        routing = TorusXYRouting(torus)
        # Distance 2 both ways on a 4-ring: prefer east.
        assert routing.output_port(0, torus.node_at((2, 0))) == EAST

    def test_hop_count_uses_ring_distance(self, torus):
        src = torus.node_at((0, 0))
        dst = torus.node_at((4, 4))
        # 1 west + 1 north via wraps.
        assert hop_count(torus, src, dst) == 2

    def test_average_hops_below_mesh(self, torus):
        mesh = Mesh2D(5, 5, pitch_mm=1.0)
        assert average_hops(torus) < average_hops(mesh)

    def test_requires_torus(self):
        with pytest.raises(TypeError):
            TorusXYRouting(Mesh2D(4, 4, pitch_mm=1.0))

    @hyp_settings(max_examples=60)
    @given(st.integers(0, 24), st.integers(0, 24))
    def test_property_all_pairs_routable_minimal(self, src, dst):
        torus = Torus2D(5, 5, pitch_mm=1.0)
        if src == dst:
            return
        path = route_path(torus, src, dst)
        assert path[-1] == dst
        sx, sy = torus.coordinates(src)
        dx, dy = torus.coordinates(dst)
        ring = lambda a, b, k: min((b - a) % k, (a - b) % k)
        assert len(path) - 1 == ring(sx, dx, 5) + ring(sy, dy, 5)


class TestDateline:
    def _deliver(self, packets, cycles=3000):
        network = Network(Torus2D(5, 5, pitch_mm=1.0))
        sim = Simulator(network, ScheduledTraffic(packets), warmup_cycles=0,
                        measure_cycles=cycles, drain_cycles=cycles * 5)
        result = sim.run()
        return network, result

    def test_wrapping_packet_delivered(self):
        torus = Torus2D(5, 5, pitch_mm=1.0)
        packet = ctrl_packet(torus.node_at((4, 4)), torus.node_at((0, 0)),
                             created_cycle=0)
        _, result = self._deliver([packet])
        assert packet.delivered_cycle is not None
        assert packet.hops == 2

    @pytest.mark.parametrize(
        "size", [(3, 3), (4, 4), (5, 3), (4, 7)], ids=lambda s: "%dx%d" % s
    )
    def test_allowed_vcs_match_wrap_walk(self, size):
        """Every hop of every route asks for VC 0 before its dimension's
        wrap channel and VC 1 after it, as a walk over the links finds
        by counting ``LinkSpec.wrap`` crossings per dimension."""
        torus = Torus2D(*size, pitch_mm=1.0)
        routing = TorusXYRouting(torus)
        wrap_crossings = {"x": 0, "y": 0}
        for src in torus.iter_nodes():
            for dst in torus.iter_nodes():
                if src == dst:
                    continue
                wrapped = {"x": False, "y": False}
                node = src
                while node != dst:
                    port = routing.output_port(node, dst)
                    dim = "x" if port in (EAST, WEST) else "y"
                    expected = (1,) if wrapped[dim] else (0,)
                    got = routing.allowed_vcs(src, dst, node, port)
                    assert got == expected, (src, dst, node, port)
                    link = torus.out_ports[node][port]
                    if link.wrap:
                        wrapped[dim] = True
                        wrap_crossings[dim] += 1
                    node = link.dst
                assert routing.allowed_vcs(src, dst, dst, LOCAL_PORT) == (0, 1)
        # Routes cross the wrap channels of both dimensions.
        assert wrap_crossings["x"] and wrap_crossings["y"]

    def test_dateline_vc_assignment(self):
        """Channels before the wrap are claimed on VC 0, after on VC 1."""
        torus = Torus2D(5, 5, pitch_mm=1.0)
        network = Network(torus)
        # (4,0) -E wrap-> (0,0) -E-> (1,0): crosses the dateline mid-path.
        src, dst = torus.node_at((4, 0)), torus.node_at((1, 0))
        packet = ctrl_packet(src, dst, created_cycle=0)
        network.enqueue_packet(packet)
        # The VC a router claims on an output channel is the VC of the
        # flit's arrival-ring entry (unit, flit) downstream.
        vc_claims = {}
        for _ in range(200):
            network.step()
            for slot in network.arrival_slots:
                for unit, flit in slot:
                    if flit.packet is packet and flit.is_head:
                        node, port, vc = network.unit_location(unit)
                        port_name = network.port_names[node][port]
                        upstream = torus.in_ports[node][port_name].src
                        vc_claims[upstream] = vc
            if packet.delivered_cycle is not None:
                break
        assert vc_claims[torus.node_at((4, 0))] == 0  # the wrap channel
        assert vc_claims[torus.node_at((0, 0))] == 1  # post-dateline

    def test_no_deadlock_under_heavy_load(self):
        """The dateline discipline keeps a saturated torus live."""
        network = Network(Torus2D(5, 5, pitch_mm=1.0))
        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=25, flit_rate=0.45, seed=13),
            warmup_cycles=300, measure_cycles=3000, drain_cycles=2000,
        )
        result = sim.run()
        assert result.packets_delivered > 1500

    def test_uniform_traffic_all_delivered(self):
        network = Network(Torus2D(5, 5, pitch_mm=1.0))
        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=25, flit_rate=0.15, seed=13),
            warmup_cycles=300, measure_cycles=2000, drain_cycles=15000,
        )
        result = sim.run()
        assert not result.saturated
        assert result.avg_hops < average_hops(Mesh2D(5, 5, pitch_mm=1.0))

    def test_vc_by_class_conflicts_with_discipline(self):
        with pytest.raises(ValueError):
            Network(Torus2D(5, 5, pitch_mm=1.0), vc_by_class=True)

    def test_needs_two_vcs(self):
        with pytest.raises(ValueError):
            Network(Torus2D(5, 5, pitch_mm=1.0), num_vcs=1)
