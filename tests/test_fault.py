"""Fault-tolerant express routing tests (Sec. 3.3's fault-tolerance use).

The steering rule is :class:`ExpressXYRouting` handed a failed set; the
network runs it through its next-port table, so the steered ports are
read from the table :func:`build_route_table` rebuilds around the
failures.
"""

import pytest

from repro.core.arch import make_2db, make_3dme
from repro.core.express import route_path
from repro.core.fault import (
    both_directions,
    build_fault_tolerant_network,
    routable_under,
    single_failure_coverage,
)
from repro.noc.packet import ctrl_packet, data_packet
from repro.noc.routing import ExpressXYRouting
from repro.noc.simulator import Simulator
from repro.noc.table_routing import build_route_table
from repro.topology.express_mesh import ExpressMesh
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


@pytest.fixture
def mesh():
    return ExpressMesh(6, 6, pitch_mm=1.0, span=2)


def _table(mesh, failed=()):
    return build_route_table(mesh, ExpressXYRouting(mesh), frozenset(failed))


def _steered(mesh, failed, node, dst):
    """Port name the table rebuilt around *failed* takes at *node*
    towards *dst*; None when the pair is unroutable there."""
    entry = _table(mesh, failed)[node][dst]
    return None if entry < 0 else mesh.port_names(node)[entry]


def _table_path(mesh, rows, src, dst):
    """Nodes a packet visits under the table; None when it drops."""
    path = [src]
    while path[-1] != dst:
        node = path[-1]
        entry = rows[node][dst]
        if entry < 0:
            return None
        path.append(mesh.out_ports[node][mesh.port_names(node)[entry]].dst)
    return path


class TestRoutingAroundFailures:
    def test_no_failures_matches_express_routing(self, mesh):
        plain = ExpressXYRouting(mesh)
        rows = _table(mesh)
        for src in range(0, 36, 5):
            for dst in range(36):
                if src != dst:
                    name = mesh.port_names(src)[rows[src][dst]]
                    assert name == plain.output_port(src, dst)

    def test_failed_express_degrades_to_normal(self, mesh):
        node = mesh.node_at((0, 0))
        target = mesh.node_at((4, 0))
        express_link = mesh.out_ports[node]["EE"]
        failed = [(express_link.src, express_link.dst)]
        assert _steered(mesh, failed, node, target) == "E"

    def test_failed_normal_bypassed_minimally(self, mesh):
        """dx >= span: the express channel is the minimal alternative."""
        node = mesh.node_at((0, 0))
        target = mesh.node_at((3, 0))
        normal = mesh.link_between(node, mesh.node_at((1, 0)))
        failed = [(normal.src, normal.dst)]
        assert _steered(mesh, failed, node, target) == "EE"

    def test_failed_normal_overshoot_and_return(self, mesh):
        """dx == 1 with the normal channel dead: overshoot via express,
        come back one hop — exactly one extra hop."""
        src = mesh.node_at((0, 0))
        dst = mesh.node_at((1, 0))
        normal = mesh.link_between(src, dst)
        rows = _table(mesh, [(normal.src, normal.dst)])
        path = _table_path(mesh, rows, src, dst)
        coords = [mesh.coordinates(n) for n in path]
        assert coords == [(0, 0), (2, 0), (1, 0)]

    def test_unroutable_when_both_channels_dead(self, mesh):
        src = mesh.node_at((0, 0))
        normal = mesh.link_between(src, mesh.node_at((1, 0)))
        express = mesh.out_ports[src]["EE"]
        failed = [(normal.src, normal.dst), (express.src, express.dst)]
        assert _steered(mesh, failed, src, mesh.node_at((1, 0))) is None

    def test_edge_normal_failure_not_tolerable(self, mesh):
        """x=4 -> x=5 has no express sibling (EE would leave the grid)."""
        src = mesh.node_at((4, 0))
        dst = mesh.node_at((5, 0))
        link = mesh.link_between(src, dst)
        assert not routable_under(mesh, [(link.src, link.dst)])

    def test_unknown_failed_channel_rejected(self, mesh):
        with pytest.raises(KeyError):
            _table(mesh, [(0, 35)])

    def test_both_directions_helper(self):
        assert both_directions(1, 2) == {(1, 2), (2, 1)}


class TestCoverage:
    def test_single_failure_coverage_substantial(self, mesh):
        """The express sibling tolerates most single channel failures —
        the quantified version of the paper's fault-tolerance claim."""
        coverage = single_failure_coverage(ExpressMesh(4, 4, pitch_mm=1.0))
        assert coverage == 0.8

    def test_single_failure_coverage_on_3dme(self):
        """The paper's 6x6 3DM-E: 8 in 9 single failures tolerated."""
        assert single_failure_coverage(make_3dme().build_topology()) == 8 / 9

    def test_all_express_failures_tolerable(self, mesh):
        from repro.topology.base import LinkKind

        small = ExpressMesh(4, 4, pitch_mm=1.0)
        for link in small.links:
            if link.kind is LinkKind.EXPRESS:
                assert routable_under(small, [(link.src, link.dst)])


class TestMultiFailureProperties:
    from hypothesis import given, settings as hyp_settings, strategies as st

    @hyp_settings(max_examples=15, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=47), min_size=1,
                   max_size=4))
    def test_property_express_failures_always_tolerable(self, indices):
        """Any combination of failed *express* channels keeps the 4x4
        mesh fully connected (the normal sibling is always minimal)."""
        from repro.topology.base import LinkKind

        mesh = ExpressMesh(4, 4, pitch_mm=1.0)
        express_links = [
            l for l in mesh.links if l.kind is LinkKind.EXPRESS
        ]
        failed = {
            (express_links[i % len(express_links)].src,
             express_links[i % len(express_links)].dst)
            for i in indices
        }
        assert routable_under(mesh, failed)

    @hyp_settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=35),
           st.integers(min_value=0, max_value=35))
    def test_property_detour_costs_at_most_one_hop(self, src, dst):
        """With one interior normal link dead, any routable pair pays at
        most one extra hop vs the healthy network."""
        mesh = ExpressMesh(6, 6, pitch_mm=1.0)
        victim = mesh.link_between(mesh.node_at((2, 2)), mesh.node_at((3, 2)))
        rows = _table(mesh, [(victim.src, victim.dst)])
        if src == dst:
            return
        healthy = len(route_path(mesh, src, dst)) - 1
        faulty = len(_table_path(mesh, rows, src, dst)) - 1
        assert faulty <= healthy + 1


class TestFaultyNetworkEndToEnd:
    def test_packets_delivered_across_failure(self):
        config = make_3dme()
        mesh = ExpressMesh(6, 6, pitch_mm=1.58, span=2)
        victim = mesh.link_between(0, 1)
        network = build_fault_tolerant_network(
            config, [(victim.src, victim.dst)]
        )
        packets = [ctrl_packet(0, 1, created_cycle=0),
                   data_packet(0, 3, created_cycle=0)]
        sim = Simulator(network, ScheduledTraffic(packets),
                        warmup_cycles=0, measure_cycles=200, drain_cycles=2000)
        sim.run()
        for packet in packets:
            assert packet.delivered_cycle is not None
        # The 0 -> 1 packet took the overshoot detour: 2 hops, not 1.
        assert packets[0].hops == 2

    def test_network_survives_failure_under_load(self):
        config = make_3dme()
        mesh = ExpressMesh(6, 6, pitch_mm=1.58, span=2)
        victim = mesh.link_between(14, 15)
        network = build_fault_tolerant_network(
            config, both_directions(victim.src, victim.dst)
        )
        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=36, flit_rate=0.15, seed=4),
            warmup_cycles=300, measure_cycles=1500, drain_cycles=15000,
        )
        result = sim.run()
        assert not result.saturated
        assert network.events.link_flits.get("express", 0) > 0

    def test_latency_degrades_gracefully(self):
        config = make_3dme()
        settingsish = dict(warmup_cycles=300, measure_cycles=1500,
                           drain_cycles=15000)
        mesh = ExpressMesh(6, 6, pitch_mm=1.58, span=2)
        victim = mesh.link_between(14, 15)

        healthy = build_fault_tolerant_network(config, ())
        sim = Simulator(healthy, UniformRandomTraffic(36, 0.15, seed=4),
                        **settingsish)
        base = sim.run().avg_latency

        faulty = build_fault_tolerant_network(
            config, both_directions(victim.src, victim.dst)
        )
        sim = Simulator(faulty, UniformRandomTraffic(36, 0.15, seed=4),
                        **settingsish)
        degraded = sim.run().avg_latency
        assert degraded >= base * 0.99
        assert degraded < base * 1.5  # graceful, not collapse

    def test_requires_express_config(self):
        with pytest.raises(ValueError):
            build_fault_tolerant_network(make_2db(), ())
