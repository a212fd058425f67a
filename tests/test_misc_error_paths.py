"""Defensive-path coverage: guards that should never fire in normal
operation, pinned so refactors keep them."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import ctrl_packet
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic


def test_simulator_rejects_negative_sample_interval():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    with pytest.raises(ValueError):
        Simulator(network, ScheduledTraffic([]), warmup_cycles=0,
                  measure_cycles=10, drain_cycles=10, sample_interval=-1)


def test_receive_credit_on_local_port_raises():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    router = network.routers[0]
    with pytest.raises(RuntimeError):
        router.receive_credit(0, 0)  # port 0 is the local port


def test_network_nodes_validated_on_enqueue():
    network = Network(Mesh2D(2, 2, pitch_mm=1.0))
    bad = ctrl_packet(0, 1, created_cycle=0)
    bad.src = -1
    with pytest.raises(ValueError):
        network.enqueue_packet(bad)


def test_vc_buffer_depth_validated_via_network():
    with pytest.raises(ValueError):
        Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=0)


def test_plain_topology_falls_back_to_table_routing():
    """The registry's Topology-base entry catches fabrics without a
    coordinate routing function; only non-topologies are rejected."""
    from repro.noc.routing import routing_for_topology
    from repro.noc.table_routing import TableRouting
    from repro.topology.base import LinkKind, LinkSpec, Topology

    plain = Topology(2, [
        LinkSpec(0, 1, "E", "W", LinkKind.NORMAL, 1.0),
        LinkSpec(1, 0, "W", "E", LinkKind.NORMAL, 1.0),
    ])
    assert isinstance(routing_for_topology(plain), TableRouting)
    with pytest.raises(TypeError):
        routing_for_topology(object())


def test_run_helper_steps_cycles():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    network.run(7)
    assert network.cycle == 7
