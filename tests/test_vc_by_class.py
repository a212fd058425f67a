"""VC-per-traffic-class tests (the paper's design decision, Sec. 3.2.4 ii)."""

import pytest

from repro.noc.network import Network
from repro.noc.packet import PacketClass, ctrl_packet, data_packet
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic
from repro.traffic.nuca import NucaUniformTraffic


def _run(packets, cycles=2000, **net_kwargs):
    network = Network(Mesh2D(4, 2, pitch_mm=1.0), vc_by_class=True, **net_kwargs)
    sim = Simulator(network, ScheduledTraffic(packets), warmup_cycles=0,
                    measure_cycles=cycles, drain_cycles=cycles * 4)
    result = sim.run()
    return network, result


def test_both_classes_delivered():
    packets = [ctrl_packet(0, 7, created_cycle=0),
               data_packet(7, 0, created_cycle=0)]
    _, result = _run(packets)
    assert result.packets_delivered == 2


def test_out_vc_assignment_matches_class():
    """While in flight, control packets own VC 0 and data packets VC 1 on
    every output they hold."""
    network = Network(Mesh2D(4, 1, pitch_mm=1.0), vc_by_class=True)
    packets = [ctrl_packet(0, 3, created_cycle=0),
               data_packet(0, 3, created_cycle=1)]
    sim = Simulator(network, ScheduledTraffic(packets), warmup_cycles=0,
                    measure_cycles=60, drain_cycles=0)
    # Snoop ownership every cycle while stepping manually.
    seen = {0: set(), 1: set()}
    for cycle in range(60):
        sim._tick(generate=True)
        for router in network.routers:
            for port, owners in enumerate(router.out_owner):
                for vc, owner in enumerate(owners):
                    if owner is None:
                        continue
                    in_port, in_vc = owner
                    fifo = router.vc_fifos[in_port * router.num_vcs + in_vc]
                    if fifo:
                        seen[vc].add(fifo[0].packet.klass)
    assert seen[0] <= {PacketClass.CTRL}
    assert seen[1] <= {PacketClass.DATA}


def test_requires_two_vcs():
    with pytest.raises(ValueError):
        Network(Mesh2D(2, 1, pitch_mm=1.0), num_vcs=1, vc_by_class=True)


def test_classes_do_not_block_each_other():
    """A data worm hogging VC 1 must not delay a control packet on the
    same path (the protocol-isolation property the paper wants)."""
    # Long data packets saturating the path 0 -> 3.
    background = [data_packet(0, 3, created_cycle=c) for c in range(0, 60, 5)]
    probe = ctrl_packet(0, 3, created_cycle=30)

    _, _ = _run(background + [probe], cycles=500)
    isolated_latency = probe.latency

    solo_probe = ctrl_packet(0, 3, created_cycle=30)
    _run([solo_probe], cycles=500)
    assert isolated_latency <= solo_probe.latency * 3


def test_nuca_request_response_separation():
    """NUCA traffic (ctrl requests, data responses) runs cleanly with
    class-partitioned VCs — the paper's intended configuration."""
    network = Network(Mesh2D(6, 6, pitch_mm=1.0), vc_by_class=True)
    cpus = [13, 14, 15, 16, 19, 20, 21, 22]
    caches = [n for n in range(36) if n not in cpus]
    traffic = NucaUniformTraffic(
        cpu_nodes=cpus, cache_nodes=caches, request_rate=0.1, seed=5
    )
    sim = Simulator(network, traffic, warmup_cycles=300,
                    measure_cycles=1500, drain_cycles=15000)
    result = sim.run()
    assert not result.saturated
    assert result.avg_latency_by_class["ctrl"] > 0
    assert result.avg_latency_by_class["data"] > 0


def test_vc_by_class_latency_comparable_at_low_load():
    """Partitioning halves VC flexibility; at NUCA-like loads the cost
    must be small (which is why the paper could afford the design)."""
    def run(vc_by_class):
        network = Network(Mesh2D(6, 6, pitch_mm=1.0), vc_by_class=vc_by_class)
        from repro.traffic.synthetic import UniformRandomTraffic

        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=36, flit_rate=0.1, seed=7),
            warmup_cycles=300, measure_cycles=1500, drain_cycles=10000,
        )
        return sim.run().avg_latency

    partitioned = run(True)
    pooled = run(False)
    assert partitioned <= pooled * 1.15
