"""Router pipeline timing tests.

These pin down the cycle-level behaviour the paper's latency claims rest
on: a 4-stage + LT pipeline costs 5 cycles per hop, the merged ST+LT
organisation (Fig. 8d) costs 4, and wormhole body flits stream at one
flit per cycle.
"""

import pytest

from repro.noc.network import Network
from repro.noc.packet import ctrl_packet, data_packet
from repro.noc.router import _IDLE
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic


def _deliver(packets, combined, width=4, height=1, cycles=200):
    """Run packets through a small mesh; returns the packets."""
    network = Network(
        Mesh2D(width, height, pitch_mm=1.0),
        combined_st_lt=combined,
    )
    sim = Simulator(
        network,
        ScheduledTraffic(packets),
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=cycles,
    )
    sim.run()
    return packets


def test_single_hop_latency_split_pipeline():
    """One hop, 1-flit packet, no contention, unmerged ST/LT.

    Injection at cycle 0; source router RC@0,VA@1,SA@2, arrival ready at
    5; destination RC@5,VA@6,SA@7, ejected at 8.
    """
    (packet,) = _deliver([ctrl_packet(0, 1, created_cycle=0)], combined=False)
    assert packet.delivered_cycle == 8
    assert packet.latency == 8


def test_single_hop_latency_merged_pipeline():
    """Merging ST+LT saves one cycle on the router-to-router hop."""
    (packet,) = _deliver([ctrl_packet(0, 1, created_cycle=0)], combined=True)
    assert packet.delivered_cycle == 7


def test_per_hop_cost_split_vs_merged():
    """Each extra hop costs 5 cycles unmerged, 4 merged."""
    lat = {}
    for combined in (False, True):
        one = _deliver([ctrl_packet(0, 1, created_cycle=0)], combined)[0]
        three = _deliver([ctrl_packet(0, 3, created_cycle=0)], combined)[0]
        lat[combined] = (one.latency, three.latency)
    assert lat[False][1] - lat[False][0] == 2 * 5
    assert lat[True][1] - lat[True][0] == 2 * 4


def test_body_flits_stream_one_per_cycle():
    """A 5-flit packet's tail trails the head by exactly 4 cycles."""
    single = _deliver([ctrl_packet(0, 1, created_cycle=0)], combined=False)[0]
    data = _deliver([data_packet(0, 1, created_cycle=0)], combined=False)[0]
    assert data.latency == single.latency + 4


def test_hop_count_recorded(cfg_2db):
    (packet,) = _deliver([ctrl_packet(0, 3, created_cycle=0)], combined=False)
    assert packet.hops == 3


def test_contention_serialises_switch():
    """Two single-flit packets from different sources to one sink cannot
    eject in the same cycle (one local output port)."""
    packets = [
        ctrl_packet(0, 1, created_cycle=0),
        ctrl_packet(2, 1, created_cycle=0),
    ]
    _deliver(packets, combined=False)
    assert packets[0].delivered_cycle != packets[1].delivered_cycle


def test_vc_allows_packet_interleave_across_vcs():
    """Two data packets on crossing paths both complete (no deadlock)."""
    packets = [
        data_packet(0, 3, created_cycle=0),
        data_packet(3, 0, created_cycle=0),
    ]
    _deliver(packets, combined=False)
    for packet in packets:
        assert packet.delivered_cycle is not None


def test_router_busy_flag():
    network = Network(Mesh2D(3, 1, pitch_mm=1.0))
    units = network.routers[0].units
    assert not network._active.intersection(units)
    network.enqueue_packet(ctrl_packet(0, 2, created_cycle=0))
    network.step()
    assert network._active.intersection(units)


def test_router_occupancy_counts_buffered_flits():
    network = Network(Mesh2D(3, 1, pitch_mm=1.0))
    network.enqueue_packet(data_packet(0, 2, created_cycle=0))
    network.step()  # one flit injected into the local VC
    assert network.routers[0].occupancy() == 1


def test_wormhole_ordering_violation_detected():
    """Delivering a body flit to an idle VC raises (protocol guard)."""
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    router = network.routers[0]
    flits = data_packet(0, 1, created_cycle=0).make_flits()
    with pytest.raises(RuntimeError):
        router.receive_flit(router.local_port, 0, flits[1], cycle=0)


def test_credit_overflow_detected():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    router = network.routers[0]
    east = router.port_index["E"]
    with pytest.raises(RuntimeError):
        router.receive_credit(east, 0)  # already at full credits


def test_vc_fifos_start_empty():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=4)
    router = network.routers[0]
    assert router.occupancy() == 0
    assert all(not network.vc_fifos[i] for i in router.units)
    assert all(network.vc_state[i] == _IDLE for i in router.units)


def test_vc_fifo_keeps_arrival_order():
    """A VC's FIFO holds flits front first in arrival order, and the
    switch pops them in that order."""
    network = Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=8)
    network.sanitizer = None  # hand-fed flits bypass the injection ledger
    router = network.routers[0]
    flits = data_packet(0, 1, created_cycle=0).make_flits()
    for flit in flits:
        router.receive_flit(router.local_port, 0, flit, cycle=0)
    fifo = network.vc_fifos[network.unit_index(0, router.local_port, 0)]
    assert list(fifo) == flits
    popped = []
    for _ in range(40):
        front = fifo[0] if fifo else None
        before = len(fifo)
        network.step()
        if len(fifo) < before:  # at most one pop per cycle per VC
            popped.append(front)
    assert popped == flits


def test_receive_flit_overflow_raises():
    """Credit flow control should make overflow impossible; a flit past
    the buffer depth raises instead of being silently kept."""
    network = Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=2)
    router = network.routers[0]
    flits = data_packet(0, 1, created_cycle=0).make_flits()
    router.receive_flit(router.local_port, 0, flits[0], cycle=0)
    router.receive_flit(router.local_port, 0, flits[1], cycle=0)
    with pytest.raises(OverflowError):
        router.receive_flit(router.local_port, 0, flits[2], cycle=0)
    assert router.occupancy() == 2
