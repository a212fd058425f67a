"""Synthetic traffic generator tests."""

import pytest

from repro.noc.packet import PacketClass
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


def _collect(traffic, cycles):
    packets = []
    for cycle in range(cycles):
        packets.extend(traffic.packets_for_cycle(cycle))
    return packets


def test_rate_controls_offered_load():
    rate = 0.2
    traffic = UniformRandomTraffic(num_nodes=36, flit_rate=rate, seed=3)
    packets = _collect(traffic, 4000)
    flits = sum(p.size_flits for p in packets)
    measured = flits / (36 * 4000)
    assert measured == pytest.approx(rate, rel=0.1)


def test_destinations_never_equal_source():
    traffic = UniformRandomTraffic(num_nodes=9, flit_rate=0.5, seed=1)
    for packet in _collect(traffic, 500):
        assert packet.src != packet.dst


def test_destinations_cover_network():
    traffic = UniformRandomTraffic(num_nodes=9, flit_rate=0.9, seed=2)
    destinations = {p.dst for p in _collect(traffic, 2000)}
    assert destinations == set(range(9))


def test_data_fraction_controls_mix():
    traffic = UniformRandomTraffic(
        num_nodes=16, flit_rate=0.3, data_fraction=0.75, seed=4
    )
    packets = _collect(traffic, 3000)
    data = sum(p.klass is PacketClass.DATA for p in packets)
    assert data / len(packets) == pytest.approx(0.75, abs=0.05)


def test_short_flit_fraction_applies_to_payload():
    traffic = UniformRandomTraffic(
        num_nodes=16, flit_rate=0.3, data_fraction=1.0,
        short_flit_fraction=0.5, seed=5,
    )
    packets = _collect(traffic, 2000)
    payload_groups = [g for p in packets for g in p.payload_groups[1:]]
    short = sum(g == 1 for g in payload_groups)
    assert short / len(payload_groups) == pytest.approx(0.5, abs=0.05)


def test_zero_short_fraction_leaves_payload_default():
    traffic = UniformRandomTraffic(num_nodes=4, flit_rate=0.5, seed=6)
    for packet in _collect(traffic, 200):
        assert packet.payload_groups is None


def test_seed_reproducibility():
    a = _collect(UniformRandomTraffic(16, 0.2, seed=42), 500)
    b = _collect(UniformRandomTraffic(16, 0.2, seed=42), 500)
    assert [(p.src, p.dst, p.size_flits) for p in a] == [
        (p.src, p.dst, p.size_flits) for p in b
    ]


def test_different_seeds_differ():
    a = _collect(UniformRandomTraffic(16, 0.2, seed=1), 500)
    b = _collect(UniformRandomTraffic(16, 0.2, seed=2), 500)
    assert [(p.src, p.dst) for p in a] != [(p.src, p.dst) for p in b]


def test_nodes_restriction():
    traffic = UniformRandomTraffic(
        num_nodes=16, flit_rate=0.9, seed=1, nodes=[0, 1]
    )
    sources = {p.src for p in _collect(traffic, 500)}
    assert sources <= {0, 1}


def test_parameter_validation():
    with pytest.raises(ValueError):
        UniformRandomTraffic(num_nodes=1, flit_rate=0.1)
    with pytest.raises(ValueError):
        UniformRandomTraffic(num_nodes=4, flit_rate=0.0)
    with pytest.raises(ValueError):
        UniformRandomTraffic(num_nodes=4, flit_rate=0.1, data_fraction=1.5)


def test_scheduled_traffic_emits_at_creation_cycle():
    from repro.noc.packet import ctrl_packet

    packets = [ctrl_packet(0, 1, created_cycle=7), ctrl_packet(1, 0, created_cycle=7)]
    traffic = ScheduledTraffic(packets)
    assert list(traffic.packets_for_cycle(6)) == []
    assert len(list(traffic.packets_for_cycle(7))) == 2
    assert traffic.finished(8)
    assert not traffic.finished(7)
