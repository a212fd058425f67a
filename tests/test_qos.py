"""QoS (priority-aware switch allocation) tests."""

import pytest

from repro.core.arch import make_3dme
from repro.noc.allocator import SwitchAllocator
from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass, data_packet
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import BaseTraffic, ScheduledTraffic
from tests.test_allocator import _sa


class TestPriorityAllocator:
    def test_high_priority_wins_stage2(self):
        sa = SwitchAllocator([3], 2)
        requests = [(0, 0, 2), (1, 0, 2)]
        priorities = {(0, 0): 0, (1, 0): 5}
        for _ in range(10):
            assert _sa(sa, requests, priorities) == [(1, 0, 2)]

    def test_high_priority_wins_stage1(self):
        sa = SwitchAllocator([3], 2)
        requests = [(0, 0, 1), (0, 1, 2)]
        priorities = {(0, 0): 1, (0, 1): 9}
        for _ in range(10):
            assert _sa(sa, requests, priorities) == [(0, 1, 2)]

    def test_equal_priority_round_robins(self):
        sa = SwitchAllocator([2], 1)
        requests = [(0, 0, 1), (1, 0, 1)]
        priorities = {(0, 0): 3, (1, 0): 3}
        winners = [_sa(sa, requests, priorities)[0][0] for _ in range(6)]
        assert set(winners) == {0, 1}

    def test_no_priorities_behaves_as_before(self):
        sa = SwitchAllocator([2], 1)
        requests = [(0, 0, 1), (1, 0, 1)]
        winners = [_sa(sa, requests, None)[0][0] for _ in range(4)]
        assert winners == [0, 1, 0, 1]

    def test_missing_priority_defaults_to_zero(self):
        sa = SwitchAllocator([2], 1)
        requests = [(0, 0, 1), (1, 0, 1)]
        assert _sa(sa, requests, {(1, 0): 2}) == [(1, 0, 1)]


class _TwoClassTraffic(BaseTraffic):
    """Two flows to one sink: priority 1 from node 0, priority 0 from 2."""

    def packets_for_cycle(self, cycle):
        if cycle >= 1500 or cycle % 2:
            return ()
        high = data_packet(0, 1, created_cycle=cycle)
        high.priority = 1
        low = data_packet(2, 1, created_cycle=cycle)
        low.priority = 0
        return [high, low]


def _run_two_class(qos_enabled):
    network = Network(Mesh2D(3, 1, pitch_mm=1.0), qos_enabled=qos_enabled)
    sim = Simulator(network, _TwoClassTraffic(), warmup_cycles=200,
                    measure_cycles=1200, drain_cycles=30000)
    sim.run()
    return network.stats


class TestQosEndToEnd:
    def test_priority_class_gets_lower_latency(self):
        stats = _run_two_class(qos_enabled=True)
        high = stats.avg_latency_for_priority(1)
        low = stats.avg_latency_for_priority(0)
        assert high < low

    def test_without_qos_classes_are_symmetric(self):
        stats = _run_two_class(qos_enabled=False)
        high = stats.avg_latency_for_priority(1)
        low = stats.avg_latency_for_priority(0)
        assert high == pytest.approx(low, rel=0.25)

    def test_qos_sharpens_the_gap(self):
        with_qos = _run_two_class(qos_enabled=True)
        without = _run_two_class(qos_enabled=False)
        gap_with = (
            with_qos.avg_latency_for_priority(0)
            - with_qos.avg_latency_for_priority(1)
        )
        gap_without = (
            without.avg_latency_for_priority(0)
            - without.avg_latency_for_priority(1)
        )
        assert gap_with > gap_without

    def test_low_priority_still_delivered(self):
        stats = _run_two_class(qos_enabled=True)
        assert len(stats.latencies_by_priority[0]) > 0
        assert stats.measured_outstanding == 0

    def test_qos_network_from_config(self):
        config = make_3dme()
        network = Network(
            config.build_topology(), qos_enabled=True,
            combined_st_lt=config.combined_st_lt,
        )
        packet = Packet(src=0, dst=5, size_flits=1, klass=PacketClass.CTRL,
                        created_cycle=0, priority=3)
        sim = Simulator(network, ScheduledTraffic([packet]),
                        warmup_cycles=0, measure_cycles=100, drain_cycles=200)
        result = sim.run()
        assert result.packets_delivered == 1
