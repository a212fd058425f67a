"""Trace-path tests: per-flit counts and hook removal.

Per-node flit counts come from ``Network.node_flits_switched``; packet stage
events come from a ``TraceRecorder`` in the network's one recorder
slot, attached by ``TraceRecorder.attach`` or by ``NetworkTelemetry``.
The recorder's route checks live in ``test_trace_recorder.TestAttach``.
"""

import pytest

from repro.noc.network import Network
from repro.noc.packet import ctrl_packet, data_packet
from repro.noc.simulator import Simulator
from repro.telemetry import NetworkTelemetry, TelemetryConfig, TraceRecorder
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic


def _run(network, packets):
    Simulator(network, ScheduledTraffic(packets), warmup_cycles=0,
              measure_cycles=300, drain_cycles=2000).run()


def _switched_by_node(network):
    return {node: flits
            for node, flits in enumerate(network.node_flits_switched())
            if flits}


def test_events_cover_all_flits():
    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    _run(network, [data_packet(0, 3, created_cycle=0)])
    # 5 flits x 4 routers (incl. ejection router) = 20 traversals.
    assert sum(_switched_by_node(network).values()) == 20


def test_utilization_by_node():
    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    _run(network, [ctrl_packet(0, 3, created_cycle=0)])
    assert _switched_by_node(network) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_detach_stops_recording():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    recorder = TraceRecorder().attach(network)
    assert network.recorder is recorder
    with pytest.raises(RuntimeError, match="already attached"):
        recorder.attach(network)
    with pytest.raises(RuntimeError, match="already has a trace recorder"):
        TraceRecorder().attach(network)
    recorder.detach()
    assert network.recorder is None
    recorder.detach()  # idempotent
    _run(network, [ctrl_packet(0, 1, created_cycle=0)])
    assert recorder.events_recorded == 0


def test_context_manager_detaches():
    network = Network(Mesh2D(2, 1, pitch_mm=1.0))
    with NetworkTelemetry(network, TelemetryConfig(trace_capture=True)) as tel:
        recorder = tel._recorder
        assert network.recorder is recorder
    assert network.recorder is None
