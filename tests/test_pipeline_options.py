"""Advanced router pipeline options (Fig. 8b/8c): cycle-exact behaviour."""

import pytest

from repro.core.arch import make_2db, make_3dm
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.noc.network import Network
from repro.noc.packet import ctrl_packet, data_packet
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.topology.express_mesh import ExpressMesh
from repro.topology.mesh3d import Mesh3D
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


def _latency(hops, *, spec=False, look=False, combined=False, width=6):
    packet = ctrl_packet(0, hops, created_cycle=0)
    network = Network(
        Mesh2D(width, 1, pitch_mm=1.0),
        combined_st_lt=combined,
        speculative_sa=spec,
        lookahead_rc=look,
    )
    sim = Simulator(network, ScheduledTraffic([packet]),
                    warmup_cycles=0, measure_cycles=200, drain_cycles=200)
    sim.run()
    return packet.latency


@pytest.mark.parametrize(
    "spec,look,combined,per_hop",
    [
        (False, False, False, 5),  # Fig. 8a
        (True, False, False, 4),   # Fig. 8b
        (True, True, False, 3),    # Fig. 8c
        (False, True, False, 4),   # look-ahead alone removes RC
        (True, True, True, 2),     # Fig. 8c + MIRA's ST+LT merge
    ],
)
def test_per_hop_cost(spec, look, combined, per_hop):
    one = _latency(1, spec=spec, look=look, combined=combined)
    four = _latency(4, spec=spec, look=look, combined=combined)
    assert (four - one) / 3 == per_hop


def test_speculative_sa_zero_load_no_contention_effect():
    """At zero load speculation always succeeds (Peh & Dally): one cycle
    saved per router traversal, including the ejection router."""
    assert _latency(3, spec=True) == _latency(3) - 4


def test_lookahead_route_correct_on_3d_mesh():
    mesh = Mesh3D(3, 3, 4, pitch_mm=1.0)
    src, dst = mesh.node_at((0, 0, 0)), mesh.node_at((2, 2, 3))
    packet = data_packet(src, dst, created_cycle=0)
    network = Network(mesh, lookahead_rc=True, speculative_sa=True)
    sim = Simulator(network, ScheduledTraffic([packet]),
                    warmup_cycles=0, measure_cycles=500, drain_cycles=500)
    sim.run()
    assert packet.delivered_cycle is not None
    assert packet.hops == 7


def test_lookahead_route_correct_on_express_mesh():
    mesh = ExpressMesh(6, 6, pitch_mm=1.0, span=2)
    packet = data_packet(0, 35, created_cycle=0)
    network = Network(mesh, lookahead_rc=True)
    sim = Simulator(network, ScheduledTraffic([packet]),
                    warmup_cycles=0, measure_cycles=500, drain_cycles=500)
    sim.run()
    assert packet.delivered_cycle is not None
    assert packet.hops == 6  # EE,EE,E + SS,SS,S


def test_lookahead_counts_rc_per_hop():
    packet = ctrl_packet(0, 3, created_cycle=0)
    network = Network(Mesh2D(4, 1, pitch_mm=1.0), lookahead_rc=True)
    sim = Simulator(network, ScheduledTraffic([packet]),
                    warmup_cycles=0, measure_cycles=200, drain_cycles=200)
    sim.run()
    # One RC at injection + one NRC per link traversal (3 links).
    assert network.events.rc_computations == 4


def test_advanced_pipeline_under_load_still_delivers_all():
    network = Network(
        Mesh2D(6, 6, pitch_mm=1.0), speculative_sa=True, lookahead_rc=True
    )
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=36, flit_rate=0.2, seed=3),
        warmup_cycles=200, measure_cycles=1500, drain_cycles=10000,
    )
    result = sim.run()
    assert not result.saturated
    # Open-loop traffic keeps injecting during drain: conservation means
    # unread writes are exactly the flits still buffered.
    buffered = sum(network.node_occupancy())
    assert network.events.buffer_writes - network.events.buffer_reads == buffered


def test_speculation_improves_latency_under_load():
    settings = ExperimentSettings(
        warmup_cycles=300, measure_cycles=1500, drain_cycles=8000,
        uniform_rates=(0.2,), nuca_rates=(0.1,), trace_cycles=5000,
        workloads=("tpcw",), seed=3,
    )
    base, spec, both = (
        run_point_spec(PointSpec(config, "uniform", 0.2), settings)
        for config in (
            make_2db(),
            make_2db().with_pipeline_options(speculative_sa=True),
            make_2db().with_pipeline_options(
                speculative_sa=True, lookahead_rc=True
            ),
        )
    )
    assert spec.avg_latency < base.avg_latency
    assert both.avg_latency < spec.avg_latency


def test_options_compose_with_3dm_merge():
    settings = ExperimentSettings(
        warmup_cycles=300, measure_cycles=1200, drain_cycles=8000,
        uniform_rates=(0.15,), nuca_rates=(0.1,), trace_cycles=5000,
        workloads=("tpcw",), seed=3,
    )
    merged, turbo = (
        run_point_spec(PointSpec(config, "uniform", 0.15), settings)
        for config in (
            make_3dm(),
            make_3dm().with_pipeline_options(
                speculative_sa=True, lookahead_rc=True
            ),
        )
    )
    assert turbo.avg_latency < merged.avg_latency
