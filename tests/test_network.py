"""Network-level tests: construction checks, delivery, conservation,
credits, callbacks and observer slots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arch import make_chiplet, make_ring, standard_configs
from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass, ctrl_packet, data_packet
from repro.noc.simulator import Simulator
from repro.resilience.faults import FaultInjector, FaultPlan, StuckVCFault
from repro.telemetry import NetworkTelemetry, TelemetryConfig, TraceRecorder
from repro.telemetry.attribution import StallAttribution
from repro.topology.base import LOCAL_PORT, LinkKind, LinkSpec
from repro.topology.express_mesh import ExpressMesh
from repro.topology.irregular import IrregularTopology, duplex
from repro.topology.mesh2d import Mesh2D
from repro.topology.mesh3d import Mesh3D
from repro.topology.torus import Torus2D
from repro.traffic.base import ScheduledTraffic


def _run_network(topology, packets, cycles=3000, **net_kwargs):
    network = Network(topology, **net_kwargs)
    sim = Simulator(
        network,
        ScheduledTraffic(packets),
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=cycles,
    )
    result = sim.run()
    return network, result


@pytest.mark.parametrize("topology, kwargs, message", [
    (Mesh2D(2, 1, pitch_mm=1.0), {"num_vcs": 1, "vc_by_class": True},
     "vc_by_class needs at least 2 virtual channels"),
    (Torus2D(4, 4, pitch_mm=1.0), {"vc_by_class": True},
     "vc_by_class cannot be combined with a routing VC discipline"),
    (Mesh2D(2, 1, pitch_mm=1.0), {"buffer_depth": 0},
     "buffer depth must be >= 1, got 0"),
    (Torus2D(4, 4, pitch_mm=1.0), {"num_vcs": 1},
     "routing function needs >= 2 virtual channels, got 1"),
], ids=["class-vcs-1", "class-on-torus", "depth-0", "torus-vcs-1"])
def test_bad_settings_rejected(topology, kwargs, message):
    with pytest.raises(ValueError, match=message):
        Network(topology, **kwargs)


@pytest.mark.parametrize("slot, attach", [
    ("attribution", StallAttribution),
    ("recorder", lambda network: TraceRecorder().attach(network)),
    ("telemetry", lambda network: NetworkTelemetry(
        network, TelemetryConfig(trace_capture=True, attribution=True)
    )),
    ("fault_injector", lambda network: FaultInjector(
        FaultPlan(vcs=(StuckVCFault(0, 4, 0, 0),))
    ).attach(network)),
])
def test_observer_attach_rebinds_no_router_attribute(slot, attach):
    """Each observer lives in its one network slot: attaching it binds
    no attribute of any router."""
    network = Network(Mesh2D(3, 3, pitch_mm=1.0))

    def bindings():
        return [
            {name: id(value) for name, value in vars(router).items()}
            for router in network.routers
        ]

    before = bindings()
    attach(network)
    assert getattr(network, slot) is not None
    assert bindings() == before


#: The six paper configurations, a ring, a chiplet, a torus and an
#: irregular graph.
BUILDS = [
    *(
        pytest.param(config.build_network, id=config.name)
        for config in standard_configs()
    ),
    pytest.param(lambda: make_ring().build_network(), id="ring"),
    pytest.param(lambda: make_chiplet().build_network(), id="chiplet"),
    pytest.param(lambda: Network(Torus2D(4, 3, pitch_mm=1.0)), id="torus"),
    pytest.param(lambda: Network(IrregularTopology(5, [
        *duplex(0, 1), *duplex(1, 2), *duplex(2, 3), *duplex(3, 0),
        *duplex(0, 2),
        # One-way links leave node 4 a port with no out-link and one
        # with no in-link.
        LinkSpec(3, 4, "P4", "P3", LinkKind.NORMAL, 1.0),
        LinkSpec(4, 1, "P1", "P4", LinkKind.NORMAL, 1.0),
    ]), num_vcs=3), id="irregular"),
]


@pytest.mark.parametrize("build", BUILDS)
def test_unit_indices_round_trip(build):
    """Global units number every router's (port, VC) pairs contiguously,
    ascending by node, and unit -> (node, port, vc) -> unit round-trips."""
    network = build()
    num_vcs = network.num_vcs
    unit = 0
    for node, router in enumerate(network.routers):
        num_ports = len(network.port_names[node])
        assert network.port_names[node] == network.topology.port_names(node)
        assert router.node == node
        assert router.units is network.node_units[node]
        assert router.units == range(unit, unit + num_ports * num_vcs)
        assert router.port_base * num_vcs == unit
        for port in range(num_ports):
            for vc in range(num_vcs):
                assert network.unit_index(node, port, vc) == unit
                assert network.unit_location(unit) == (node, port, vc)
                assert network.node_of_unit[unit] == node
                unit += 1
    assert unit == len(network.vc_state) == len(network.node_of_unit)
    assert len(network.link_units) == unit
    assert len(network.link_args) * num_vcs == unit


@pytest.mark.parametrize("build", BUILDS)
def test_link_tables_pair_every_link(build):
    """Every link's arrival target and credit returns point at each
    other, and a port without a link (the local port above all) has
    neither."""
    network = build()
    port_names = network.port_names
    num_vcs = network.num_vcs
    topology = network.topology
    for link in topology.links:
        out = network.unit_index(
            link.src, port_names[link.src].index(link.src_port), 0
        )
        target = network.unit_index(
            link.dst, port_names[link.dst].index(link.dst_port), 0
        )
        for vc in range(num_vcs):
            assert network.link_units[out + vc] == target + vc
            assert network.credit_returns[target + vc] == out + vc
    for node, units in enumerate(network.node_units):
        assert port_names[node][0] == LOCAL_PORT
        local = units.start // num_vcs
        assert network.link_units[
            local * num_vcs:(local + 1) * num_vcs
        ] == [None] * num_vcs
        assert network.credit_returns[
            local * num_vcs:(local + 1) * num_vcs
        ] == [None] * num_vcs
        # The ejection sink always accepts: its credits never move.
        assert network.credits[local * num_vcs:(local + 1) * num_vcs] == (
            [network.buffer_depth] * num_vcs
        )
    arrivals = credits = 0
    for out_vc, target in enumerate(network.link_units):
        if target is not None:
            arrivals += 1
            assert target % num_vcs == out_vc % num_vcs
            assert network.credit_returns[target] == out_vc
    for unit, upstream in enumerate(network.credit_returns):
        if upstream is not None:
            credits += 1
            assert upstream % num_vcs == unit % num_vcs
            assert network.link_units[upstream] == unit
    assert arrivals == len(topology.links) * num_vcs
    assert credits == len(topology.links) * num_vcs


def test_every_packet_delivered_exactly_once():
    packets = [ctrl_packet(i, (i + 7) % 12, created_cycle=i) for i in range(12)]
    network, _ = _run_network(Mesh2D(4, 3, pitch_mm=1.0), packets)
    for packet in packets:
        assert packet.delivered_cycle is not None
    assert network.stats.packets_delivered == 12


def test_network_idle_after_drain():
    packets = [data_packet(0, 8, created_cycle=0)]
    network, _ = _run_network(Mesh2D(3, 3, pitch_mm=1.0), packets)
    assert network.idle()
    assert network.in_flight() == 0


def test_flit_conservation():
    """Flits written into buffers equal flits read out after drain."""
    packets = [data_packet(i, (i + 5) % 9, created_cycle=2 * i) for i in range(9)]
    network, _ = _run_network(Mesh2D(3, 3, pitch_mm=1.0), packets)
    assert network.events.buffer_writes == network.events.buffer_reads


def test_credits_restored_after_drain():
    packets = [data_packet(0, 5, created_cycle=0), data_packet(5, 0, created_cycle=3)]
    network, _ = _run_network(Mesh2D(3, 2, pitch_mm=1.0), packets)
    for out_vc, value in enumerate(network.credits):
        if network.link_units[out_vc] is None:
            continue
        assert value == network.buffer_depth, (
            f"(node, port, vc) {network.unit_location(out_vc)} leaked credits"
        )


def test_out_vc_ownership_released():
    packets = [data_packet(0, 5, created_cycle=0)]
    network, _ = _run_network(Mesh2D(3, 2, pitch_mm=1.0), packets)
    assert all(owner is None for owner in network.out_owner)


def test_delivery_callback_invoked():
    seen = []
    network = Network(Mesh2D(3, 1, pitch_mm=1.0))
    network.delivery_callbacks.append(lambda p, c: seen.append((p.pid, c)))
    packet = ctrl_packet(0, 2, created_cycle=0)
    sim = Simulator(
        network, ScheduledTraffic([packet]), warmup_cycles=0,
        measure_cycles=100, drain_cycles=100,
    )
    sim.run()
    assert seen == [(packet.pid, packet.delivered_cycle)]


def test_packet_to_unknown_node_rejected():
    network = Network(Mesh2D(2, 2, pitch_mm=1.0))
    with pytest.raises(ValueError):
        network.enqueue_packet(ctrl_packet(0, 99, created_cycle=0))


def test_hops_counted_per_channel_traversal():
    packets = [ctrl_packet(0, 3, created_cycle=0)]
    _run_network(Mesh2D(4, 1, pitch_mm=1.0), packets)
    assert packets[0].hops == 3


def test_express_channel_reduces_hops():
    express_packet = ctrl_packet(0, 4, created_cycle=0)
    _run_network(ExpressMesh(6, 1, pitch_mm=1.0, span=2), [express_packet])
    assert express_packet.hops == 2


def test_3d_mesh_delivery():
    mesh = Mesh3D(3, 3, 4, pitch_mm=1.0)
    packets = [
        data_packet(mesh.node_at((0, 0, 0)), mesh.node_at((2, 2, 3)), created_cycle=0)
    ]
    _run_network(mesh, packets)
    assert packets[0].delivered_cycle is not None
    assert packets[0].hops == 2 + 2 + 3


def test_short_flit_hops_tracked():
    packet = data_packet(0, 2, created_cycle=0, payload_groups=[1, 1, 1, 4, 4])
    network, _ = _run_network(
        Mesh2D(3, 1, pitch_mm=1.0), [packet], shutdown_enabled=True
    )
    # 5 flits x 3 router traversals (the destination's ejection crossbar
    # counts too); 3 short flits (groups==1) x 3 routers.
    assert network.events.flit_hops == 15
    assert network.events.short_flit_hops == 9
    assert network.events.short_flit_fraction == pytest.approx(0.6)


def test_weighted_events_scale_with_active_groups():
    full = data_packet(0, 2, created_cycle=0, payload_groups=[4, 4, 4, 4, 4])
    net_full, _ = _run_network(
        Mesh2D(3, 1, pitch_mm=1.0), [full], shutdown_enabled=True
    )
    short = data_packet(0, 2, created_cycle=0, payload_groups=[1, 1, 1, 1, 1])
    net_short, _ = _run_network(
        Mesh2D(3, 1, pitch_mm=1.0), [short], shutdown_enabled=True
    )
    assert net_full.events.xbar_traversals == net_short.events.xbar_traversals
    assert net_short.events.xbar_traversals_weighted == pytest.approx(
        net_full.events.xbar_traversals_weighted / 4
    )


def test_weights_ignored_when_shutdown_disabled():
    short = data_packet(0, 2, created_cycle=0, payload_groups=[1, 1, 1, 1, 1])
    network, _ = _run_network(
        Mesh2D(3, 1, pitch_mm=1.0), [short], shutdown_enabled=False
    )
    assert network.events.xbar_traversals_weighted == pytest.approx(
        float(network.events.xbar_traversals)
    )


def test_link_traversals_by_kind():
    mesh = Mesh3D(2, 1, 2, pitch_mm=2.0)
    packet = ctrl_packet(mesh.node_at((0, 0, 0)), mesh.node_at((1, 0, 1)),
                         created_cycle=0)
    network, _ = _run_network(mesh, [packet])
    assert network.events.link_flits["normal"] == 1
    assert network.events.link_flits["vertical"] == 1
    assert network.events.link_mm_weighted["normal"] == pytest.approx(2.0)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 8), st.integers(0, 8),
            st.sampled_from([1, 5]), st.integers(0, 40),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_property_random_packet_sets_all_delivered(specs):
    """Any admissible packet set is fully delivered, flits conserved."""
    packets = [
        Packet(src=s, dst=d, size_flits=n,
               klass=PacketClass.DATA if n > 1 else PacketClass.CTRL,
               created_cycle=c)
        for s, d, n, c in specs
        if s != d
    ]
    if not packets:
        return
    network, _ = _run_network(Mesh2D(3, 3, pitch_mm=1.0), packets, cycles=5000)
    for packet in packets:
        assert packet.delivered_cycle is not None
        assert packet.latency > 0
    assert network.events.buffer_writes == network.events.buffer_reads
    assert network.idle()


class _Unreachable:
    """Stands in for ``network.routers``: any use of it raises."""

    def _fail(self, *args):
        raise AssertionError("network.routers was read")

    __getattr__ = __iter__ = __len__ = __getitem__ = __bool__ = _fail


def test_network_alone_holds_the_state_readers_need(monkeypatch):
    """Every reader of per-node state reads the network, not a router:
    with ``network.routers`` unusable, a point run with the profiler,
    the sanitizer, stall attribution, a trace recorder, a stuck VC plus
    a link kill and activity windows serializes to the same result as
    an untouched run."""
    import functools
    import hashlib

    from repro.core.arch import ArchitectureConfig, make_2db
    from repro.experiments import runner
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.store import (
        PointSpec, canonical_json, point_result_to_json,
    )

    spec = PointSpec(
        make_2db(), "uniform", 0.15,
        short_flit_fraction=0.5, shutdown_enabled=True,
        fault_links=((60, 0, 1),), fault_vcs=((40, 14, 1, 0),),
    )
    settings = ExperimentSettings(
        warmup_cycles=50, measure_cycles=300, drain_cycles=2000,
        uniform_rates=(), nuca_rates=(), trace_cycles=0, workloads=(),
    )
    monkeypatch.setattr(
        runner, "Simulator",
        functools.partial(runner.Simulator, sample_interval=64),
    )

    def digest() -> str:
        result = runner.run_point_spec(
            spec, settings,
            TelemetryConfig(interval=50, trace_capture=True, attribution=True),
            profile=True, sanitize=True,
        )
        sim = result.sim
        assert sim.activity_windows and sim.sanity.audits
        assert sim.telemetry.packets_traced and sim.telemetry.stall_report
        assert sim.fault_summary["links_killed"] == 1
        text = canonical_json([
            point_result_to_json(result), sim.sanity,
            sim.telemetry.stall_report,
        ])
        return hashlib.sha256(text.encode()).hexdigest()

    untouched = digest()
    build = ArchitectureConfig.build_network

    def build_without_routers(self, *args, **kwargs):
        network = build(self, *args, **kwargs)
        network.routers = _Unreachable()
        return network

    monkeypatch.setattr(
        ArchitectureConfig, "build_network", build_without_routers
    )
    assert digest() == untouched
