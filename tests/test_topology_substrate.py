"""The generic topology substrate: universal routability + deadlock proofs.

PR 9 proved deadlock freedom by enumeration for the fault-tolerant
express routing; this suite extends the same discipline to the whole
substrate.  Every fabric the registry can dispatch — the paper's
meshes, the torus, the new ring/chiplet/irregular fabrics, and a plain
base-class link list — is checked at several sizes for

1. **routability**: every ordered (src, dst) pair walks to its
   destination via :func:`~repro.core.express.route_path`,
2. **deadlock freedom**: the (VC-aware, when the routing carries a VC
   discipline) channel dependency graph of the next-port table is
   acyclic, and
3. **delivery**: one sanitized packet per pair on one representative of
   each new fabric family actually arrives in simulation.
"""

import json

import pytest

from repro.core.express import route_path
from repro.noc.network import Network
from repro.noc.packet import ctrl_packet
from repro.noc.routing import (
    RoutingBase,
    TorusXYRouting,
    XYRouting,
    register_routing,
    registered_routings,
    routing_for_topology,
)
from repro.noc.sanitizer import NetworkSanitizer
from repro.noc.table_routing import (
    DeadlockError,
    TableRouting,
    build_route_table,
)
from repro.resilience.cdg import (
    channel_dependency_graph,
    find_dependency_cycle,
    vc_channel_dependency_graph,
)
from repro.topology import (
    ChipletMesh,
    ExpressMesh,
    IrregularTopology,
    LinkKind,
    LinkSpec,
    Mesh2D,
    Mesh3D,
    Ring,
    Torus2D,
    Topology,
)
from repro.topology.base import LOCAL_PORT
from repro.topology.irregular import duplex


def _irregular_diamond() -> IrregularTopology:
    """4-node diamond with one chord — asymmetric degrees."""
    links = [
        *duplex(0, 1), *duplex(1, 2), *duplex(2, 3),
        *duplex(3, 0), *duplex(0, 2),
    ]
    return IrregularTopology(4, links)


def _irregular_dumbbell() -> IrregularTopology:
    """Two triangles joined by a single bridge — a cut edge."""
    links = [
        *duplex(0, 1), *duplex(1, 2), *duplex(2, 0),
        *duplex(3, 4), *duplex(4, 5), *duplex(5, 3),
        *duplex(2, 3),
    ]
    return IrregularTopology(6, links)


#: Every fabric family at several sizes; ids keep failures readable.
FABRICS = [
    ("mesh2d-3x3", lambda: Mesh2D(3, 3, 1.0)),
    ("mesh2d-4x2", lambda: Mesh2D(4, 2, 1.0)),
    ("mesh3d-2x2x2", lambda: Mesh3D(2, 2, 2, pitch_mm=1.0)),
    ("express-3x3", lambda: ExpressMesh(3, 3, 1.0, span=2)),
    ("torus-4x4", lambda: Torus2D(4, 4, 1.0)),
    ("ring-3", lambda: Ring(3, 1.0)),
    ("ring-6", lambda: Ring(6, 1.0)),
    ("ring-9", lambda: Ring(9, 1.0)),
    ("chiplet-3x3", lambda: ChipletMesh(3, 3, 1.0, hubs=1)),
    ("chiplet-4x4", lambda: ChipletMesh(4, 4, 1.0, hubs=2)),
    ("irregular-diamond", _irregular_diamond),
    ("irregular-dumbbell", _irregular_dumbbell),
    ("plain-pair", lambda: Topology(2, [
        LinkSpec(0, 1, "E", "W", LinkKind.NORMAL, 1.0),
        LinkSpec(1, 0, "W", "E", LinkKind.NORMAL, 1.0),
    ])),
]


@pytest.mark.parametrize(
    "build", [b for _, b in FABRICS], ids=[n for n, _ in FABRICS]
)
def test_every_pair_routes_to_destination(build):
    topology = build()
    routing = routing_for_topology(topology)
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            path = route_path(topology, src, dst, routing)
            assert path[0] == src and path[-1] == dst


@pytest.mark.parametrize(
    "build", [b for _, b in FABRICS], ids=[n for n, _ in FABRICS]
)
def test_dependency_graph_is_acyclic(build):
    """Dally & Seitz over the whole substrate, VC-aware where needed."""
    topology = build()
    routing = routing_for_topology(topology)
    rows = build_route_table(topology, routing)
    if routing.has_vc_discipline:
        graph = vc_channel_dependency_graph(
            topology, rows, routing, num_vcs=routing.required_vcs
        )
    else:
        graph = channel_dependency_graph(topology, rows)
    cycle = find_dependency_cycle(graph)
    assert cycle is None, f"dependency cycle: {cycle}"


@pytest.mark.parametrize(
    "build",
    [lambda: Ring(8, 1.0), lambda: ChipletMesh(4, 3, 1.0, hubs=1),
     _irregular_dumbbell],
    ids=["ring-8", "chiplet-4x3", "irregular-dumbbell"],
)
def test_one_sanitized_packet_per_pair_delivers(build):
    topology = build()
    network = Network(topology, num_vcs=2)
    network.sanitizer = NetworkSanitizer(network, watchdog_window=200)
    pairs = [
        (s, d)
        for s in range(topology.num_nodes)
        for d in range(topology.num_nodes)
        if s != d
    ]
    for src, dst in pairs:
        network.enqueue_packet(ctrl_packet(src, dst, created_cycle=0))
    limit = 3000
    while network.cycle < limit and (
        network.stats.packets_delivered < len(pairs)
    ):
        network.step()
        network.sanitizer.audit(network.cycle)
    assert network.stats.packets_delivered == len(pairs)
    assert network.stats.packets_dropped == 0
    assert network.sanitizer.watchdog_reports == []


class TestTableRouting:
    def test_construction_verifies_acyclic(self):
        """The network build proves the ring's escape table acyclic."""
        network = Network(Ring(8, 1.0))
        assert isinstance(network.routing, TableRouting)
        assert "TableRouting" in network.routing.describe()

    def test_ring_uses_escape_vcs(self):
        routing = TableRouting(Ring(8, 1.0))
        assert routing.mode == "escape"
        assert routing.required_vcs == 2
        assert routing.has_vc_discipline

    def test_tree_fabric_needs_one_vc(self):
        routing = TableRouting(ChipletMesh(3, 3, 1.0, hubs=1))
        assert routing.mode == "updown"
        assert routing.required_vcs == 1
        assert not routing.has_vc_discipline

    def test_router_rejects_insufficient_vcs(self):
        with pytest.raises(ValueError):
            Network(Ring(6, 1.0), num_vcs=1)

    def test_forced_updown_on_ring_detours(self):
        """Up*/down* covers a ring but cannot take every shortest path:
        the turn restriction forces detours around the root, which is
        exactly why auto mode prefers the escape scheme there."""
        free = TableRouting(Ring(8, 1.0))
        forced = TableRouting(Ring(8, 1.0), mode="updown")
        stretch = [
            forced.route_distance(s, d) - free.route_distance(s, d)
            for s in range(8)
            for d in range(8)
            if s != d
        ]
        assert min(stretch) >= 0 and max(stretch) > 0

    def test_unreachable_pairs_are_unroutable(self):
        from repro.noc.routing import UnroutableError

        one_way = IrregularTopology(3, [
            *duplex(0, 1),
            LinkSpec(1, 2, "P2", "P1", LinkKind.NORMAL, 1.0),
        ])
        routing = TableRouting(one_way)
        assert routing.output_port(0, 2) is not None
        with pytest.raises(UnroutableError):
            routing.output_port(2, 0)

    def test_deadlock_error_carries_cycle(self):
        """A deliberately cyclic rule — always clockwise round a ring,
        with no dateline VC split — is refused at network build."""
        topology = Ring(6, 1.0)

        class Clockwise(RoutingBase):
            def output_port(self, node, dst, failed=frozenset()):
                return LOCAL_PORT if node == dst else "CW"

        with pytest.raises(DeadlockError) as err:
            Network(topology, routing=Clockwise())
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert sorted(set(cycle)) == [(i, (i + 1) % 6) for i in range(6)]


class TestRegistry:
    def test_dispatch_prefers_most_derived(self):
        assert isinstance(routing_for_topology(Mesh2D(3, 3, 1.0)), XYRouting)
        assert isinstance(
            routing_for_topology(Torus2D(4, 4, 1.0)), TorusXYRouting
        )
        assert isinstance(routing_for_topology(Ring(4, 1.0)), TableRouting)

    def test_subclass_inherits_registration(self):
        class DecoratedMesh(Mesh2D):
            pass

        assert isinstance(
            routing_for_topology(DecoratedMesh(3, 3, 1.0)), XYRouting
        )

    def test_custom_registration_wins_and_lists(self):
        class BounceRouting(RoutingBase):
            def __init__(self, topology):
                self.inner = TableRouting(topology)

            def output_port(self, node, dst):
                return self.inner.output_port(node, dst)

        class BouncyRing(Ring):
            pass

        register_routing(BouncyRing, BounceRouting)
        try:
            assert isinstance(
                routing_for_topology(BouncyRing(4, 1.0)), BounceRouting
            )
            assert BouncyRing in registered_routings()
        finally:
            from repro.noc import routing as routing_mod

            routing_mod._ROUTING_REGISTRY.pop(BouncyRing, None)

    def test_non_topology_rejected(self):
        with pytest.raises(TypeError):
            routing_for_topology(42)


class TestChipletMesh:
    def test_heterogeneous_radix(self):
        topology = ChipletMesh(6, 6, 1.0, hubs=2)
        radii = {
            node: 1 + len(topology.neighbors(node))
            for node in range(topology.num_nodes)
        }
        assert topology.max_radix() == 6  # hub-attached interior tile
        assert radii[topology.num_tiles] == 5  # hub: local + 4 tiles
        assert radii[0] == 3  # corner tile untouched by hubs

    def test_hubs_claim_disjoint_tiles(self):
        topology = ChipletMesh(6, 6, 1.0, hubs=3)
        claimed = [t for tiles in topology.hub_tiles.values() for t in tiles]
        assert len(claimed) == len(set(claimed))
        assert all(not topology.is_hub(t) for t in claimed)


class TestIrregularJson:
    def test_round_trip(self, tmp_path):
        original = _irregular_dumbbell()
        path = original.to_json(tmp_path / "graph.json")
        loaded = IrregularTopology.from_json(path)
        assert loaded.num_nodes == original.num_nodes
        assert loaded.links == original.links

    def test_config_digest_detects_edits(self, tmp_path):
        from repro.core.arch import make_irregular

        path = _irregular_diamond().to_json(tmp_path / "graph.json")
        config = make_irregular(str(path), num_cpus=2)
        config.build_topology()  # digest matches
        data = json.loads(path.read_text())
        data["links"] = data["links"][:-2]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="changed since"):
            config.build_topology()

    def test_malformed_json_reports_source(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="bad.json"):
            IrregularTopology.from_json(path)
        path.write_text(json.dumps({"num_nodes": 2}))
        with pytest.raises(ValueError, match="num_nodes"):
            IrregularTopology.from_json(path)
