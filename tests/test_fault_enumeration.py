"""Proof-by-enumeration: deadlock freedom under every single failure.

For every directed channel of a small express mesh, fail exactly that
channel and

1. rebuild the next-port table around it and check the channel
   dependency graph of that table acyclic (Dally & Seitz: acyclic CDG
   <=> deadlock-free wormhole routing; the builder proves the same), and
2. simulate one packet per still-routable pair with the sanitizer
   auditing every cycle and the deadlock watchdog armed: every routable
   pair must deliver, nothing may drop, no watchdog report may fire.

This turns Sec. 3.3's fault-tolerance claim from "the sims looked fine"
into an exhaustive check over the whole single-failure space of the
enumerated topology (routing-level proof on a larger mesh too).
"""

import pytest

from repro.core.fault import routable_under, single_failure_coverage
from repro.noc.network import Network
from repro.noc.packet import ctrl_packet
from repro.noc.routing import ExpressXYRouting
from repro.noc.sanitizer import NetworkSanitizer
from repro.noc.table_routing import build_route_table, unroutable_pairs
from repro.resilience.cdg import channel_dependency_graph, find_dependency_cycle
from repro.topology.base import LinkKind
from repro.topology.express_mesh import ExpressMesh

#: The exhaustively simulated mesh: small enough that (channels x
#: pairs) full sims stay fast, large enough to contain every failure
#: class (edge/interior, normal/express, x/y, both directions).
WIDTH, HEIGHT, SPAN = 3, 3, 2


def _mesh() -> ExpressMesh:
    return ExpressMesh(WIDTH, HEIGHT, pitch_mm=1.0, span=SPAN)


def _failable_channels(mesh: ExpressMesh):
    return sorted(
        (link.src, link.dst)
        for link in mesh.links
        if link.kind in (LinkKind.NORMAL, LinkKind.EXPRESS)
    )


MESH = _mesh()
CHANNELS = _failable_channels(MESH)


def _table(mesh, failed=()):
    return build_route_table(mesh, ExpressXYRouting(mesh), frozenset(failed))


def _routable_pairs(mesh, rows):
    """Ordered pairs the damaged table can still route, plus the set
    it drops."""
    unroutable = unroutable_pairs(mesh, rows)
    routable = [
        (src, dst)
        for src in range(mesh.num_nodes)
        for dst in range(mesh.num_nodes)
        if src != dst and (src, dst) not in unroutable
    ]
    return routable, unroutable


def test_enumeration_space_is_nontrivial():
    """The mesh really contains both failure classes in both axes."""
    kinds = {}
    for link in MESH.links:
        kinds[link.kind] = kinds.get(link.kind, 0) + 1
    assert kinds[LinkKind.NORMAL] == 2 * 2 * (WIDTH * HEIGHT - WIDTH)
    assert kinds[LinkKind.EXPRESS] > 0
    assert len(CHANNELS) == kinds[LinkKind.NORMAL] + kinds[LinkKind.EXPRESS]


def test_fault_free_cdg_is_acyclic():
    graph = channel_dependency_graph(MESH, _table(MESH))
    assert find_dependency_cycle(graph) is None


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda ch: f"{ch[0]}-{ch[1]}")
def test_single_failure_cdg_stays_acyclic(channel):
    """No single-channel failure can close a dependency cycle."""
    graph = channel_dependency_graph(MESH, _table(MESH, [channel]))
    cycle = find_dependency_cycle(graph)
    assert cycle is None, (
        f"failing channel {channel} closes the CDG cycle {cycle}"
    )
    # The failed channel itself carries no route.
    assert channel not in graph


@pytest.mark.parametrize("channel", CHANNELS, ids=lambda ch: f"{ch[0]}-{ch[1]}")
def test_single_failure_every_routable_pair_delivers(channel):
    """One packet per routable pair, sanitized every cycle: all arrive."""
    mesh = _mesh()
    routable, unroutable = _routable_pairs(mesh, _table(mesh, [channel]))
    assert routable, "a single failure can never disconnect everything"
    # routable_under agrees with the pairwise enumeration.
    assert routable_under(mesh, [channel]) == (not unroutable)

    network = Network(mesh)
    network.reroute(frozenset([channel]))
    network.sanitizer = NetworkSanitizer(network, watchdog_window=200)
    for src, dst in routable:
        network.enqueue_packet(ctrl_packet(src, dst, created_cycle=0))
    limit = 2000
    while network.cycle < limit and (
        network.stats.packets_delivered < len(routable)
    ):
        network.step()
        network.sanitizer.audit(network.cycle)
    assert network.stats.packets_delivered == len(routable), (
        f"channel {channel}: only {network.stats.packets_delivered} of "
        f"{len(routable)} routable pairs delivered within {limit} cycles"
    )
    assert network.stats.packets_dropped == 0
    assert network.sanitizer.watchdog_reports == []


def test_coverage_matches_enumeration():
    """single_failure_coverage agrees with the exhaustive pair check,
    and every express failure is tolerated (the normal sibling is
    always minimal)."""
    tolerated = sum(
        1 for channel in CHANNELS if routable_under(MESH, [channel])
    )
    assert single_failure_coverage(MESH) == tolerated / len(CHANNELS)
    by_channel = {
        (link.src, link.dst): link.kind
        for link in MESH.links
        if link.kind in (LinkKind.NORMAL, LinkKind.EXPRESS)
    }
    for channel in CHANNELS:
        if by_channel[channel] is LinkKind.EXPRESS:
            assert routable_under(MESH, [channel])


def test_larger_mesh_cdg_enumeration():
    """Routing-level proof scales: every single failure on a 4x4 span-2
    express mesh keeps the CDG acyclic too (no simulation here — the
    simulated proof runs on the 3x3)."""
    mesh = ExpressMesh(4, 4, pitch_mm=1.0, span=2)
    for channel in _failable_channels(mesh):
        graph = channel_dependency_graph(mesh, _table(mesh, [channel]))
        assert find_dependency_cycle(graph) is None, channel
