"""The next-port table every network routes from.

:func:`build_route_table` tabulates a routing rule, cuts routing cycles
and proves the channel dependency graph acyclic.  These tests pin that

* a table built from a rule *is* that rule (every entry, on the paper's
  configurations and on every substrate fabric),
* every entry is one plain ``int`` port index (or ``-1``), never the
  local port short of the destination, and
* a failure set whose steering would bounce packets between two nodes
  forever turns those pairs into counted drops, and a look-ahead route
  stamped before such a rebuild is recomputed.
"""

import pytest

from repro.core.arch import make_3dme, standard_configs
from repro.noc.network import Network
from repro.noc.packet import ctrl_packet
from repro.noc.router import VC_STATE_NAMES
from repro.noc.routing import UnroutableError, routing_for_topology
from repro.noc.simulator import Simulator
from repro.noc.table_routing import build_route_table, unroutable_pairs
from repro.resilience.faults import FaultPlan
from repro.topology.base import LOCAL_PORT
from repro.traffic.base import ScheduledTraffic
from tests.test_topology_substrate import FABRICS


def _assert_table_is_rule(topology, routing, rows):
    for node in range(topology.num_nodes):
        names = topology.port_names(node)
        index = {name: i for i, name in enumerate(names)}
        for dst in range(topology.num_nodes):
            entry = rows[node][dst]
            # One entry shape: a plain port index, or -1 for a drop.
            assert type(entry) is int, (node, dst, entry)
            assert -1 <= entry < len(names), (node, dst, entry)
            if node != dst:
                assert entry != index.get(LOCAL_PORT), (node, dst)
            try:
                expected = index[routing.output_port(node, dst)]
            except UnroutableError:
                expected = -1
            assert entry == expected, (node, dst)


class TestTableIsTheRule:
    @pytest.mark.parametrize(
        "config", standard_configs(), ids=lambda c: c.name
    )
    def test_standard_configs(self, config):
        network = config.build_network()
        _assert_table_is_rule(network.topology, network.routing, network.routes)

    @pytest.mark.parametrize(
        "build", [b for _, b in FABRICS], ids=[n for n, _ in FABRICS]
    )
    def test_every_fabric(self, build):
        network = Network(build())
        _assert_table_is_rule(network.topology, network.routing, network.routes)


#: On 3DM-E this seeded plan kills (3,9), (15,9) and (22,21).  Node 3's
#: overshoot for node 9 lands on 15, whose overshoot lands back on 3.
LIVELOCK_SEED = 29
LIVELOCK_PAIRS = sorted(
    (src, 9) for src in (*range(0, 6), *range(12, 18), *range(24, 30))
)


class TestLivelockBecomesDrops:
    def _plan(self, topology):
        return FaultPlan.random_links(
            topology, 3, seed=LIVELOCK_SEED, mode="drain"
        )

    def test_pairs_are_unroutable_in_the_table(self):
        topology = make_3dme().build_topology()
        plan = self._plan(topology)
        failed = frozenset((f.src, f.dst) for f in plan.links)
        assert failed == {(3, 9), (15, 9), (22, 21)}
        rows = build_route_table(
            topology, routing_for_topology(topology), failed
        )
        assert rows[3][9] == rows[15][9] == -1
        assert sorted(unroutable_pairs(topology, rows)) == LIVELOCK_PAIRS

    def test_packet_drops_instead_of_circling(self):
        config = make_3dme()
        network = config.build_network()
        sim = Simulator(
            network,
            ScheduledTraffic([ctrl_packet(0, 9, created_cycle=0)]),
            warmup_cycles=0,
            measure_cycles=10,
            drain_cycles=3000,
            sanitize=True,
            faults=self._plan(network.topology),
        )
        sim.run()
        assert network.stats.packets_dropped == 1
        assert network.stats.packets_delivered == 0
        assert network.idle()

    def test_stale_look_ahead_is_recomputed(self):
        """A head flit stamped with node 3's route before a rebuild that
        changed that entry goes back through RC instead of straight to
        VA, so it drops rather than cross the dead channel."""
        config = make_3dme().with_pipeline_options(lookahead_rc=True)
        network = config.build_network()
        router = network.routers[3]
        west = router.port_index["W"]

        def arrive(vc):
            flit = ctrl_packet(2, 9, created_cycle=0).make_flits()[0]
            flit.lookahead_port = stamp
            router.receive_flit(west, vc, flit, cycle=0)
            return VC_STATE_NAMES[
                network.vc_state[network.unit_index(3, west, vc)]
            ]

        stamp = network.routes[3][9]
        assert stamp == router.port_index["S"]
        assert arrive(0) == "va"
        network.reroute(frozenset({(3, 9), (15, 9)}))
        assert network.routes[3][9] == -1
        assert arrive(1) == "rc"
