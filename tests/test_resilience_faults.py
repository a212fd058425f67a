"""Fault-injector tests: plans, link kills, stuck VCs, drop accounting.

Covers the runtime damage machinery of :mod:`repro.resilience.faults`:
scheduled and seeded-random link kills in both failure modes, the
credit-confiscation ledger the sanitizer balances against, stuck-VC
freezing, graceful drop accounting (satellite: ``UnroutableError``
context + counted drops instead of aborts), and sanitize-clean injected
runs on every architecture family the injector touches.
"""

import pytest

from repro.core.arch import make_2db, make_3dm, make_3dme
from repro.noc.network import Network
from repro.noc.routing import UnroutableError
from repro.noc.simulator import Simulator
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    StuckVCFault,
)
from repro.traffic.base import ScheduledTraffic
from repro.topology.mesh2d import Mesh2D
from repro.traffic.synthetic import UniformRandomTraffic


def _sim(config, plan, *, rate=0.1, seed=11, measure=250, drain=2500,
         sanitize=True):
    network = config.build_network()
    return network, Simulator(
        network,
        UniformRandomTraffic(config.num_nodes, rate, seed=seed),
        warmup_cycles=50,
        measure_cycles=measure,
        drain_cycles=drain,
        sanitize=sanitize,
        faults=plan,
    )


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(links=(LinkFault(0, 0, 1),))
        assert FaultPlan(vcs=(StuckVCFault(0, 0, 0, 0),))

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(mode="soft")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(-1, 0, 1)
        with pytest.raises(ValueError):
            StuckVCFault(-1, 0, 0, 0)

    def test_random_links_deterministic_and_valid(self):
        topology = make_3dme().build_topology()
        plan = FaultPlan.random_links(topology, 4, seed=9, cycle=12,
                                      mode="drain")
        again = FaultPlan.random_links(topology, 4, seed=9, cycle=12,
                                       mode="drain")
        assert plan == again
        assert len(plan.links) == 4
        assert plan.mode == "drain"
        channels = {(link.src, link.dst) for link in topology.links}
        for fault in plan.links:
            assert fault.cycle == 12
            assert (fault.src, fault.dst) in channels
        # Distinct channels, different seed -> (almost surely) different.
        assert len({(f.src, f.dst) for f in plan.links}) == 4
        other = FaultPlan.random_links(topology, 4, seed=10)
        assert {(f.src, f.dst) for f in other.links} != {
            (f.src, f.dst) for f in plan.links
        }

    def test_random_links_overdraw_rejected(self):
        topology = make_2db().build_topology()
        with pytest.raises(ValueError):
            FaultPlan.random_links(topology, len(topology.links) + 1, seed=0)


class TestAttach:
    def test_attach_registers_and_rejects_double(self):
        network = make_2db().build_network()
        injector = FaultInjector(FaultPlan()).attach(network)
        assert network.fault_injector is injector
        with pytest.raises(RuntimeError):
            FaultInjector(FaultPlan()).attach(network)

    def test_express_mesh_gets_fault_aware_routing(self):
        """A kill on an express mesh rebuilds every router's row with
        the Sec. 3.3 steering: 0 -> 1 overshoots over the express
        sibling instead of dropping."""
        network = make_3dme().build_network()
        router = network.routers[0]
        rows = list(network.routes)
        assert network.routes[0][1] == router.port_index["E"]
        plan = FaultPlan(links=(LinkFault(0, 0, 1),), mode="drain")
        FaultInjector(plan).attach(network)
        network.step()
        assert network.routes[0][1] == router.port_index["EE"]
        # Rebuilt in place: the rows the router loop holds stay current.
        assert all(a is b for a, b in zip(rows, network.routes))

    def test_empty_plan_keeps_plain_routing(self):
        from repro.noc.routing import ExpressXYRouting

        network = make_3dme().build_network()
        FaultInjector(FaultPlan()).attach(network)
        network.step()
        assert isinstance(network.routing, ExpressXYRouting)
        assert network.routes == make_3dme().build_network().routes


def _out_vcs(network, link):
    """The global output VCs of *link*'s upstream port, as a slice."""
    first = network.unit_index(
        link.src, network.routers[link.src].port_index[link.src_port], 0
    )
    return slice(first, first + network.num_vcs)


class TestLinkKill:
    def test_scheduled_kill_applies_at_cycle(self):
        network = make_2db().build_network()
        link = network.topology.links[0]
        plan = FaultPlan(links=(LinkFault(5, link.src, link.dst),),
                         mode="drain")
        injector = FaultInjector(plan).attach(network)
        for _ in range(5):
            network.step()
        router = network.routers[link.src]
        row = network.routes[link.src]
        assert injector.failed == set()
        assert row[link.dst] == router.port_index[link.src_port]
        network.step()  # cycle 5 processes the event
        assert injector.failed == {(link.src, link.dst)}
        assert injector.links_killed == 1
        # X-Y cannot steer: the route onto the dead channel is a drop.
        assert row[link.dst] == -1

    def test_hard_mode_confiscates_held_credits(self):
        network = make_2db().build_network()
        link = network.topology.links[0]
        out_vcs = _out_vcs(network, link)
        held_before = sum(network.credits[out_vcs])
        assert held_before > 0  # idle network: all credits held upstream
        plan = FaultPlan(links=(LinkFault(0, link.src, link.dst),))
        injector = FaultInjector(plan).attach(network)
        network.step()
        assert injector.credits_confiscated == held_before
        assert sum(network.credits[out_vcs]) == 0
        assert sum(injector.confiscated.values()) == held_before
        assert injector.dead_credit_targets == set(
            range(out_vcs.start, out_vcs.stop)
        )

    def test_drain_mode_leaves_credits_alone(self):
        network = make_2db().build_network()
        link = network.topology.links[0]
        out_vcs = _out_vcs(network, link)
        held_before = network.credits[out_vcs]
        plan = FaultPlan(links=(LinkFault(0, link.src, link.dst),),
                         mode="drain")
        injector = FaultInjector(plan).attach(network)
        network.step()
        assert injector.credits_confiscated == 0
        assert network.credits[out_vcs] == held_before
        assert injector.dead_credit_targets == set()

    def test_duplicate_kill_is_idempotent(self):
        network = make_2db().build_network()
        link = network.topology.links[0]
        plan = FaultPlan(
            links=(
                LinkFault(0, link.src, link.dst),
                LinkFault(1, link.src, link.dst),
            ),
        )
        injector = FaultInjector(plan).attach(network)
        for _ in range(3):
            network.step()
        assert injector.links_killed == 1


class TestStuckVC:
    def test_freeze_survives_flit_reception(self):
        """Flits keep landing in a stuck unit (node 0's local VC 0, which
        takes the first injected packet) but none ever leaves it, and
        the unit stays held every cycle."""
        config = make_2db()
        network = config.build_network()
        plan = FaultPlan(vcs=(StuckVCFault(0, 0, 0, 0),))
        FaultInjector(plan).attach(network)
        sim = Simulator(
            network,
            UniformRandomTraffic(config.num_nodes, 0.2, seed=3),
            warmup_cycles=0,
            measure_cycles=100,
            drain_cycles=0,
        )
        fifo = network.vc_fifos[0]
        held = []
        for _ in range(100):
            sim._tick(generate=True)
            assert [id(flit) for flit in fifo][:len(held)] == held
            held = [id(flit) for flit in fifo]
            assert network.stuck == {0}
        assert held  # the first packet's flits landed and stayed

    def test_repeated_entry_counts_one_unit(self):
        """A unit named twice is held once and counted once."""
        network = Network(Mesh2D(3, 3, pitch_mm=1.0))
        fault = StuckVCFault(0, 4, 1, 0)
        injector = FaultInjector(FaultPlan(vcs=(fault, fault))).attach(network)
        network.step()
        assert network.stuck == {network.unit_index(4, 1, 0)}
        assert injector.vcs_stuck == 1
        assert injector.summary()["vcs_stuck"] == 1

    @pytest.mark.parametrize("plan, entry", [
        (FaultPlan(vcs=(StuckVCFault(0, -1, 0, 0),)), "stuck VC -1:0:0"),
        (FaultPlan(vcs=(StuckVCFault(0, 99, 0, 0),)), "stuck VC 99:0:0"),
        (FaultPlan(links=(LinkFault(0, 0, 5),)), "link fault 0:5"),
    ])
    def test_attach_rejects_entry_the_network_lacks(self, plan, entry):
        """A node outside the network (no wrap to the last router) or a
        channel it does not have is a ValueError naming the entry, at
        attach, before any cycle runs."""
        network = make_2db().build_network()
        with pytest.raises(ValueError, match=entry):
            FaultInjector(plan).attach(network)
        assert network.fault_injector is None

    def test_bad_port_or_vc_rejected(self):
        network = make_2db().build_network()
        bad_port = FaultPlan(vcs=(StuckVCFault(0, 0, 99, 0),))
        with pytest.raises(ValueError):
            FaultInjector(bad_port).attach(network)
            network.step()
        network2 = make_2db().build_network()
        bad_vc = FaultPlan(vcs=(StuckVCFault(0, 0, 0, 99),))
        with pytest.raises(ValueError):
            FaultInjector(bad_vc).attach(network2)
            network2.step()


class TestUnroutableContext:
    def test_error_carries_node_dst_and_failure_set(self):
        from repro.noc.routing import ExpressXYRouting
        from repro.noc.table_routing import build_route_table
        from repro.topology.express_mesh import ExpressMesh

        mesh = ExpressMesh(4, 4, pitch_mm=1.0, span=2)
        # Kill every eastward exit of the north-west corner node.
        corner = mesh.node_at((0, 0))
        dead = [
            (link.src, link.dst)
            for port, link in mesh.out_ports[corner].items()
            if port in ("E", "EE")
        ]
        routing = ExpressXYRouting(mesh)
        dst = mesh.node_at((3, 0))
        with pytest.raises(UnroutableError) as excinfo:
            routing.output_port(corner, dst, frozenset(dead))
        err = excinfo.value
        assert err.node == corner
        assert err.dst == dst
        assert err.failed == frozenset(dead)
        # The table builder stores the pair as unroutable.
        rows = build_route_table(mesh, routing, frozenset(dead))
        assert rows[corner][dst] == -1


class TestGracefulDrops:
    def test_unroutable_packets_become_counted_drops(self):
        """Kill both exits of a corner: traffic out of it drops, the run
        completes, the sanitizer stays green, and stats balance."""
        config = make_3dme(width=4, height=4)
        mesh = config.build_topology()
        corner = mesh.node_at((0, 0))
        dead = tuple(
            LinkFault(0, link.src, link.dst)
            for link in mesh.out_ports[corner].values()
            if link.dst != corner
        )
        plan = FaultPlan(links=dead, mode="drain")
        network, sim = _sim(config, plan, rate=0.1, measure=200)
        result = sim.run()
        stats = network.stats
        assert stats.packets_dropped > 0
        assert result.packets_dropped == stats.packets_dropped
        assert result.flits_dropped == stats.flits_dropped
        # Every drop is charged to the marooned corner node.
        assert set(stats.drops_by_node) == {corner}
        assert sum(stats.drops_by_node.values()) == stats.packets_dropped
        # The run still delivered the rest and audited clean.
        assert result.packets_delivered > 0
        assert result.sanity is not None
        assert result.sanity.audits > 0
        assert result.sanity.watchdog_reports == ()

    def test_drop_statistics_from_direct_enqueue(self):
        from repro.noc.packet import ctrl_packet

        config = make_3dme(width=4, height=4)
        network = config.build_network()
        mesh = network.topology
        corner = mesh.node_at((0, 0))
        dead = tuple(
            LinkFault(0, link.src, link.dst)
            for link in mesh.out_ports[corner].values()
            if link.dst != corner
        )
        FaultInjector(FaultPlan(links=dead, mode="drain")).attach(network)
        dst = mesh.node_at((2, 2))
        sim = Simulator(
            network,
            ScheduledTraffic([ctrl_packet(corner, dst, created_cycle=0)]),
            warmup_cycles=0,
            measure_cycles=10,
            drain_cycles=100,
        )
        sim.run()
        assert network.stats.packets_dropped == 1
        assert network.stats.packets_delivered == 0


class TestInjectedRunsSanitizeClean:
    @pytest.mark.parametrize("mode", ["hard", "drain"])
    def test_2db_single_link_kill(self, mode):
        config = make_2db()
        plan = FaultPlan.random_links(
            config.build_topology(), 1, seed=4, cycle=50, mode=mode
        )
        network, sim = _sim(config, plan)
        result = sim.run()
        assert result.fault_summary["links_killed"] == 1
        assert result.fault_summary["mode"] == mode
        assert result.sanity.audits > 0
        # Conservation ledger balances even with drops/wedged flits.
        stats = network.stats
        assert (
            stats.packets_injected
            >= stats.packets_delivered + stats.packets_dropped
        )

    def test_3dme_reroutes_without_drops_in_drain_mode(self):
        """Express siblings bypass two random dead links: everything
        still delivers (Sec. 3.3's fault-tolerance argument)."""
        config = make_3dme()
        plan = FaultPlan.random_links(
            config.build_topology(), 2, seed=4, cycle=50, mode="drain"
        )
        network, sim = _sim(config, plan)
        result = sim.run()
        assert result.fault_summary["links_killed"] == 2
        assert result.packets_dropped == 0
        assert not result.saturated
        assert result.sanity.watchdog_reports == ()

    def test_3dm_stuck_vc_wedges_but_audits_clean(self):
        config = make_3dm()
        plan = FaultPlan(vcs=(StuckVCFault(100, 7, 1, 0),))
        network, sim = _sim(config, plan, rate=0.15, drain=1500)
        result = sim.run()
        assert result.fault_summary["vcs_stuck"] == 1
        # Flits wedge behind the frozen VC: the drain cap is hit, but
        # every audit along the way passed (no exception => clean).
        assert result.saturated
        assert result.sanity.audits > 0

    def test_fault_summary_none_without_injector(self):
        config = make_2db()
        network, sim = _sim(config, None, measure=50, drain=500)
        result = sim.run()
        assert result.fault_summary is None
        assert network.fault_injector is None
