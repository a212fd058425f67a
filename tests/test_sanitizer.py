"""NoC sanitizer tests: clean runs, seeded faults, watchdog.

Three layers:

* clean runs — every standard architecture, uniform (low and
  near-saturation) and NUCA traffic, with the sanitizer auditing every
  cycle: nothing may raise, and sanitized runs must be bit-identical to
  bare runs (the sanitizer never mutates state);
* seeded faults — corrupt a credit counter, drop a buffered flit, wedge
  a VC: the audit must catch each one and attribute it to the exact
  (cycle, node, port, VC, packet);
* plumbing — snapshot wiring through SimulationResult, interval gating,
  argument validation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.arch import make_2db, make_3dme, standard_configs
from repro.noc.sanitizer import (
    NetworkSanitizer,
    SanityError,
    SanitySnapshot,
    WatchdogReport,
)
from repro.noc.simulator import Simulator
from repro.traffic.nuca import NucaUniformTraffic
from repro.traffic.synthetic import UniformRandomTraffic

CONFIGS = {config.name: config for config in standard_configs()}


def _uniform_sim(config, rate, *, seed=11, measure=250, drain=2500,
                 interval=1):
    network = config.build_network()
    return Simulator(
        network,
        UniformRandomTraffic(config.num_nodes, rate, seed=seed),
        warmup_cycles=50,
        measure_cycles=measure,
        drain_cycles=drain,
        sanitize=True,
        sanitize_interval=interval,
    )


def _warmed_network(rate=0.25, cycles=300, seed=5, **sanitizer_kwargs):
    """A 2DB network driven *cycles* cycles with live traffic, with a
    manually attached sanitizer (so tests can corrupt state and audit)."""
    config = make_2db()
    network = config.build_network()
    network.sanitizer = NetworkSanitizer(network, **sanitizer_kwargs)
    sim = Simulator(
        network,
        UniformRandomTraffic(config.num_nodes, rate, seed=seed),
        warmup_cycles=0,
        measure_cycles=max(cycles, 1),
        drain_cycles=4000,
    )
    for _ in range(cycles):
        sim._tick(generate=True)
    return network, sim


class TestCleanRuns:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_uniform_low_load(self, name):
        result = _uniform_sim(CONFIGS[name], 0.05).run()
        assert isinstance(result.sanity, SanitySnapshot)
        assert result.sanity.audits > 0
        assert result.sanity.flits_checked > 0
        assert result.sanity.credits_checked > 0

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_uniform_near_saturation(self, name):
        result = _uniform_sim(
            CONFIGS[name], 0.32, measure=250, drain=1200, interval=5
        ).run()
        assert result.sanity.audits > 0
        assert result.sanity.vcs_checked > 0

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_nuca_traffic(self, name):
        config = CONFIGS[name]
        network = config.build_network()
        sim = Simulator(
            network,
            NucaUniformTraffic(
                cpu_nodes=config.cpu_nodes,
                cache_nodes=config.cache_nodes,
                request_rate=0.1,
                seed=13,
            ),
            warmup_cycles=50,
            measure_cycles=250,
            drain_cycles=2500,
            sanitize=True,
        )
        result = sim.run()
        assert result.sanity.audits > 0

    def test_sanitized_run_bit_identical_to_bare(self):
        config = make_2db()

        def run(sanitize):
            network = config.build_network()
            network.sanitizer = None  # isolate from REPRO_SANITIZE runs
            sim = Simulator(
                network,
                UniformRandomTraffic(config.num_nodes, 0.2, seed=21),
                warmup_cycles=100,
                measure_cycles=400,
                drain_cycles=4000,
                sanitize=sanitize,
            )
            return sim.run()

        bare, sanitized = run(False), run(True)
        assert bare.sanity is None
        assert sanitized.sanity is not None
        assert sanitized.avg_latency == bare.avg_latency
        assert sanitized.cycles == bare.cycles
        assert sanitized.flits_delivered == bare.flits_delivered
        assert sanitized.packets_delivered == bare.packets_delivered

    def test_profiler_reports_sanitize_phase(self):
        config = make_2db()
        sim = Simulator(
            config.build_network(),
            UniformRandomTraffic(config.num_nodes, 0.1, seed=3),
            warmup_cycles=20,
            measure_cycles=100,
            drain_cycles=2000,
            profile=True,
            sanitize=True,
        )
        result = sim.run()
        assert result.profile.phase_wall_s["sanitize"] > 0.0


class TestSeededFaults:
    def test_corrupted_credit_counter_attributed(self):
        network, _ = _warmed_network()
        out = next(
            out_vc // network.num_vcs
            for out_vc, target in enumerate(network.link_units)
            if target is not None
        )
        node, port, _ = network.unit_location(out * network.num_vcs)
        network.credits[out * network.num_vcs] += 1  # phantom credit on VC 0

        with pytest.raises(SanityError) as excinfo:
            network.sanitizer.audit(network.cycle)
        err = excinfo.value
        assert err.check == "credit-accounting"
        assert err.cycle == network.cycle
        assert err.node == node
        assert err.port == port
        assert err.port_name == network.port_names[node][port]
        assert err.vc == 0
        assert f"node {node}" in str(err)

    def test_router_missing_from_active_set_attributed(self):
        network, _ = _warmed_network()
        unit = min(u for u in network._active if network.vc_fifos[u])
        network._active.discard(unit)

        with pytest.raises(SanityError) as excinfo:
            network.sanitizer.audit(network.cycle)
        err = excinfo.value
        assert err.check == "vc-state"
        assert (err.node, err.port, err.vc) == network.unit_location(unit)
        assert "stranded" in str(err)

    @pytest.mark.parametrize(
        "allocator, pointers, label",
        [
            ("_va", "va1", "VA1 arbiter for input VC"),
            ("_va", "va2", "VA2 arbiter for output VC"),
            ("_sa", "sa1", "SA1 arbiter for input port"),
            ("_sa", "sa2", "SA2 arbiter for output port"),
        ],
    )
    @pytest.mark.parametrize("bad", ["size", -1, True])
    def test_corrupted_allocator_pointer_attributed(
        self, allocator, pointers, label, bad
    ):
        network, _ = _warmed_network(cycles=20)
        network.sanitizer.audit(network.cycle)  # healthy so far
        node = 7
        units = network.node_units[node]
        num_vcs = network.num_vcs
        num_ports = len(units) // num_vcs
        last_port = units.stop // num_vcs - 1
        flat = getattr(getattr(network, allocator), pointers)
        # Router 7's last arbiter of this stage, and the size of the
        # range its pointer must stay in.
        last, size = {
            "va1": (units[-1], num_vcs),
            "va2": (units[-1], len(units)),
            "sa1": (last_port, num_vcs),
            "sa2": (last_port, num_ports),
        }[pointers]
        # One past the end, negative, or a bool (an int subclass that
        # must not pass for a pointer).
        flat[last] = size if bad == "size" else bad

        with pytest.raises(SanityError) as excinfo:
            network.sanitizer.audit(network.cycle)
        err = excinfo.value
        assert err.check == "allocator-state"
        assert err.node == node
        assert label in str(err)
        assert f"node {node}" in str(err)

    def test_dropped_flit_attributed(self):
        network, sim = _warmed_network(rate=0.3, cycles=0, seed=9)

        def droppable():
            for unit, flits in enumerate(network.vc_fifos):
                # An interior flit flanked by same-packet neighbours:
                # removing it leaves the seq gap inside this buffer, so
                # the audit can attribute it exactly.
                for i in range(1, len(flits) - 1):
                    if (flits[i - 1].packet.pid == flits[i].packet.pid
                            == flits[i + 1].packet.pid):
                        return unit, i
            return None

        found = None
        for _ in range(2000):
            sim._tick(generate=True)
            found = droppable()
            if found:
                break
        assert found, "traffic never built a 3-flit same-packet run"
        unit, index = found
        victim = network.vc_fifos[unit][index]
        del network.vc_fifos[unit][index]
        node, port, vc = network.unit_location(unit)

        with pytest.raises(SanityError) as excinfo:
            network.sanitizer.audit(network.cycle)
        err = excinfo.value
        assert err.check == "flit-conservation"
        assert "gap" in str(err)
        assert err.cycle == network.cycle
        assert err.node == node
        assert err.port == port
        assert err.port_name == network.port_names[node][port]
        assert err.vc == vc
        assert err.pid == victim.packet.pid

    def test_wedged_vc_produces_watchdog_report(self):
        network, sim = _warmed_network(
            rate=0.2, cycles=250, seed=7, watchdog_window=120
        )
        wedged = next(
            unit for unit, fifo in enumerate(network.vc_fifos) if len(fifo) > 0
        )
        wedged_node, wedged_port, wedged_vc = network.unit_location(wedged)
        network.stuck.add(wedged)  # a stuck-VC fault: it never advances again

        # Stop generating; everything not stuck behind the wedge drains,
        # then deliveries cease and the watchdog window starts counting.
        for _ in range(800):
            sim._tick(generate=False)

        reports = network.sanitizer.watchdog_reports
        assert len(reports) == 1  # one stall, one report (no spam)
        report = reports[0]
        assert isinstance(report, WatchdogReport)
        assert report.stalled_cycles >= 120
        assert report.flits_in_network > 0
        assert any(
            s.node == wedged_node
            and (s.port, s.vc) == (wedged_port, wedged_vc)
            for s in report.stalled_vcs
        )
        assert report.flit_hops_in_window == 0
        assert "suspected deadlock" in report.format()
        # The report rides along on the snapshot / SimulationResult.
        snap = network.sanitizer.snapshot()
        assert snap.watchdog_reports == (report,)
        assert "watchdog" in snap.format()

    def test_watchdog_does_not_fire_on_healthy_drain(self):
        network, sim = _warmed_network(
            rate=0.15, cycles=200, seed=3, watchdog_window=120
        )
        for _ in range(800):
            sim._tick(generate=False)
        assert network.idle()
        assert network.sanitizer.watchdog_reports == []


class TestPlumbing:
    def test_unsanitized_result_has_no_snapshot(self):
        config = make_2db()
        network = config.build_network()
        network.sanitizer = None  # isolate from REPRO_SANITIZE runs
        sim = Simulator(
            network,
            UniformRandomTraffic(config.num_nodes, 0.05, seed=2),
            warmup_cycles=10,
            measure_cycles=50,
            drain_cycles=1000,
        )
        result = sim.run()
        assert result.sanity is None
        assert sim.network.sanitizer is None

    def test_interval_gates_audit_frequency(self):
        network, _ = _warmed_network(cycles=200, interval=10)
        every_cycle, _ = _warmed_network(cycles=200, interval=1)
        assert 0 < network.sanitizer.audits <= 21
        assert every_cycle.sanitizer.audits == 200

    def test_simulator_keeps_existing_sanitizer(self):
        config = make_3dme()
        network = config.build_network()
        own = NetworkSanitizer(network, interval=4)
        network.sanitizer = own
        sim = Simulator(
            network,
            UniformRandomTraffic(config.num_nodes, 0.05, seed=2),
            warmup_cycles=5,
            measure_cycles=20,
            drain_cycles=500,
            sanitize=True,
        )
        assert network.sanitizer is own
        assert sim.network.sanitizer.interval == 4

    def test_snapshot_format_mentions_counts(self):
        network, _ = _warmed_network(cycles=50)
        text = network.sanitizer.snapshot().format()
        assert "audits run" in text
        assert "flits checked" in text
        assert "watchdog reports" in text

    def test_validation(self):
        network = make_2db().build_network()
        with pytest.raises(ValueError):
            NetworkSanitizer(network, interval=0)
        with pytest.raises(ValueError):
            NetworkSanitizer(network, watchdog_window=0)

    def test_cli_sanitize_flag(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main([
            "simulate", "--arch", "2DB", "--rate", "0.05",
            "--sanitize", "--sanitize-interval", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "sanitizer" in out
        assert "audits run" in out

    def test_sanity_error_location_formatting(self):
        err = SanityError(
            "credit-accounting", "boom", 42,
            node=3, port=1, port_name="E", vc=2, pid=77,
        )
        text = str(err)
        assert "[credit-accounting] cycle 42" in text
        assert "node 3" in text
        assert "port 'E'" in text
        assert "vc 2" in text
        assert "pid 77" in text


@pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE", "") in ("", "0"),
    reason="checks the REPRO_SANITIZE suite fixture",
)
def test_sanitize_env_attaches_to_every_network():
    """Under ``REPRO_SANITIZE`` every freshly built network audits, so
    the sanitized suite run cannot pass without auditing."""
    from repro.noc.network import Network
    from repro.topology.mesh2d import Mesh2D

    interval = int(os.environ.get("REPRO_SANITIZE_INTERVAL", "1"))
    for network in (make_2db().build_network(), Network(Mesh2D(2, 2, 1.0))):
        assert isinstance(network.sanitizer, NetworkSanitizer)
        assert network.sanitizer.interval == interval
