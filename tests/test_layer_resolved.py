"""Layer-resolved datapath tests.

Four layers of confidence in the active-layer plumbing:

* detector agreement — :meth:`ShortFlitDetector.active_layers` matches
  :func:`~repro.traffic.patterns.flit_active_groups` on flits composed
  from every frequent-pattern-class combination, and the network-level
  detector sees every injected flit exactly once;
* differential — the per-active-layer-count event histograms sum back to
  the legacy raw totals bit-identically, and ``sum_k k*count[k]/L``
  reproduces the legacy ``*_weighted`` floats exactly (k/L is dyadic for
  L = 4, so ``==`` not ``approx``);
* simulated vs analytic — the layer-resolved power report's saving
  fraction agrees with the closed-form shutdown model evaluated at the
  *measured* short-flit fraction within 2% relative, and the
  layer-resolved dynamic power sums back to the legacy report;
* invariants downstream — sanitizer mask auditing, per-layer thermal
  maps, and timing neutrality (shutdown accounting never moves a flit).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.arch import make_2db, make_3dm, make_3dme
from repro.core.shutdown import ShortFlitDetector
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_uniform_point
from repro.noc.sanitizer import SanityError
from repro.noc.simulator import Simulator
from repro.noc.stats import EventCounts
from repro.power.gating import shutdown_saving
from repro.thermal.floorplan import floorplan_for
from repro.thermal.hotspot import temperature_drop
from repro.traffic.patterns import (
    WORD_MASK,
    WORDS_PER_FLIT,
    PatternKind,
    flit_active_groups,
)
from repro.traffic.synthetic import UniformRandomTraffic

#: One exemplar 32-bit word per frequent-pattern class (Fig. 1).
PATTERN_WORDS = {
    PatternKind.ZERO: 0,
    PatternKind.ONE: WORD_MASK,
    PatternKind.SIGN8: 0x7F,
    PatternKind.SIGN16: 0x1234,
    PatternKind.REPEATED: 0xABABABAB,
    PatternKind.RANDOM: 0xDEADBEEF,
}


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=4000,
        uniform_rates=(0.1,),
        nuca_rates=(0.1,),
        trace_cycles=5000,
        workloads=("tpcw",),
        seed=7,
    )


class TestDetectorAgreement:
    def test_every_pattern_class_combination(self):
        """Detector and word-level classifier agree on all 6^4 flits."""
        detector = ShortFlitDetector()
        flits = 0
        shorts = 0
        for combo in itertools.product(PatternKind, repeat=WORDS_PER_FLIT):
            words = [PATTERN_WORDS[kind] for kind in combo]
            expected = flit_active_groups(words)
            assert detector.active_layers(words) == expected, combo
            assert ShortFlitDetector().observe(expected) == (1 << expected) - 1
            flits += 1
            shorts += expected == 1
        assert detector.flits_seen == flits
        assert detector.short_flits == shorts
        assert detector.observed_short_fraction == pytest.approx(shorts / flits)

    def test_observe_rejects_zero_groups(self):
        with pytest.raises(ValueError):
            ShortFlitDetector().observe(0)

    def test_network_detector_sees_every_injected_flit(self):
        config = make_3dm()
        network = config.build_network(shutdown_enabled=True)
        sim = Simulator(
            network,
            UniformRandomTraffic(
                config.num_nodes, 0.1, short_flit_fraction=0.5, seed=3
            ),
            warmup_cycles=0,
            measure_cycles=400,
            drain_cycles=4000,
        )
        sim.run()
        detector = network.short_flit_detector
        # Observed at injection, so everything delivered was seen (flits
        # still queued at the drain cap are seen but not delivered).
        assert detector.flits_seen >= network.stats.flits_delivered > 0
        # Default packet mix: half control (1 short flit), half data
        # (short head + 4 payload flits short with probability s), so
        # the measured fraction is (1 + 2s)/3, not the nominal s.
        assert detector.observed_short_fraction == pytest.approx(
            (1 + 2 * 0.5) / 3, abs=0.05
        )


class TestLayerHistogramDifferential:
    @pytest.mark.parametrize("shutdown", [True, False])
    def test_histograms_sum_to_legacy_totals(self, settings, shutdown):
        point = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=shutdown,
        )
        events = point.sim.events
        groups = 4
        triples = [
            (events.buffer_writes, events.buffer_writes_by_layers,
             events.buffer_writes_weighted),
            (events.buffer_reads, events.buffer_reads_by_layers,
             events.buffer_reads_weighted),
            (events.xbar_traversals, events.xbar_traversals_by_layers,
             events.xbar_traversals_weighted),
        ]
        for raw, by_layers, weighted in triples:
            assert raw > 0
            assert set(by_layers) <= set(range(1, groups + 1))
            # Bit-identical: raw totals are ints, and k/groups is dyadic.
            assert sum(by_layers.values()) == raw
            assert sum(
                k * count / groups for k, count in by_layers.items()
            ) == weighted
        assert sum(events.flit_hops_by_layers.values()) == events.flit_hops
        # Weighted link mm from the pooled histogram equals the per-kind
        # legacy accumulation (float sums, so approx at tight tolerance).
        assert sum(
            k * mm / groups for k, mm in events.link_mm_by_layers.items()
        ) == pytest.approx(
            sum(events.link_mm_weighted.values()), rel=1e-9
        )
        if not shutdown:
            # Without shutdown every event drives all layers.
            for _, by_layers, _ in triples:
                assert set(by_layers) == {groups}

    def test_events_at_layer_is_exceedance(self):
        by_layers = {1: 10, 2: 5, 4: 2}
        assert EventCounts.events_at_layer(by_layers, 0) == 17
        assert EventCounts.events_at_layer(by_layers, 1) == 7
        assert EventCounts.events_at_layer(by_layers, 2) == 2
        assert EventCounts.events_at_layer(by_layers, 3) == 2
        assert EventCounts.events_at_layer(by_layers, 4) == 0
        # Total layer-events equals sum k*count.
        assert sum(
            EventCounts.events_at_layer(by_layers, layer)
            for layer in range(4)
        ) == sum(k * count for k, count in by_layers.items())

    def test_delta_and_copy_carry_layer_histograms(self, settings):
        point = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=True,
        )
        events = point.sim.events
        snap = events.copy()
        assert snap.buffer_writes_by_layers == events.buffer_writes_by_layers
        assert snap.buffer_writes_by_layers is not events.buffer_writes_by_layers
        delta = events.delta(snap)
        assert all(v == 0 for v in delta.buffer_writes_by_layers.values())


class TestSimulatedVsAnalytic:
    @pytest.mark.parametrize("config", [make_2db(), make_3dm(), make_3dme()],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("short_fraction", [0.25, 0.50])
    def test_agreement_at_measured_fraction(
        self, settings, config, short_fraction
    ):
        point = run_uniform_point(
            config, 0.1, settings,
            short_flit_fraction=short_fraction, shutdown_enabled=True,
        )
        events = point.sim.events
        measured = events.short_flit_hops / events.flit_hops
        simulated = point.layer_power.shutdown_saving_fraction
        analytic = shutdown_saving(config, measured).saving_fraction
        assert simulated == pytest.approx(analytic, rel=0.02)

    def test_layer_power_sums_to_legacy_report(self, settings):
        point = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=True,
        )
        lp = point.layer_power
        assert len(lp.layer_dynamic_w) == 4
        assert lp.dynamic_w == pytest.approx(point.power.dynamic_w, rel=1e-9)
        assert lp.leakage_w == pytest.approx(point.power.leakage_w, rel=1e-12)
        # Gating concentrates power in the always-on top layer.
        assert lp.layer_dynamic_w[0] > lp.layer_dynamic_w[-1] > 0
        assert 0.0 < lp.shutdown_saving_fraction < 1.0

    def test_layer_map_sums_to_total(self, settings):
        point = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=True,
        )
        rows = point.router_layer_power_per_node()
        assert len(rows) == make_3dm().num_nodes
        total = sum(sum(row) for row in rows)
        assert total == pytest.approx(point.layer_power.total_w, rel=1e-9)
        flat = point.router_power_per_node()
        assert sum(flat) == pytest.approx(total, rel=1e-6)


class TestDownstreamInvariants:
    def test_shutdown_accounting_is_timing_neutral(self, settings):
        """The layer mask and histograms are counters only: latency and
        throughput are bit-identical with shutdown on and off."""
        on = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=True,
        )
        off = run_uniform_point(
            make_3dm(), 0.15, settings,
            short_flit_fraction=0.5, shutdown_enabled=False,
        )
        assert on.sim.avg_latency == off.sim.avg_latency
        assert on.sim.avg_hops == off.sim.avg_hops
        assert on.sim.events.flit_hops == off.sim.events.flit_hops

    def test_sanitizer_validates_masks_on_clean_run(self):
        config = make_3dm()
        network = config.build_network(shutdown_enabled=True)
        sim = Simulator(
            network,
            UniformRandomTraffic(
                config.num_nodes, 0.1, short_flit_fraction=0.5, seed=9
            ),
            warmup_cycles=50,
            measure_cycles=300,
            drain_cycles=3000,
            sanitize=True,
        )
        result = sim.run()
        assert result.sanity.masks_checked > 0

    def test_sanitizer_catches_corrupted_mask(self):
        config = make_3dm()
        network = config.build_network(shutdown_enabled=True)
        sim = Simulator(
            network,
            UniformRandomTraffic(
                config.num_nodes, 0.25, short_flit_fraction=0.5, seed=5
            ),
            warmup_cycles=0,
            measure_cycles=300,
            drain_cycles=3000,
            sanitize=True,
        )
        victim = None
        for _ in range(300):
            sim._tick(generate=True)
            for router in network.routers:
                for fifo in router.vc_fifos:
                    if len(fifo):
                        victim = fifo[0]
                        break
                if victim is not None:
                    break
            if victim is not None:
                break
        assert victim is not None, "no buffered flit appeared in 300 cycles"
        victim.layer_mask = 0b101  # non-contiguous: bit 1 off, bit 2 on
        with pytest.raises(SanityError) as excinfo:
            network.sanitizer.audit(network.cycle)
        assert excinfo.value.check == "layer-mask"

    def test_floorplan_rejects_both_power_forms(self):
        config = make_3dm()
        n = config.num_nodes
        with pytest.raises(ValueError):
            floorplan_for(
                config,
                router_power_w=[0.1] * n,
                router_layer_power_w=[[0.025] * 4] * n,
            )

    def test_layer_maps_reach_thermal_solver(self):
        config = make_3dm()
        n = config.num_nodes
        base = [[0.08, 0.04, 0.04, 0.04] for _ in range(n)]
        reduced = [[0.08, 0.02, 0.02, 0.02] for _ in range(n)]
        drop = temperature_drop(
            config,
            router_layer_power_base_w=base,
            router_layer_power_reduced_w=reduced,
        )
        assert drop > 0

    def test_planar_floorplan_collapses_layer_map(self):
        config = make_2db()
        n = config.num_nodes
        rows = [[0.02, 0.01, 0.01, 0.01] for _ in range(n)]
        from_map = floorplan_for(config, router_layer_power_w=rows)
        from_flat = floorplan_for(
            config, router_power_w=[sum(row) for row in rows]
        )
        assert from_map.power_w.shape == from_flat.power_w.shape
        assert (from_map.power_w == from_flat.power_w).all()
