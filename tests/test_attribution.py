"""Stall attribution + latency decomposition (congestion forensics).

Three layers of guarantees:

* **Bit identity** — running with attribution (and full lifecycle
  capture) attached reproduces the committed golden e2e digests on all
  six architectures: the observability layer reads, never perturbs.
* **Conservation** — every completely captured packet's decomposition
  components (queue + per-stage waits + link transit + serialization)
  sum to its measured latency *exactly*, as an algebraic identity.
* **Accounting invariants** — the flat counters, their per-node /
  per-link / per-layer rollups, and the report built from them agree
  with each other.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.arch import make_3dm
from repro.noc.router import NUM_STALL_CAUSES, STALL_CAUSE_NAMES
from repro.noc.simulator import Simulator
from repro.telemetry import (
    StallAttribution,
    TelemetryConfig,
    build_stall_report,
    decompose_life,
    decompose_recorder,
    format_stall_report,
)
from repro.telemetry.export import HopRecord, PacketLife
from repro.traffic.synthetic import UniformRandomTraffic

from tests.test_golden_e2e import CASES, FIXTURE, SETTINGS, compute_digest


def _forensics_config() -> TelemetryConfig:
    """Attribution plus full in-memory lifecycle capture (no files)."""
    return TelemetryConfig(
        interval=100,
        attribution=True,
        trace_capture=True,
        trace_sample_rate=1.0,
    )


@pytest.fixture(scope="module")
def golden_digests():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


@pytest.fixture(scope="module")
def forensic_points():
    """Every golden case re-run with attribution + capture attached."""
    from repro.experiments.runner import run_point_spec

    return {
        name: run_point_spec(spec, SETTINGS, telemetry=_forensics_config())
        for name, spec in CASES.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_attribution_is_bit_identical_to_golden(
    name, forensic_points, golden_digests
):
    """The differential guarantee: attribution on == attribution off,
    down to the digest, on every architecture."""
    assert compute_digest(forensic_points[name]) == (
        golden_digests[name]["digest"]
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_decomposition_conserves_latency_exactly(name, forensic_points):
    point = forensic_points[name]
    snapshot = point.sim.telemetry
    report = snapshot.stall_report
    assert report is not None
    decomp = report["decomposition"]
    assert decomp is not None
    assert decomp["packets"] > 0
    # Exact conservation for every single decomposed packet — not on
    # average, not approximately.
    assert decomp["conservation_exact"] == decomp["packets"]
    assert sum(decomp["components_total"].values()) == (
        decomp["latency_total"]
    )
    assert all(v >= 0 for v in decomp["components_total"].values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_accounting_is_internally_consistent(name, forensic_points):
    report = forensic_points[name].sim.telemetry.stall_report
    total = report["total_stall_cycles"]
    assert sum(report["causes"].values()) == total
    assert set(report["causes"]) == set(STALL_CAUSE_NAMES)
    layer_total = sum(
        block["total"] for block in report["by_active_layers"].values()
    )
    assert layer_total == total
    for entry in report["hotspot_links"] + report["hotspot_nodes"]:
        assert sum(entry["causes"].values()) == entry["stalls"]
    for entry in report["backpressure"]:
        assert entry["chain"][0] == entry["link"]
        assert entry["credit_stalls"] > 0


def test_stalled_run_names_hotspots_and_composes():
    """The acceptance-path scenario: a congested mesh run must name at
    least one hotspot link and produce an exactly conserving
    decomposition table."""
    config = make_3dm()
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=0.35, seed=11
        ),
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=3000,
        telemetry=_forensics_config(),
    )
    sim.run()
    report = network.telemetry.stall_report
    assert report["total_stall_cycles"] > 0
    assert report["hotspot_links"], "congested run produced no hotspots"
    assert report["hotspot_nodes"]
    decomp = report["decomposition"]
    assert decomp["packets"] > 0
    assert decomp["conservation_exact"] == decomp["packets"]
    text = format_stall_report(report)
    assert "hotspot links" in text
    assert "conservation: components sum exactly" in text


# -- unit tests: counters and rollups ---------------------------------------


def _tiny_sim(telemetry=None, rate=0.3):
    config = make_3dm()
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=rate, seed=3
        ),
        warmup_cycles=50,
        measure_cycles=150,
        drain_cycles=2000,
        telemetry=telemetry,
    )
    return network, sim


def test_attach_detach_restores_zero_cost_state():
    network, _ = _tiny_sim()
    assert network.attribution is None
    attribution = StallAttribution(network)
    assert network.attribution is attribution
    with pytest.raises(ValueError):
        StallAttribution(network)
    attribution.detach()
    assert network.attribution is None


def test_rollups_agree_with_flat_counters():
    network, sim = _tiny_sim()
    attribution = StallAttribution(network)
    sim.run()
    total = attribution.total_stall_cycles()
    assert total > 0
    # layer rollup == unit rollup == node rollup: each charge writes
    # one unit cell and one layer cell.
    assert sum(attribution.unit_counts) == total
    assert sum(attribution.cause_totals_list()) == total
    assert sum(attribution.node_stall_cycles()) == total
    # link rollup excludes local-port units, so it can only lose mass.
    link_total = sum(sum(row) for row in attribution.link_stalls().values())
    assert 0 < link_total <= total
    # every credit stall billed to an output port was also billed to
    # the credit_stall cause of some unit.
    assert sum(attribution.out_counts) == (
        attribution.cause_totals()["credit_stall"]
    )


def test_idle_network_charges_nothing():
    network, _ = _tiny_sim()
    attribution = StallAttribution(network)
    for _ in range(200):
        network.step()
    assert attribution.total_stall_cycles() == 0
    report = build_stall_report(attribution)
    assert report["total_stall_cycles"] == 0
    assert report["hotspot_links"] == []
    assert report["backpressure"] == []


def test_backpressure_chain_follows_most_stalled_link():
    network, _ = _tiny_sim()
    attribution = StallAttribution(network)
    credit = {(0, 1): 10, (1, 2): 7, (1, 7): 3, (2, 3): 5}
    chain = attribution.backpressure_chain((0, 1), credit)
    # From 1 the walk picks 1->2 (7 > 3), then 2->3, then stops: no
    # credit stalls leave node 3.
    assert chain == [(0, 1), (1, 2), (2, 3)]


def test_backpressure_chain_stops_on_cycle():
    network, _ = _tiny_sim()
    attribution = StallAttribution(network)
    credit = {(0, 1): 5, (1, 0): 5}
    chain = attribution.backpressure_chain((0, 1), credit)
    assert chain == [(0, 1), (1, 0)]


def test_report_top_k_limits_lists():
    network, sim = _tiny_sim()
    attribution = StallAttribution(network)
    sim.run()
    report = build_stall_report(attribution, top_k=2)
    assert len(report["hotspot_links"]) <= 2
    assert len(report["hotspot_nodes"]) <= 2
    assert len(report["backpressure"]) <= 2


# -- unit tests: the decomposition identity ---------------------------------


def test_decompose_life_exact_sum():
    life = PacketLife(
        pid=1, src=0, dst=5, size_flits=4, klass="data", created=0,
        injected=2, delivered=12,
        hops=[
            HopRecord(node=0, rc=2, va=3, st=5),
            HopRecord(node=1, rc=None, va=7, st=8),
        ],
    )
    decomp = decompose_life(life, hop_cycles=2)
    assert decomp is not None
    assert decomp.queue == 2
    assert decomp.rc_wait == 0  # missing rc substitutes the arrival
    assert decomp.va_wait == 1
    assert decomp.sa_wait == 3
    assert decomp.link_transit == 2
    assert decomp.serialization == 4
    assert decomp.components_sum == decomp.latency == 12
    assert decomp.exact


def test_decompose_life_rejects_incomplete():
    complete = PacketLife(
        pid=1, src=0, dst=1, size_flits=1, klass="data", created=0,
        injected=0, delivered=5,
        hops=[HopRecord(node=0, rc=0, va=1, st=2)],
    )
    assert decompose_life(complete, hop_cycles=2) is not None
    undelivered = PacketLife(
        pid=2, src=0, dst=1, size_flits=1, klass="data", created=0,
        injected=0, hops=[HopRecord(node=0, rc=0, va=1, st=2)],
    )
    assert decompose_life(undelivered, hop_cycles=2) is None
    missing_st = PacketLife(
        pid=3, src=0, dst=1, size_flits=1, klass="data", created=0,
        injected=0, delivered=5, hops=[HopRecord(node=0, rc=0, va=1)],
    )
    assert decompose_life(missing_st, hop_cycles=2) is None
    assert decompose_life(complete, hop_cycles=2, expected_hops=2) is None


def test_decompose_recorder_flags_truncated_lifecycles():
    """Sampled capture on a live run: every decomposed packet conserves
    exactly, and packets with incomplete lifecycles are skipped, not
    mis-decomposed."""
    network, sim = _tiny_sim(
        telemetry=TelemetryConfig(
            interval=100,
            attribution=True,
            trace_capture=True,
            trace_sample_rate=0.5,
        )
    )
    sim.run()
    recorder = network.telemetry._recorder
    hop_cycles = network._hop_cycles
    decomposed, skipped = decompose_recorder(recorder, hop_cycles)
    assert decomposed
    assert skipped >= 0
    for d in decomposed:
        assert d.exact
        assert min(
            d.queue, d.rc_wait, d.va_wait, d.sa_wait,
            d.link_transit, d.serialization,
        ) >= 0


def test_snapshot_surfaces_stall_cycles():
    network, sim = _tiny_sim(telemetry=_forensics_config())
    result = sim.run()
    snapshot = result.telemetry
    assert snapshot.stall_cycles > 0
    assert snapshot.stall_cycles == (
        network.attribution.total_stall_cycles()
    )
    assert "stall attribution" in snapshot.format()


def test_stall_metrics_registered_in_registry():
    network, sim = _tiny_sim(telemetry=_forensics_config())
    sim.run()
    names = set(network.telemetry.registry.names())
    for cause in STALL_CAUSE_NAMES:
        assert f"stall.{cause}" in names
    assert "stall.rate" in names
    assert "stall.node_cycles" in names
    assert NUM_STALL_CAUSES == len(STALL_CAUSE_NAMES)


# -- sweep progress emission ------------------------------------------------


def test_sweep_progress_stream_and_jsonl(tmp_path):
    from repro.experiments.sweep import run_sweep, specs_for_grid
    from repro.core.arch import Architecture

    settings = SETTINGS
    stream = io.StringIO()
    jsonl = tmp_path / "progress.jsonl"
    outcome = run_sweep(
        specs_for_grid([Architecture.MIRA_3DM], [0.05, 0.1]),
        settings,
        processes=0,
        progress=True,
        progress_stream=stream,
        progress_jsonl=str(jsonl),
    )
    assert outcome.ok
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert "[sweep 1/2]" in lines[0] and "[sweep 2/2]" in lines[1]
    assert "eta" in lines[0]
    records = [
        json.loads(line) for line in jsonl.read_text().splitlines()
    ]
    assert [r["done"] for r in records] == [1, 2]
    assert all(r["type"] == "progress" for r in records)
    assert all(r["total"] == 2 for r in records)
    assert records[-1]["eta_s"] == 0.0


def test_sweep_progress_reports_cache_hits_and_failures(tmp_path):
    from repro.experiments.store import PointSpec
    from repro.experiments.sweep import run_sweep

    from repro.core.arch import make_3dm as make

    specs = [
        PointSpec(config=make(), kind="uniform", rate=0.05),
        PointSpec(config=make(), kind="uniform", rate=0.1),
    ]

    calls = {"n": 0}

    def flaky(spec, settings):
        calls["n"] += 1
        if spec.rate == 0.1:
            raise RuntimeError("injected")
        from repro.experiments.runner import run_point_spec

        return run_point_spec(spec, settings)

    stream = io.StringIO()
    outcome = run_sweep(
        specs, SETTINGS, processes=0, worker_fn=flaky,
        cache_dir=str(tmp_path / "cache"),
        retries=1, backoff_s=0.0,
        progress=True, progress_stream=stream,
    )
    assert not outcome.ok
    text = stream.getvalue()
    assert "retry" in text
    assert "failed" in text
    # Second run: the good point is served from the cache and the
    # progress line says so.
    stream2 = io.StringIO()
    run_sweep(
        specs, SETTINGS, processes=0, worker_fn=flaky,
        cache_dir=str(tmp_path / "cache"),
        progress=True, progress_stream=stream2,
    )
    assert "cached" in stream2.getvalue()
