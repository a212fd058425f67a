"""Telemetry layer tests: metrics, exports, sampler, determinism.

The non-negotiables pinned here:

* telemetry-enabled runs are **bit-identical** to bare runs on every
  architecture (the sampler only reads network state),
* the JSONL stream and ``trace.json`` obey their schemas (loadable,
  monotonic cycles, spans nest),
* the layer-shutdown gauge actually responds to short-flit traffic,
* lifecycle truncation is loud, never silent.
"""

from __future__ import annotations

import json

import pytest

from repro.core.arch import make_3dm, standard_configs
from repro.noc.network import Network
from repro.noc.simulator import Simulator
from repro.telemetry import (
    ChromeTraceBuilder,
    MetricsRegistry,
    NetworkTelemetry,
    PacketLife,
    TelemetryConfig,
)
from repro.telemetry.export import PACKETS_PID
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


# ---------------------------------------------------------------------------
# Metric primitives


def test_counter_reports_total_and_delta():
    reg = MetricsRegistry()
    c = reg.counter("flits")
    c.inc(3)
    assert c.sample() == {"total": 3.0, "delta": 3.0}
    c.inc(2)
    assert c.sample() == {"total": 5.0, "delta": 2.0}
    # No activity: delta goes to zero, total holds.
    assert c.sample() == {"total": 5.0, "delta": 0.0}


def test_counter_rejects_decrease():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("x").inc(-1)


def test_gauge_unset_windows_sample_none():
    reg = MetricsRegistry()
    g = reg.gauge("occ")
    assert g.sample() is None
    g.set(4.0)
    assert g.sample() == 4.0
    # Not re-set this window: stale value is not repeated.
    assert g.sample() is None


def test_histogram_summary_and_window_clear():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    h.observe_many(range(1, 101))
    out = h.sample()
    assert out["count"] == 100
    assert out["mean"] == 50.5
    assert out["min"] == 1 and out["max"] == 100
    assert out["p50"] == 50 and out["p95"] == 95 and out["p99"] == 99
    # Cleared: the next window starts empty.
    assert h.sample() == {"count": 0}


def test_registry_accessors_idempotent_but_kind_exclusive():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    reg.gauge("b")
    with pytest.raises(ValueError):
        reg.histogram("b")  # name taken by a gauge
    assert reg.names() == ["a", "b"]


def test_registry_sample_groups_by_kind():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(7)
    out = reg.sample()
    assert out["counters"]["c"] == {"total": 2.0, "delta": 2.0}
    assert out["gauges"]["g"] == 1.5
    assert out["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Chrome trace builder


def test_trace_builder_renders_nested_packet_spans(tmp_path):
    builder = ChromeTraceBuilder()
    life = PacketLife(
        pid=7, src=0, dst=3, size_flits=5, klass="data", created=10,
        injected=12,
    )
    life.note_stage(12, 0, "rc")
    life.note_stage(13, 0, "va")
    life.note_stage(16, 0, "st")   # SA contention: ST 2 cycles after VA+1
    life.note_stage(17, 1, "st")   # look-ahead hop: no RC/VA stamps
    life.delivered = 20
    builder.add_packet(life)

    slices = [e for e in builder.events if e["ph"] == "X"]
    names = [e["name"] for e in slices]
    assert names[0] == "pkt 7"          # parent first
    assert "queued" in names
    assert "hop@0" in names and "hop@1" in names
    assert "RC" in names and "VA" in names
    assert "SA" in names and "ST" in names
    # Children nest inside the packet span by [ts, ts+dur) containment.
    parent = slices[0]
    lo, hi = parent["ts"], parent["ts"] + parent["dur"]
    for child in slices[1:]:
        assert child["ts"] >= lo
        assert child["ts"] + child["dur"] <= hi

    instants = [e for e in builder.events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["eject"]

    path = tmp_path / "t.json"
    builder.write(path, other_data={"extra": 1})
    payload = json.loads(path.read_text())
    assert payload["traceEvents"] == builder.events
    assert payload["otherData"]["ts_unit"] == "simulation cycles"
    assert payload["otherData"]["extra"] == 1


def test_trace_builder_merges_speculative_va_st():
    builder = ChromeTraceBuilder()
    life = PacketLife(pid=1, src=0, dst=1, size_flits=1, klass="ctrl",
                     created=0, injected=0)
    life.note_stage(2, 0, "va")
    life.note_stage(2, 0, "st")  # same cycle: speculative SA won
    builder.add_packet(life)
    names = [e["name"] for e in builder.events if e["ph"] == "X"]
    assert "VA+ST" in names
    assert "VA" not in names and "ST" not in names


# ---------------------------------------------------------------------------
# Sampler wiring and schemas


def _run_3dm(telemetry=None, short=0.6, seed=11, measure=400):
    config = make_3dm()
    network = config.build_network(shutdown_enabled=True)
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=0.15, seed=seed,
            short_flit_fraction=short,
        ),
        warmup_cycles=100, measure_cycles=measure, drain_cycles=4000,
        telemetry=telemetry,
    )
    return sim.run()


def test_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(interval=0).validate()
    network = Network(Mesh2D(2, 2, pitch_mm=1.0))
    with pytest.raises(ValueError):
        NetworkTelemetry(network, TelemetryConfig(interval=-5))


def test_constructor_rejects_config_plus_kwargs():
    network = Network(Mesh2D(2, 2, pitch_mm=1.0))
    with pytest.raises(TypeError):
        NetworkTelemetry(network, TelemetryConfig(), interval=5)
    with pytest.raises(TypeError):
        NetworkTelemetry(network)  # the config is required
    assert network.telemetry is None


def test_jsonl_stream_schema(tmp_path):
    path = tmp_path / "metrics.jsonl"
    result = _run_3dm(TelemetryConfig(interval=100, metrics_path=str(path)))
    records = [json.loads(line) for line in path.read_text().splitlines()]

    meta, samples, end = records[0], records[1:-1], records[-1]
    assert meta["type"] == "meta"
    assert meta["schema"] == 1
    assert meta["interval"] == 100
    assert meta["num_nodes"] == make_3dm().num_nodes
    assert "layers.active_fraction" in meta["metrics"]

    assert end["type"] == "end"
    assert end["windows"] == len(samples) == result.telemetry.windows

    cycles = [s["cycle"] for s in samples]
    assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)
    assert all(s["type"] == "sample" for s in samples)
    # Windows tile the observed stretch: spans sum to cycles observed.
    assert sum(s["window"] for s in samples) == result.telemetry.cycles
    # All but the trailing window are full-sized.
    assert all(s["window"] == 100 for s in samples[:-1])

    mid = samples[len(samples) // 2]
    assert mid["counters"]["packets.injected"]["delta"] >= 0
    assert mid["gauges"]["occupancy.total"] >= 0
    assert len(mid["per_router"]["occupancy"]) == meta["num_nodes"]
    assert isinstance(mid["channels"], dict)
    # Measurement-window samples carry latency distributions.
    assert any(
        s["histograms"]["latency.cycles"]["count"] > 0 for s in samples
    )


def test_active_layer_fraction_responds_to_short_flits(tmp_path):
    """Acceptance: the windowed shutdown signal moves with traffic mix."""
    def mean_fraction(short, path):
        _run_3dm(
            TelemetryConfig(interval=100, metrics_path=str(path)),
            short=short,
        )
        values = [
            r["gauges"]["layers.active_fraction"]
            for r in map(json.loads, path.read_text().splitlines())
            if r["type"] == "sample"
            and r["gauges"]["layers.active_fraction"] is not None
        ]
        assert values, "no windows carried crossbar traffic"
        return sum(values) / len(values)

    # Control packets are short regardless, so the baseline sits below
    # 1.0; forcing most data flits short must still drop it clearly.
    full = mean_fraction(0.0, tmp_path / "full.jsonl")
    short = mean_fraction(0.8, tmp_path / "short.jsonl")
    assert short < full - 0.1


def test_per_layer_active_fraction_gauges(tmp_path):
    """Layer-resolved gauges: the top layer is always on; deeper layers'
    duty fraction falls monotonically (a layer switches for a subset of
    the events that switch the layer above it)."""
    path = tmp_path / "layers.jsonl"
    _run_3dm(TelemetryConfig(interval=100, metrics_path=str(path)), short=0.8)
    samples = [
        r for r in map(json.loads, path.read_text().splitlines())
        if r["type"] == "sample"
        and r["gauges"].get("layers.l0.active_fraction") is not None
    ]
    assert samples, "no windows carried crossbar traffic"
    for sample in samples:
        fractions = [
            sample["gauges"][f"layers.l{i}.active_fraction"]
            for i in range(4)
        ]
        assert fractions[0] == pytest.approx(1.0)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_trace_json_schema_and_nesting(tmp_path):
    trace_path = tmp_path / "trace.json"
    result = _run_3dm(
        TelemetryConfig(interval=100, trace_path=str(trace_path)),
        measure=200,
    )
    payload = json.loads(trace_path.read_text())
    events = payload["traceEvents"]
    assert result.telemetry.trace_events == len(events)
    assert {e["ph"] for e in events} >= {"M", "X", "i", "C"}
    assert payload["otherData"]["packets_traced"] == (
        result.telemetry.packets_traced
    )
    assert payload["otherData"]["truncated"] is result.telemetry.truncated

    # Per packet track: slices nest inside the root packet span.
    by_tid = {}
    for e in events:
        if e["ph"] == "X" and e["pid"] == PACKETS_PID:
            by_tid.setdefault(e["tid"], []).append(e)
    assert by_tid, "no packet lifecycles in the trace"
    for slices in by_tid.values():
        root = slices[0]
        assert root["name"].startswith("pkt ")
        lo, hi = root["ts"], root["ts"] + root["dur"]
        for child in slices[1:]:
            assert lo <= child["ts"]
            assert child["ts"] + child["dur"] <= hi

    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert {"occupancy", "throughput", "active layer fraction"} <= counters


def test_trace_truncation_is_loud(tmp_path):
    trace_path = tmp_path / "trace.json"
    config = make_3dm()
    network = config.build_network(shutdown_enabled=True)
    NetworkTelemetry(
        network, TelemetryConfig(interval=100, trace_path=str(trace_path))
    )
    network.recorder.max_packets = 10  # the sampler's recorder
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=0.15, seed=11,
            short_flit_fraction=0.6,
        ),
        warmup_cycles=100, measure_cycles=200, drain_cycles=4000,
    )
    snap = sim.run().telemetry
    assert snap.truncated
    assert snap.packets_traced <= 10
    assert snap.packets_dropped > 0
    assert "TRUNCATED" in snap.format()
    payload = json.loads(trace_path.read_text())
    assert payload["otherData"]["truncated"] is True
    assert payload["otherData"]["packets_dropped"] == snap.packets_dropped


def test_in_memory_samples_without_paths():
    result = _run_3dm(TelemetryConfig(interval=100), measure=200)
    assert result.telemetry.windows > 0
    assert result.telemetry.metrics_path is None


def test_keep_samples_retains_records(tmp_path):
    """Samples stay in memory exactly when no metrics stream is
    written."""
    config = make_3dm()
    kept = {}
    for path in (None, str(tmp_path / "m.jsonl")):
        network = config.build_network()
        telemetry = NetworkTelemetry(
            network, TelemetryConfig(interval=50, metrics_path=path)
        )
        Simulator(
            network,
            UniformRandomTraffic(num_nodes=config.num_nodes, flit_rate=0.1,
                                 seed=2),
            warmup_cycles=0, measure_cycles=120, drain_cycles=2000,
        ).run()
        kept[path is None] = telemetry
    in_memory, streamed = kept[True], kept[False]
    assert len(in_memory.samples) == in_memory.windows > 0
    assert in_memory.samples[0]["window"] == 50
    assert streamed.windows > 0 and streamed.samples == []


def test_trailing_partial_window_has_true_span():
    config = make_3dm()
    network = config.build_network()
    telemetry = NetworkTelemetry(network, TelemetryConfig(interval=100))
    for _ in range(130):
        network.step()
    telemetry.finish()
    assert telemetry.windows == 2
    assert [s["window"] for s in telemetry.samples] == [100, 30]
    assert telemetry.samples[-1]["cycle"] == 130
    telemetry.finish()  # idempotent
    assert telemetry.windows == 2


def test_detach_removes_all_hooks(tmp_path):
    network = Network(Mesh2D(2, 2, pitch_mm=1.0))
    with NetworkTelemetry(
        network, TelemetryConfig(trace_path=str(tmp_path / "t.json"))
    ) as telemetry:
        assert network.telemetry is telemetry
        assert network.recorder is telemetry._recorder
    assert network.telemetry is None
    assert network.recorder is None
    assert telemetry._on_delivered not in network.delivery_callbacks
    network.step()  # no sampling after detach
    assert telemetry.cycles_observed == 0


# ---------------------------------------------------------------------------
# Determinism: telemetry must never perturb the simulation


@pytest.mark.parametrize(
    "config", standard_configs(), ids=lambda c: c.name
)
def test_telemetry_enabled_runs_bit_identical(config, tmp_path):
    def run(telemetry):
        network = config.build_network(shutdown_enabled=True)
        sim = Simulator(
            network,
            UniformRandomTraffic(
                num_nodes=config.num_nodes, flit_rate=0.1, seed=7,
                short_flit_fraction=0.5,
            ),
            warmup_cycles=50, measure_cycles=250, drain_cycles=3000,
            telemetry=telemetry,
        )
        return sim.run()

    plain = run(None)
    tele = run(
        TelemetryConfig(
            interval=60,
            metrics_path=str(tmp_path / f"{config.name}.jsonl"),
            trace_path=str(tmp_path / f"{config.name}.json"),
        )
    )
    assert tele.avg_latency == plain.avg_latency
    assert tele.avg_hops == plain.avg_hops
    assert tele.packets_measured == plain.packets_measured
    assert tele.flits_delivered == plain.flits_delivered
    assert tele.cycles == plain.cycles
    assert tele.events.flit_hops == plain.events.flit_hops
    assert tele.events.va_allocations == plain.events.va_allocations
    assert tele.latency_p99 == plain.latency_p99
    assert plain.telemetry is None
    assert tele.telemetry is not None and tele.telemetry.windows > 0


def test_windowed_counters_sum_to_run_totals(tmp_path):
    """The stream's per-window deltas must re-add to the run's totals."""
    path = tmp_path / "m.jsonl"
    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    telemetry = NetworkTelemetry(
        network, TelemetryConfig(interval=40, metrics_path=str(path))
    )
    packets = [  # deterministic scripted traffic
        __import__("repro.noc.packet", fromlist=["ctrl_packet"]).ctrl_packet(
            i % 16, (i * 5 + 3) % 16, created_cycle=i * 2
        )
        for i in range(40)
    ]
    sim = Simulator(network, ScheduledTraffic(packets), warmup_cycles=0,
                    measure_cycles=150, drain_cycles=2000)
    sim.run()
    samples = [
        r for r in map(json.loads, path.read_text().splitlines())
        if r["type"] == "sample"
    ]
    delivered = sum(
        s["counters"]["packets.delivered"]["delta"] for s in samples
    )
    assert delivered == network.stats.packets_delivered
    assert samples[-1]["counters"]["flits.delivered"]["total"] == (
        network.stats.flits_delivered
    )
    assert telemetry.windows == len(samples)


def test_in_flight_spans_consistent_in_snapshot(tmp_path):
    """Packets still in flight at finish() render as open-ended spans
    and are reported in the snapshot, consistent with the trace file's
    metadata — they are not silently folded into packets_traced."""
    path = tmp_path / "trace.json"
    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    telemetry = NetworkTelemetry(
        network, TelemetryConfig(interval=50, trace_path=str(path))
    )
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=16, flit_rate=0.2, seed=7),
        warmup_cycles=0, measure_cycles=120, drain_cycles=0,
    )
    sim.run()
    telemetry.finish()
    snap = telemetry.snapshot()
    data = json.loads(path.read_text())
    assert snap.packets_in_flight > 0  # drain was cut short
    assert snap.packets_in_flight == data["otherData"]["packets_in_flight"]
    assert snap.packets_traced == data["otherData"]["packets_traced"]
    assert snap.trace_events == len(data["traceEvents"])
    assert "in flight" in snap.format()


def test_delivery_callback_without_trace_raises():
    """The hook-consistency guard survives ``python -O`` (it is a real
    raise, not an ``assert``)."""
    from repro.noc.packet import ctrl_packet

    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    telemetry = NetworkTelemetry(
        network, TelemetryConfig(interval=50, trace_path="unused.json")
    )
    packet = ctrl_packet(0, 5)
    telemetry._recorder = None   # simulate inconsistent hook state
    with pytest.raises(RuntimeError, match="trace recorder"):
        telemetry._on_delivered(packet, cycle=10)
