"""Ring-buffer trace recorder: sampling, wrap-around, and metadata.

Covers the capture policy (head / hash / tail), deterministic seeded
sampling, ring wrap accounting, the ``max_packets`` truncation surface,
and how all of it lands in ``TraceRecorder.sampling_meta`` — the block
written to ``trace.json`` and surfaced by ``TelemetrySnapshot``.  A
recorder attached to a bare network (``TraceRecorder.attach``) is also
the debugging route tracer: its lifecycle hops are the packet's path.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.arch import make_3dm, make_3dme
from repro.core.express import route_path
from repro.noc.network import Network
from repro.noc.packet import Packet, ctrl_packet, data_packet
from repro.noc.simulator import Simulator
from repro.telemetry import (
    TelemetryConfig,
    TraceRecorder,
    pid_hash_unit,
)
from repro.topology.mesh2d import Mesh2D
from repro.traffic.base import ScheduledTraffic
from repro.traffic.synthetic import UniformRandomTraffic


def make_packet(pid: int) -> Packet:
    packet = Packet(src=0, dst=1, size_flits=4, pid=pid)
    packet.created_cycle = 0
    return packet


def feed(recorder: TraceRecorder, packet: Packet, cycles=(1, 2, 3)) -> None:
    """Drive one packet's head flit through rc -> va -> st."""
    head = packet.make_flits()[0]
    rc, va, st = cycles
    recorder.on_stage(rc, 0, head, "rc")
    recorder.on_stage(va, 0, head, "va")
    recorder.on_stage(st, 0, head, "st")


class TestPidHashUnit:
    def test_range_and_determinism(self):
        values = [pid_hash_unit(pid, seed=7) for pid in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [pid_hash_unit(pid, seed=7) for pid in range(2000)]

    def test_seed_changes_the_sample(self):
        kept_a = {p for p in range(2000) if pid_hash_unit(p, 1) < 0.1}
        kept_b = {p for p in range(2000) if pid_hash_unit(p, 2) < 0.1}
        assert kept_a != kept_b

    def test_roughly_uniform(self):
        kept = sum(1 for p in range(10000) if pid_hash_unit(p, 0) < 0.1)
        assert 800 <= kept <= 1200


class TestCapturePolicy:
    def test_head_capture_wins_over_rate_zero(self):
        recorder = TraceRecorder(sample_rate=0.0, head_tail=3)
        for pid in range(10):
            feed(recorder, make_packet(pid))
        assert recorder.head_captured == 3
        # The first three packets are head-captured regardless of hash.
        lives, _ = recorder.lifecycles()
        head_pids = {life.pid for life in lives if life.pid < 3}
        assert head_pids == {0, 1, 2}

    def test_hash_sampling_matches_the_pure_function(self):
        rate, seed = 0.2, 11
        recorder = TraceRecorder(sample_rate=rate, head_tail=0, seed=seed)
        for pid in range(500):
            feed(recorder, make_packet(pid))
        expected = {p for p in range(500) if pid_hash_unit(p, seed) < rate}
        lives, _ = recorder.lifecycles()
        assert {life.pid for life in lives} == expected
        assert recorder.hash_sampled == len(expected)
        assert recorder.sampled_out == 500 - len(expected)

    def test_tail_window_keeps_the_last_k(self):
        recorder = TraceRecorder(sample_rate=0.0, head_tail=4)
        for pid in range(20):
            feed(recorder, make_packet(pid))
        # 4 head + the last 4 as tail candidates.
        lives, orphaned = recorder.lifecycles()
        by_pid = {life.pid: life for life in lives}
        assert set(by_pid) == {0, 1, 2, 3, 16, 17, 18, 19}
        assert recorder.tail_evicted == 20 - 4 - 4
        assert orphaned == 0
        # Tail capture is span-only: no hop events are recorded for
        # candidates, so the ring holds the head packets' events alone.
        assert recorder.events_recorded == 4 * 3
        assert by_pid[0].hops and not by_pid[19].hops

    def test_rate_zero_no_head_tail_drops_everything(self):
        recorder = TraceRecorder(sample_rate=0.0, head_tail=0)
        for pid in range(50):
            feed(recorder, make_packet(pid))
        assert recorder.events_recorded == 0
        assert recorder.sampled_out == 50
        lives, orphaned = recorder.lifecycles()
        assert lives == [] and orphaned == 0

    def test_full_mode_captures_everything(self):
        recorder = TraceRecorder()
        for pid in range(30):
            feed(recorder, make_packet(pid))
        lives, _ = recorder.lifecycles()
        assert len(lives) == 30
        assert recorder.events_recorded == 90

    def test_max_packets_cap_populates_dropped_pids(self):
        recorder = TraceRecorder(sample_rate=1.0, max_packets=5)
        for pid in range(9):
            feed(recorder, make_packet(pid))
        assert recorder.packets_captured() == 5
        assert recorder.dropped_pids == {5, 6, 7, 8}
        meta = recorder.sampling_meta()
        assert meta["packets_captured"] == 5

    def test_decision_is_sticky_per_packet(self):
        recorder = TraceRecorder(sample_rate=0.0, head_tail=1)
        first = make_packet(0)
        feed(recorder, first)
        seen_before = recorder.packets_seen
        feed(recorder, first, cycles=(4, 5, 6))
        assert recorder.packets_seen == seen_before


class TestRingWrap:
    def test_wraparound_counts_overwritten_events(self):
        recorder = TraceRecorder(ring_events=8)
        for pid in range(5):
            feed(recorder, make_packet(pid))  # 15 events into 8 slots
        assert recorder.events_recorded == 15
        assert recorder.events_overwritten == 7
        lives, _ = recorder.lifecycles()
        # Every packet object survives; early hop events are gone.
        assert len(lives) == 5
        total_hops = sum(len(life.hops) for life in lives)
        assert 0 < total_hops <= 8

    def test_latest_events_always_survive(self):
        recorder = TraceRecorder(ring_events=4)
        for pid in range(10):
            feed(recorder, make_packet(pid), cycles=(pid, pid, pid))
        lives, _ = recorder.lifecycles()
        by_pid = {life.pid: life for life in lives}
        # The newest packet's traverse is the last record written.
        assert by_pid[9].hops and by_pid[9].hops[-1].st == 9


class TestSamplingMeta:
    def test_mode_and_knobs_echoed(self):
        recorder = TraceRecorder(sample_rate=0.25, head_tail=8, seed=3)
        meta = recorder.sampling_meta(orphaned=2)
        assert meta["mode"] == "sampled"
        assert meta["sample_rate"] == 0.25
        assert meta["head_tail"] == 8
        assert meta["seed"] == 3
        assert meta["events_orphaned"] == 2
        assert TraceRecorder().sampling_meta()["mode"] == "full"

    def test_counts_are_consistent(self):
        recorder = TraceRecorder(sample_rate=0.3, head_tail=2, seed=5)
        for pid in range(100):
            feed(recorder, make_packet(pid))
        meta = recorder.sampling_meta()
        assert meta["packets_seen"] == 100
        assert (
            meta["head_captured"] + meta["hash_sampled"]
            + meta["tail_window"]
            == meta["packets_captured"]
        )
        assert (
            meta["packets_captured"] + meta["sampled_out"]
            + meta["tail_evicted"]
            == 100
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="sample rate"):
            TraceRecorder(sample_rate=1.5)
        with pytest.raises(ValueError, match="head/tail"):
            TraceRecorder(head_tail=-1)
        with pytest.raises(ValueError, match="ring capacity"):
            TraceRecorder(ring_events=0)


def run_traced(tmp_path, **trace_kwargs):
    config = make_3dm()
    network = config.build_network(shutdown_enabled=True)
    telemetry = TelemetryConfig(
        interval=50,
        metrics_path=str(tmp_path / "m.jsonl"),
        trace_path=str(tmp_path / "t.json"),
        **trace_kwargs,
    )
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=0.1, seed=3
        ),
        warmup_cycles=50, measure_cycles=300, drain_cycles=2000,
        telemetry=telemetry,
    )
    result = sim.run()
    with open(tmp_path / "t.json", encoding="utf-8") as handle:
        return result, json.load(handle)


class TestEndToEnd:
    def test_sampled_run_writes_sampling_block(self, tmp_path):
        result, trace = run_traced(
            tmp_path, trace_sample_rate=0.1, trace_head_tail=4,
            trace_seed=9,
        )
        sampling = trace["otherData"]["sampling"]
        assert sampling["mode"] == "sampled"
        assert sampling["sample_rate"] == 0.1
        assert sampling["seed"] == 9
        assert sampling["packets_seen"] > sampling["packets_captured"] > 0
        snap = result.telemetry
        assert snap.packets_seen == sampling["packets_seen"]
        assert snap.packets_sampled == sampling["packets_captured"]
        assert snap.sampled_out == sampling["sampled_out"]
        assert snap.sample_rate == 0.1 and snap.head_tail == 4
        assert snap.finish_cpu_s >= 0.0

    def test_sampled_capture_is_reproducible(self, tmp_path):
        """Same seed + same pid stream -> the same packets captured.

        Packet ids come from a process-global counter, so the second
        run resets it to replay the exact pid stream a fresh process
        would see."""
        import itertools

        from repro.noc import packet as packet_mod

        pids = []
        for sub in ("a", "b"):
            packet_mod._packet_ids = itertools.count()
            d = tmp_path / sub
            d.mkdir()
            _, trace = run_traced(
                d, trace_sample_rate=0.2, trace_head_tail=2, trace_seed=4
            )
            pids.append(
                sorted(
                    e["tid"]
                    for e in trace["traceEvents"]
                    if e.get("ph") == "X" and e.get("pid") == 1
                    and e["name"].startswith("pkt ")
                )
            )
        assert pids[0] and pids[0] == pids[1]

    def test_sampled_run_matches_bare_run(self, tmp_path):
        config = make_3dm()

        def run(telemetry):
            network = config.build_network(shutdown_enabled=True)
            sim = Simulator(
                network,
                UniformRandomTraffic(
                    num_nodes=config.num_nodes, flit_rate=0.1, seed=3
                ),
                warmup_cycles=50, measure_cycles=300, drain_cycles=2000,
                telemetry=telemetry,
            )
            return sim.run()

        bare = run(None)
        traced = run(
            TelemetryConfig(
                interval=50,
                trace_path=str(tmp_path / "t.json"),
                trace_sample_rate=0.05,
                trace_head_tail=8,
            )
        )
        assert traced.avg_latency == bare.avg_latency
        assert traced.events.flit_hops == bare.events.flit_hops

    def test_router_filter_skips_dropped_pids(self, tmp_path):
        """The call-site drop filter must hide sampled-out packets from
        the hooks without losing admissions."""
        result, trace = run_traced(
            tmp_path, trace_sample_rate=0.0, trace_head_tail=0
        )
        sampling = trace["otherData"]["sampling"]
        assert sampling["packets_captured"] == 0
        assert sampling["sampled_out"] == sampling["packets_seen"] > 0
        assert sampling["events_recorded"] == 0

    def test_stage_hook_sees_heads_only(self):
        config = make_3dm()
        network = config.build_network(shutdown_enabled=True)
        seen = []
        network.stage_callbacks.append(
            lambda cycle, node, flit, stage: seen.append((flit, stage))
        )
        sim = Simulator(
            network,
            UniformRandomTraffic(
                num_nodes=config.num_nodes, flit_rate=0.05, seed=2
            ),
            warmup_cycles=20, measure_cycles=100, drain_cycles=1000,
        )
        sim.run()
        assert seen
        assert all(flit.is_head for flit, _ in seen)
        assert {stage for _, stage in seen} <= {"rc", "va", "st"}
        assert any(stage == "st" for _, stage in seen)

    def test_optimized_mode_keeps_metadata(self, tmp_path):
        """``python -O`` must not strip the sampling/truncation
        accounting (it is regular control flow, not asserts)."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.telemetry import TraceRecorder\n"
            "from repro.noc.packet import Packet\n"
            "r = TraceRecorder(sample_rate=0.0, head_tail=2)\n"
            "for pid in range(10):\n"
            "    p = Packet(src=0, dst=1, size_flits=4, pid=pid)\n"
            "    head = p.make_flits()[0]\n"
            "    r.on_stage(1, 0, head, 'rc')\n"
            "    r.on_stage(2, 0, head, 'st')\n"
            "print(json.dumps(r.sampling_meta()))\n"
        ) % os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, check=True,
        )
        meta = json.loads(out.stdout)
        assert meta["packets_seen"] == 10
        assert meta["head_captured"] == 2
        assert meta["tail_window"] == 2
        assert meta["tail_evicted"] == 6


def run_attached(network, packets):
    """Run *packets* on *network* with a full-capture recorder attached."""
    recorder = TraceRecorder().attach(network)
    Simulator(
        network, ScheduledTraffic(packets), warmup_cycles=0,
        measure_cycles=300, drain_cycles=2000,
    ).run()
    recorder.detach()
    return recorder


def hop_nodes(recorder, packet):
    lives, _ = recorder.lifecycles()
    (life,) = [life for life in lives if life.pid == packet.pid]
    return [hop.node for hop in life.hops]


class TestAttach:
    def test_route_matches_route_path_on_2d_mesh(self):
        network = Network(Mesh2D(4, 4, pitch_mm=1.0))
        packet = ctrl_packet(0, 15, created_cycle=0)
        recorder = run_attached(network, [packet])
        assert hop_nodes(recorder, packet) == [0, 1, 2, 3, 7, 11, 15]
        assert hop_nodes(recorder, packet) == route_path(
            network.topology, 0, 15
        )

    def test_route_matches_route_path_on_3dme(self):
        network = make_3dme().build_network()
        packet = data_packet(0, 35, created_cycle=0)
        recorder = run_attached(network, [packet])
        path = route_path(network.topology, 0, 35, network.routing)
        assert hop_nodes(recorder, packet) == path
        # Express channels skip routers: fewer hops than Manhattan.
        assert len(path) - 1 < 10
