"""EventCounts copy()/delta() round-trip coverage.

The implementations are field-generic (``dataclasses.fields``), and these
tests pin that: a counter added to EventCounts is automatically covered,
and the fixture below fails loudly if it isn't populated here.
"""

from dataclasses import fields

from repro.noc.stats import EventCounts


def _populated() -> EventCounts:
    ev = EventCounts()
    ev.buffer_writes = 7
    ev.buffer_reads = 5
    ev.buffer_writes_weighted = 1.5
    ev.buffer_reads_weighted = 0.75
    ev.xbar_traversals = 9
    ev.xbar_traversals_weighted = 4.5
    ev.rc_computations = 3
    ev.va_allocations = 2
    ev.sa_allocations = 8
    ev.link_flits = {"normal": 11, "express": 2}
    ev.link_mm_weighted = {"normal": 6.5, "express": 3.25}
    ev.channel_flits = {(0, 1): 4, (1, 2): 1}
    ev.short_flit_hops = 6
    ev.flit_hops = 13
    ev.buffer_writes_by_layers = {1: 4, 4: 3}
    ev.buffer_reads_by_layers = {1: 3, 4: 2}
    ev.xbar_traversals_by_layers = {2: 6, 4: 3}
    ev.flit_hops_by_layers = {1: 6, 4: 7}
    ev.link_mm_by_layers = {1: 2.5, 4: 4.0}
    return ev


def test_fixture_exercises_every_field():
    ev = _populated()
    for f in fields(ev):
        assert getattr(ev, f.name), (
            f"field {f.name!r} left at its default: add it to _populated() "
            "so the copy/delta round-trip keeps covering every counter"
        )


def test_copy_round_trips_every_field():
    ev = _populated()
    clone = ev.copy()
    for f in fields(ev):
        assert getattr(clone, f.name) == getattr(ev, f.name), f.name


def test_copy_dicts_are_independent():
    ev = _populated()
    clone = ev.copy()
    clone.link_flits["normal"] += 1
    clone.link_mm_weighted["vertical"] = 9.0
    clone.channel_flits[(9, 9)] = 1
    assert ev.link_flits["normal"] == 11
    assert "vertical" not in ev.link_mm_weighted
    assert (9, 9) not in ev.channel_flits


def test_delta_round_trips_every_field():
    earlier = _populated()
    later = earlier.copy()
    later.buffer_writes += 3
    later.buffer_reads_weighted += 0.5
    later.link_flits["vertical"] = 5
    later.channel_flits[(2, 3)] = 2
    later.flit_hops += 4

    diff = later.delta(earlier)
    assert diff.buffer_writes == 3
    assert diff.buffer_reads_weighted == 0.5
    assert diff.link_flits == {"normal": 0, "express": 0, "vertical": 5}
    assert diff.channel_flits == {(0, 1): 0, (1, 2): 0, (2, 3): 2}
    assert diff.flit_hops == 4

    # self - self is zero in every field (dict fields: zero per key).
    zero = earlier.delta(earlier)
    for f in fields(zero):
        value = getattr(zero, f.name)
        if isinstance(value, dict):
            assert all(v == 0 for v in value.values()), f.name
        else:
            assert value == 0, f.name


def test_delta_emits_keys_sorted_whatever_the_insertion_order():
    """Dicts built in different orders delta to the same key order, so
    float sums over ``values()`` (``power_report``) never depend on
    insertion order or on ``PYTHONHASHSEED``."""
    kinds = ["vertical", "normal", "express"]
    forward, backward = EventCounts(), EventCounts()
    for kind in kinds:
        forward.link_mm_weighted[kind] = 0.1
        forward.channel_flits[(len(kind), 0)] = 1
    for kind in reversed(kinds):
        backward.link_mm_weighted[kind] = 0.1
        backward.channel_flits[(len(kind), 0)] = 1
    empty = EventCounts()
    a, b = forward.delta(empty), backward.delta(empty)
    assert list(a.link_mm_weighted) == list(b.link_mm_weighted) == sorted(kinds)
    assert list(a.channel_flits) == list(b.channel_flits) == sorted(
        forward.channel_flits
    )
    # Union keys (only in the earlier snapshot) join in sorted order too.
    assert list(empty.delta(backward).link_mm_weighted) == sorted(kinds)


# ---------------------------------------------------------------------------
# StatsCursor: incremental windows over a live NetworkStats


def _note(stats, latency, flits=1):
    from repro.noc.packet import ctrl_packet, data_packet

    make = data_packet if flits > 1 else ctrl_packet
    packet = make(0, 1, created_cycle=0)
    packet.injected_cycle = 0
    packet.delivered_cycle = latency
    stats.note_injected(packet)
    stats.note_delivered(packet)
    return packet


def test_stats_cursor_first_window_covers_since_construction():
    from repro.noc.stats import NetworkStats, StatsCursor

    stats = NetworkStats()
    _note(stats, 10)
    cursor = StatsCursor(stats)  # packet above predates the cursor
    _note(stats, 20)
    _note(stats, 30)
    window = cursor.advance()
    assert window.packets_injected == 2
    assert window.packets_delivered == 2
    assert window.latencies == (20, 30)
    assert window.avg_latency == 25.0


def test_stats_cursor_windows_are_disjoint_and_sum_to_totals():
    from repro.noc.stats import NetworkStats, StatsCursor

    stats = NetworkStats()
    cursor = StatsCursor(stats)
    latencies = [7, 11, 13, 17, 19]
    windows = []
    for i, latency in enumerate(latencies):
        _note(stats, latency)
        if i % 2 == 1:
            windows.append(cursor.advance())
    windows.append(cursor.advance())

    seen = [lat for w in windows for lat in w.latencies]
    assert seen == latencies  # disjoint, ordered, nothing dropped
    assert sum(w.packets_delivered for w in windows) == (
        stats.packets_delivered
    )
    assert sum(w.flits_delivered for w in windows) == stats.flits_delivered
    assert sum(w.measured_flits for w in windows) == stats.measured_flits


def test_stats_cursor_empty_window():
    from repro.noc.stats import NetworkStats, StatsCursor

    stats = NetworkStats()
    cursor = StatsCursor(stats)
    window = cursor.advance()
    assert window.packets_injected == 0
    assert window.latencies == ()
    assert window.avg_latency == 0.0
    assert window.latency_percentile(99) == 0.0


def test_stats_cursor_never_mutates_stats():
    from repro.noc.stats import NetworkStats, StatsCursor

    stats = NetworkStats()
    _note(stats, 12)
    before = (stats.packets_delivered, list(stats.latencies))
    StatsCursor(stats).advance()
    assert (stats.packets_delivered, list(stats.latencies)) == before


def test_stats_window_percentiles_match_global_helper():
    from repro.noc.stats import (
        NetworkStats,
        StatsCursor,
        nearest_rank_percentile,
    )

    stats = NetworkStats()
    cursor = StatsCursor(stats)
    for latency in (5, 1, 9, 3, 7):
        _note(stats, latency)
    window = cursor.advance()
    assert window.latency_percentile(50) == nearest_rank_percentile(
        [1, 3, 5, 7, 9], 50
    )
    assert window.latency_percentile(100) == 9


# ---------------------------------------------------------------------------
# nearest_rank_percentile boundary ranks


def test_percentile_tiny_p_clamps_to_first_rank():
    """p -> 0+ : ceil of a tiny positive rank is 1, the minimum."""
    from repro.noc.stats import nearest_rank_percentile

    ordered = list(range(10, 110))
    assert nearest_rank_percentile(ordered, 1e-9) == 10.0
    assert nearest_rank_percentile(ordered, 0.001) == 10.0


def test_percentile_100_is_last_rank():
    from repro.noc.stats import nearest_rank_percentile

    ordered = list(range(10, 110))
    assert nearest_rank_percentile(ordered, 100.0) == 109.0


def test_percentile_single_sample_any_p():
    from repro.noc.stats import nearest_rank_percentile

    for p in (1e-9, 0.5, 50.0, 99.9, 100.0):
        assert nearest_rank_percentile([42], p) == 42.0


def test_percentile_rejects_out_of_domain_p():
    import pytest

    from repro.noc.stats import nearest_rank_percentile

    for p in (0.0, -1.0, 100.0001):
        with pytest.raises(ValueError):
            nearest_rank_percentile([1, 2, 3], p)


def test_percentile_empty_sample_is_zero():
    from repro.noc.stats import nearest_rank_percentile

    assert nearest_rank_percentile([], 50.0) == 0.0


def test_multi_cursor_independence_on_live_run():
    """Two cursors over the same live run never perturb each other: an
    eagerly-advanced cursor's windows re-sum to the lazy cursor's one
    big window, latency tuples included."""
    from repro.noc.network import Network
    from repro.noc.stats import StatsCursor
    from repro.topology.mesh2d import Mesh2D
    from repro.traffic.synthetic import UniformRandomTraffic

    network = Network(Mesh2D(4, 4, pitch_mm=1.0))
    traffic = UniformRandomTraffic(num_nodes=16, flit_rate=0.25, seed=11)
    network.stats.set_window(0, 400)
    fast = StatsCursor(network.stats)  # advanced every 50 cycles
    slow = StatsCursor(network.stats)  # advanced once at the end
    fast_windows = []
    for cycle in range(400):
        for packet in traffic.packets_for_cycle(cycle):
            network.enqueue_packet(packet)
        network.step()
        if (cycle + 1) % 50 == 0:
            fast_windows.append(fast.advance())
    total = slow.advance()
    assert total.packets_delivered > 0
    for field_name in (
        "packets_injected",
        "packets_delivered",
        "flits_delivered",
        "measured_packets",
        "measured_flits",
    ):
        assert sum(getattr(w, field_name) for w in fast_windows) == (
            getattr(total, field_name)
        ), field_name
    assert tuple(
        latency for w in fast_windows for latency in w.latencies
    ) == total.latencies
