"""Regression tests for simulator correctness fixes.

Covers three bugs fixed together with the active-set scheduler work:

* delivery hooks accumulating when two simulators drive the same
  network in sequence (the hook now lives for one ``run()``),
* the trailing partial activity window being silently dropped when
  ``measure_cycles`` is not a multiple of ``sample_interval``,
* ``NetworkStats.latency_percentile`` misrounding the nearest rank
  through float arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arch import make_2db
from repro.noc.simulator import Simulator
from repro.noc.stats import NetworkStats
from repro.traffic.synthetic import UniformRandomTraffic


def _traffic(config, seed=3, rate=0.05):
    return UniformRandomTraffic(
        num_nodes=config.num_nodes, flit_rate=rate, seed=seed
    )


def _sim(network, config, **kwargs):
    kwargs.setdefault("warmup_cycles", 20)
    kwargs.setdefault("measure_cycles", 100)
    kwargs.setdefault("drain_cycles", 2000)
    return Simulator(network, _traffic(config), **kwargs)


# -- delivery-hook registration ------------------------------------------


def test_hook_absent_before_and_after_run():
    config = make_2db()
    network = config.build_network()
    sim = _sim(network, config)
    assert network.delivery_callbacks == []
    during = []
    network.delivery_callbacks.append(
        lambda packet, cycle: during.append(
            sim._deliver_hook in network.delivery_callbacks
        )
    )
    sim.run()
    assert during and all(during)
    assert len(network.delivery_callbacks) == 1  # the probe only


def test_run_deregisters_hook_on_error():
    config = make_2db()
    network = config.build_network()
    sim = _sim(network, config)

    def fail(packet, cycle):
        raise RuntimeError("traffic failed")

    sim.traffic.on_delivered = fail
    with pytest.raises(RuntimeError, match="traffic failed"):
        sim.run()
    assert network.delivery_callbacks == []


def test_foreign_callbacks_survive_simulator_registration():
    config = make_2db()
    network = config.build_network()
    seen = []
    foreign = lambda packet, cycle: seen.append(packet.pid)  # noqa: E731
    network.delivery_callbacks.append(foreign)
    _sim(network, config).run()
    _sim(network, config).run()
    assert network.delivery_callbacks == [foreign]
    assert seen and len(seen) == len(set(seen))


def test_sequential_simulators_deliver_each_packet_once():
    """Two simulators run back to back over one network: each traffic
    source hears of exactly the packets delivered during its own run,
    once each (a hook left behind by the first run would make the first
    source hear the second run's deliveries too)."""
    config = make_2db()
    network = config.build_network()
    delivered = []
    network.delivery_callbacks.append(
        lambda packet, cycle: delivered.append(packet.pid)
    )
    runs = []
    for _ in range(2):
        sim = _sim(network, config)
        heard = []
        original = sim.traffic.on_delivered

        def on_delivered(packet, cycle, heard=heard, original=original):
            heard.append(packet.pid)
            return original(packet, cycle)

        sim.traffic.on_delivered = on_delivered
        delivered.clear()
        sim.run()
        runs.append((heard, list(delivered)))
    for heard, during_run in runs:
        assert heard and heard == during_run
        assert len(heard) == len(set(heard))


# -- trailing partial activity window ------------------------------------


def test_partial_activity_window_is_emitted():
    config = make_2db()
    sim = _sim(
        config.build_network(), config,
        measure_cycles=1000, sample_interval=400,
    )
    result = sim.run()
    assert len(result.activity_windows) == 3
    assert result.activity_window_cycles == [400, 400, 200]


def test_partial_window_counts_match_finer_sampling():
    config = make_2db()
    coarse = _sim(
        config.build_network(), config,
        measure_cycles=1000, sample_interval=400,
    ).run()
    fine = _sim(
        config.build_network(), config,
        measure_cycles=1000, sample_interval=200,
    ).run()
    assert fine.activity_window_cycles == [200] * 5

    def totals(result):
        return [sum(per_router) for per_router in zip(*result.activity_windows)]

    # Identical seeds: the full measurement window switches the same
    # flits regardless of how it is sliced.
    assert totals(coarse) == totals(fine)


def test_exact_multiple_has_no_partial_window():
    config = make_2db()
    result = _sim(
        config.build_network(), config,
        measure_cycles=800, sample_interval=400,
    ).run()
    assert result.activity_window_cycles == [400, 400]


def test_power_trace_scales_partial_window_by_true_span():
    from repro.thermal.transient import power_trace_from_activity

    config = make_2db()
    result = _sim(
        config.build_network(), config,
        measure_cycles=1000, sample_interval=400,
    ).run()
    trace = power_trace_from_activity(config, result, sample_interval=400)
    assert len(trace) == 3
    # The partial window divides by its true (shorter) span: pretending
    # it spanned the nominal interval dilutes the same activity to half
    # the dynamic power.
    assert sum(sum(w) for w in result.activity_windows[-1:]) > 0
    result.activity_window_cycles = [400, 400, 400]
    diluted = power_trace_from_activity(config, result, sample_interval=400)
    assert trace[-1].sum() > diluted[-1].sum()


# -- latency percentile nearest-rank math --------------------------------


def _reference_percentile(latencies, percentile):
    """Nearest-rank by definition: the smallest sample such that at
    least p% of the samples are <= it, in exact decimal arithmetic."""
    ordered = sorted(latencies)
    n = len(ordered)
    target = Fraction(str(percentile)) / 100
    for i, value in enumerate(ordered):
        if Fraction(i + 1, n) >= target:
            return float(value)
    return float(ordered[-1])


def _stats_with(latencies):
    stats = NetworkStats()
    stats.latencies = list(latencies)
    return stats


@settings(max_examples=200, deadline=None)
@given(
    latencies=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                       max_size=400),
    percentile=st.one_of(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False,
                  allow_infinity=False),
        st.integers(min_value=1, max_value=100).map(float),
        st.integers(min_value=1, max_value=1000).map(lambda k: k / 10.0),
    ),
)
def test_percentile_matches_reference(latencies, percentile):
    stats = _stats_with(latencies)
    assert stats.latency_percentile(percentile) == _reference_percentile(
        latencies, percentile
    )


def test_percentile_float_boundary_regression():
    """8.8% of 375 samples is exactly rank 33, but float arithmetic says
    375 * 8.8 = 3300.0000000000005 and ceils to rank 34."""
    assert 375 * 8.8 != 3300  # the float hazard this guards against
    stats = _stats_with(range(375))
    assert stats.latency_percentile(8.8) == 32.0  # rank 33, 0-indexed 32


def test_percentile_edge_cases():
    stats = _stats_with([7])
    assert stats.latency_percentile(0.5) == 7.0
    assert stats.latency_percentile(100.0) == 7.0

    stats = _stats_with([1, 2, 3, 4])
    assert stats.latency_percentile(100.0) == 4.0
    assert stats.latency_percentile(25.0) == 1.0
    assert stats.latency_percentile(25.1) == 2.0

    ties = _stats_with([5, 5, 5, 5, 9])
    assert ties.latency_percentile(80.0) == 5.0
    assert ties.latency_percentile(80.1) == 9.0

    assert _stats_with([]).latency_percentile(50.0) == 0.0
    with pytest.raises(ValueError):
        _stats_with([1]).latency_percentile(0.0)
    with pytest.raises(ValueError):
        _stats_with([1]).latency_percentile(100.5)
