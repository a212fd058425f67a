"""Replicated-run tests."""

import pytest

from repro.analysis import ReplicatedResult, run_replicated
from repro.core.arch import make_2db
from repro.experiments.config import ExperimentSettings


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=1000,
        drain_cycles=5000,
        uniform_rates=(0.15,),
        nuca_rates=(0.1,),
        trace_cycles=4000,
        workloads=("tpcw",),
        seed=31,
    )


class TestReplicated:
    def test_replicated_statistics(self, settings):
        result = run_replicated(make_2db(), 0.1, settings, seeds=(1, 2, 3))
        assert isinstance(result, ReplicatedResult)
        assert result.mean_latency > 0
        assert result.std_latency >= 0
        assert result.seeds == (1, 2, 3)
        # Seed-to-seed spread at this load is small relative to the mean.
        assert result.std_latency < 0.1 * result.mean_latency

    def test_replicated_requires_two_seeds(self, settings):
        with pytest.raises(ValueError):
            run_replicated(make_2db(), 0.1, settings, seeds=(1,))

    def test_identical_seeds_zero_spread(self, settings):
        result = run_replicated(make_2db(), 0.1, settings, seeds=(7, 7))
        assert result.std_latency == pytest.approx(0.0)
