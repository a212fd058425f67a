"""Crash-injection and resume tests for the sweep engine.

Workers here misbehave on purpose — raise, hang, die with ``os._exit``
— to prove the engine's guarantees: bounded retry with backoff, timeout
termination, structured failure reports that never sink sibling points,
deterministic result ordering regardless of completion order, and
kill-and-resume runs that serve every finished point from cache.

Fault injection is cross-process: attempt counters live in marker files
under a tmp dir (worker processes share no memory with the test), and
the injected worker functions are module-level so they survive both
fork and spawn start methods.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.arch import Architecture, standard_configs
from repro.experiments.config import ExperimentSettings
from repro.experiments.export import point_to_dict, sweep_to_dict
from repro.experiments.runner import run_point_spec
from repro.experiments.store import RunJournal, SweepPointError
from repro.experiments.sweep import run_sweep, specs_for_grid


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=2000,
        uniform_rates=(0.05, 0.1),
        nuca_rates=(0.05,),
        trace_cycles=2000,
        workloads=("tpcw",),
        seed=13,
    )


def _marker(state_dir: str, spec) -> Path:
    stem = spec.describe().replace(" ", "_").replace("/", "_")
    return Path(state_dir) / f"{stem}.attempts"


def _bump_attempts(state_dir: str, spec) -> int:
    """Count this attempt in a marker file; returns prior attempt count."""
    marker = _marker(state_dir, spec)
    count = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(count + 1))
    return count


def _flaky_worker(spec, settings, state_dir="", fail_attempts=0):
    """Raises on its first *fail_attempts* attempts, then succeeds."""
    if _bump_attempts(state_dir, spec) < fail_attempts:
        raise ValueError(f"injected failure for {spec.describe()}")
    return run_point_spec(spec, settings)


def _poison_rate_worker(spec, settings, poison_rate=0.0):
    """Always fails for one rate; siblings run normally."""
    if spec.rate == poison_rate:
        raise RuntimeError(f"dead point {spec.describe()}")
    return run_point_spec(spec, settings)


def _hang_first_worker(spec, settings, state_dir=""):
    """Hangs (far beyond any test timeout) on attempt 1, then succeeds."""
    if _bump_attempts(state_dir, spec) == 0:
        time.sleep(300)
    return run_point_spec(spec, settings)


def _exit_worker(spec, settings):
    """Dies without reporting, like a segfault or OOM kill."""
    os._exit(5)


def _stagger_worker(spec, settings):
    """Completes points in reverse spec order (low rates finish last)."""
    time.sleep(0.3 - spec.rate)
    return run_point_spec(spec, settings)


#: Forks workers for one telemetry, fault and variation point in a fresh
#: interpreter; each worker appends, at entry, which opt-in layers it
#: found already loaded.
_INHERIT_SCRIPT = """
import json, sys
from repro.core.arch import Architecture
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.sweep import run_sweep, specs_for_grid

LAYERS = ("repro.telemetry.sampler", "repro.resilience.faults",
          "repro.resilience.variation")
record, telemetry_dir = sys.argv[1], sys.argv[2]

def worker(spec, settings):
    with open(record, "a") as out:
        out.write(json.dumps({m: m in sys.modules for m in LAYERS}) + "\\n")
    return run_point_spec(spec, settings)

assert not any(m in sys.modules for m in LAYERS)
settings = ExperimentSettings(
    warmup_cycles=20, measure_cycles=100, drain_cycles=1000,
    uniform_rates=(0.05,), nuca_rates=(0.05,), trace_cycles=100,
    workloads=("tpcw",), seed=1,
)
specs = specs_for_grid([Architecture.MIRA_3DM], [0.05, 0.1],
                       fault_random_links=1, fault_seed=3,
                       variation_sigma=0.05, variation_seed=2)
outcome = run_sweep(specs, settings, processes=2, worker_fn=worker,
                    telemetry_dir=telemetry_dir)
assert outcome.ok
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the parent's modules only under fork",
)
def test_forked_workers_inherit_opt_in_layers(tmp_path):
    record = tmp_path / "loaded.jsonl"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _INHERIT_SCRIPT, str(record),
         str(tmp_path / "telemetry")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    entries = [json.loads(line) for line in record.read_text().splitlines()]
    assert len(entries) == 2
    for loaded in entries:
        assert all(loaded.values()), loaded


class TestRetry:
    def test_flaky_worker_retried_with_backoff_until_success(
        self, settings, tmp_path
    ):
        specs = specs_for_grid([Architecture.BASELINE_2D], [0.05, 0.1])
        start = time.monotonic()
        outcome = run_sweep(
            specs, settings, processes=2, retries=2, backoff_s=0.05,
            worker_fn=functools.partial(
                _flaky_worker, state_dir=str(tmp_path), fail_attempts=2
            ),
        )
        elapsed = time.monotonic() - start
        assert outcome.ok
        assert [r for r, _ in outcome.series["2DB"]] == [0.05, 0.1]
        assert outcome.stats.executed == 2
        assert outcome.stats.errors == 4  # 2 failed attempts per point
        assert outcome.stats.retried_attempts == 4
        # Backoff happened: 0.05 + 0.1 per point, in parallel >= 0.15s.
        assert elapsed >= 0.15
        for spec in specs:
            assert int(_marker(str(tmp_path), spec).read_text()) == 3

    def test_negative_backoff_rejected_before_any_attempt(
        self, settings, tmp_path
    ):
        specs = specs_for_grid([Architecture.BASELINE_2D], [0.05])
        with pytest.raises(ValueError, match="backoff_s"):
            run_sweep(
                specs, settings, processes=0, retries=1, backoff_s=-1,
                worker_fn=functools.partial(
                    _flaky_worker, state_dir=str(tmp_path), fail_attempts=1
                ),
            )
        assert not _marker(str(tmp_path), specs[0]).exists()

    def test_exhausted_retries_land_in_failure_report(self, settings, tmp_path):
        specs = specs_for_grid(
            [Architecture.BASELINE_2D, Architecture.MIRA_3DM], [0.05, 0.1]
        )
        outcome = run_sweep(
            specs, settings, processes=2, retries=1, backoff_s=0.01,
            worker_fn=functools.partial(_poison_rate_worker, poison_rate=0.1),
        )
        assert not outcome.ok
        # Sibling points all survive.
        assert [r for r, _ in outcome.series["2DB"]] == [0.05]
        assert [r for r, _ in outcome.series["3DM"]] == [0.05]
        assert len(outcome.failures) == 2
        for failure in outcome.failures:
            assert failure.rate == 0.1
            assert failure.attempts == 2  # 1 + 1 retry
            assert failure.failure_kind == "error"
            assert "dead point" in failure.error
            assert "RuntimeError" in failure.traceback
        # Deterministic failure ordering: sorted by (arch, kind, rate).
        assert [f.arch for f in outcome.failures] == ["2DB", "3DM"]
        assert outcome.stats.failed_points == 2

    def test_timeout_terminates_hung_worker_then_retry_succeeds(
        self, settings, tmp_path
    ):
        specs = specs_for_grid([Architecture.BASELINE_2D], [0.05])
        outcome = run_sweep(
            specs, settings, processes=1, retries=1, backoff_s=0.01,
            point_timeout=1.0,
            worker_fn=functools.partial(
                _hang_first_worker, state_dir=str(tmp_path)
            ),
        )
        assert outcome.ok
        assert outcome.stats.timeouts == 1
        assert outcome.stats.executed == 1
        assert outcome.stats.retried_attempts == 1

    def test_crashed_worker_process_lands_in_report(self, settings):
        specs = specs_for_grid([Architecture.BASELINE_2D], [0.05])
        outcome = run_sweep(
            specs, settings, processes=1, retries=1, backoff_s=0.01,
            worker_fn=_exit_worker,
        )
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.failure_kind == "crash"
        assert "exit code 5" in failure.error
        assert failure.attempts == 2
        assert outcome.stats.crashes == 2


class TestRaiseMode:
    def test_inline_raise_preserves_cause_through_retry_wrapping(
        self, settings, tmp_path
    ):
        """The satellite fix: ``raise SweepPointError ... from`` keeps the
        worker's exception on ``__cause__`` even after retries."""
        specs = specs_for_grid([Architecture.BASELINE_2D], [0.05])
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                specs, settings, processes=0, retries=2, backoff_s=0.0,
                failure_mode="raise",
                worker_fn=functools.partial(
                    _flaky_worker, state_dir=str(tmp_path), fail_attempts=99
                ),
            )
        err = excinfo.value
        assert isinstance(err.__cause__, ValueError)
        assert "injected failure" in str(err.__cause__)
        assert err.attempts == 3
        assert "after 3 attempts" in str(err)
        assert err.item == (Architecture.BASELINE_2D, 0.05, "uniform")

    def test_pooled_raise_names_the_point(self, settings):
        specs = specs_for_grid([Architecture.MIRA_3DM], [0.05, 0.1])
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                specs, settings, processes=2, failure_mode="raise",
                worker_fn=functools.partial(_poison_rate_worker, poison_rate=0.05),
            )
        assert excinfo.value.item == (Architecture.MIRA_3DM, 0.05, "uniform")
        assert "dead point" in excinfo.value.cause


class TestDeterministicOrdering:
    def test_series_order_independent_of_completion_order(self, settings):
        """Workers complete in reverse; the series must not care."""
        archs = [Architecture.MIRA_3DM, Architecture.BASELINE_2D]
        specs = specs_for_grid(archs, [0.05, 0.1])
        staggered = run_sweep(
            specs, settings, processes=4, worker_fn=_stagger_worker
        )
        inline = run_sweep(specs, settings, processes=0)
        assert list(staggered.series) == ["3DM", "2DB"]  # spec order
        assert list(staggered.series) == list(inline.series)
        for arch in staggered.series:
            assert [r for r, _ in staggered.series[arch]] == [0.05, 0.1]
        assert sweep_to_dict(staggered.series) == sweep_to_dict(inline.series)


class TestCacheAndResume:
    def test_interrupted_sweep_resumes_bit_identical(self, settings, tmp_path):
        """Acceptance: interrupt + ``--resume`` == uninterrupted run, with
        every finished point served from cache."""
        specs = specs_for_grid(
            [Architecture.BASELINE_2D, Architecture.MIRA_3DM], [0.05, 0.1]
        )
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "run.jsonl")

        # "Interrupted" run: only the first half of the grid completed.
        partial = run_sweep(
            specs[:2], settings, processes=2,
            cache_dir=cache, journal_path=journal,
        )
        assert partial.stats.executed == 2

        resumed = run_sweep(
            specs, settings, processes=2,
            cache_dir=cache, journal_path=journal, resume=True,
        )
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 2  # only the missing half ran

        uninterrupted = run_sweep(specs, settings, processes=2)
        assert sweep_to_dict(resumed.series) == sweep_to_dict(
            uninterrupted.series
        )

        # The journal recorded both runs, cache-hit points marked so.
        records = RunJournal.load(journal)
        assert [r["type"] for r in records].count("run-start") == 2
        done = [r for r in records if r.get("status") == "done"]
        assert len(done) == 6  # 2 + (2 cached + 2 fresh)
        assert sum(r["cached"] for r in done) == 2

        # A third pass is 100% cache hits, zero recomputation.
        replay = run_sweep(
            specs, settings, processes=2,
            cache_dir=cache, journal_path=journal, resume=True,
        )
        assert replay.stats.cache_hits == 4
        assert replay.stats.executed == 0
        assert sweep_to_dict(replay.series) == sweep_to_dict(
            uninterrupted.series
        )

    def test_cache_on_vs_off_identical_across_all_six_architectures(
        self, settings, tmp_path
    ):
        """Acceptance: cache enabled vs disabled yields identical stats
        for every point across all six architectures."""
        specs = [
            spec
            for config in standard_configs()
            for spec in specs_for_grid([config.arch], [0.1])
        ]
        bare = run_sweep(specs, settings, processes=0)
        filled = run_sweep(
            specs, settings, processes=0, cache_dir=str(tmp_path / "cache")
        )
        served = run_sweep(
            specs, settings, processes=0, cache_dir=str(tmp_path / "cache")
        )
        assert filled.stats.executed == 6 and filled.stats.cache_hits == 0
        assert served.stats.executed == 0 and served.stats.cache_hits == 6
        assert set(bare.series) == {
            "2DB", "3DB", "3DM", "3DM(NC)", "3DM-E", "3DM-E(NC)"
        }
        for arch, series in bare.series.items():
            for (rate, direct), (_, cached), (_, replayed) in zip(
                series, filled.series[arch], served.series[arch]
            ):
                assert point_to_dict(direct) == point_to_dict(cached), arch
                assert point_to_dict(direct) == point_to_dict(replayed), arch

    def test_resume_requires_cache_dir(self, settings):
        with pytest.raises(ValueError):
            run_sweep(
                specs_for_grid([Architecture.BASELINE_2D], [0.05]),
                settings, resume=True,
            )

    def test_inline_timeout_rejected(self, settings):
        with pytest.raises(ValueError):
            run_sweep(
                specs_for_grid([Architecture.BASELINE_2D], [0.05]),
                settings, processes=0, point_timeout=1.0,
            )
