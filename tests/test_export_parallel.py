"""JSON export and parallel-sweep tests.

The parallel sweep is :func:`~repro.experiments.sweep.run_sweep` with
worker processes; ``processes=0`` is its inline (in-process) path.
"""

import json

import pytest

from repro.core.arch import Architecture, make_2db
from repro.experiments.config import ExperimentSettings
from repro.experiments.export import (
    export_json,
    point_to_dict,
    sweep_to_dict,
)
from repro.experiments.runner import run_uniform_point
from repro.experiments.store import SweepPointError
from repro.experiments.sweep import run_sweep, specs_for_grid


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=800,
        drain_cycles=4000,
        uniform_rates=(0.1,),
        nuca_rates=(0.1,),
        trace_cycles=4000,
        workloads=("tpcw",),
        seed=17,
    )


@pytest.fixture(scope="module")
def point(settings):
    return run_uniform_point(make_2db(), 0.1, settings)


class TestExport:
    def test_point_dict_fields(self, point):
        data = point_to_dict(point)
        assert data["arch"] == "2DB"
        assert data["avg_latency_cycles"] > 0
        assert data["power_w"]["total"] == pytest.approx(point.total_power_w)
        assert set(data["power_w"]["breakdown"]) == {
            "buffer", "crossbar", "link", "arbitration", "control",
        }

    def test_point_dict_json_serialisable(self, point):
        json.dumps(point_to_dict(point))

    def test_sweep_to_dict(self, point):
        sweep = {"2DB": [(0.1, point)]}
        data = sweep_to_dict(sweep)
        assert data["2DB"][0]["rate"] == 0.1

    def test_export_json_roundtrip(self, tmp_path, point):
        path = export_json(
            {"sweep": sweep_to_dict({"2DB": [(0.1, point)]})},
            tmp_path / "out" / "run.json",
        )
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded["sweep"]["2DB"][0]["arch"] == "2DB"

    def test_export_json_handles_dataclasses_and_tuples(self, tmp_path):
        from repro.timing.delay import stage_delay_report

        report = stage_delay_report("x", 5, 128, 4, 1.58)
        path = export_json({"t3": [report], "pair": (1, 2)},
                           tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["t3"][0]["xbar_ps"] == pytest.approx(142.86, rel=1e-3)
        assert loaded["pair"] == [1, 2]


def sweep(archs, rates, settings, **kwargs):
    """``run_sweep`` over the ``archs x rates`` uniform grid, raising on
    the first failed point; returns the ``arch -> [(rate, point)]``
    series."""
    return run_sweep(
        specs_for_grid(archs, rates), settings, failure_mode="raise",
        **kwargs,
    ).series


def _failing_worker(spec, settings):
    raise RuntimeError("simulated worker crash")


class TestParallelSweep:
    def test_matches_serial_results(self, settings):
        serial = run_uniform_point(make_2db(), 0.1, settings)
        result = sweep([Architecture.BASELINE_2D], [0.1], settings,
                       processes=2)
        (rate, point), = result["2DB"]
        assert rate == 0.1
        assert point.avg_latency == serial.avg_latency  # determinism holds
        assert point_to_dict(point) == point_to_dict(serial)

    def test_multiple_archs_and_rates(self, settings):
        result = sweep(
            [Architecture.BASELINE_2D, Architecture.MIRA_3DM],
            [0.05, 0.1],
            settings,
            processes=2,
        )
        assert set(result) == {"2DB", "3DM"}
        for series in result.values():
            assert [r for r, _ in series] == [0.05, 0.1]

    def test_single_process_fallback(self, settings):
        result = sweep([Architecture.MIRA_3DM_E], [0.1], settings,
                       processes=1)
        assert "3DM-E" in result

    def test_validation(self, settings):
        with pytest.raises(ValueError):
            sweep([Architecture.BASELINE_2D], [0.1], settings, processes=-1)
        with pytest.raises(ValueError):
            specs_for_grid([Architecture.BASELINE_2D], [0.1], kind="bogus")

    def test_worker_failure_names_work_item(self, settings):
        with pytest.raises(SweepPointError) as excinfo:
            sweep([Architecture.BASELINE_2D], [0.1], settings, processes=0,
                  worker_fn=_failing_worker)
        err = excinfo.value
        assert err.item == (Architecture.BASELINE_2D, 0.1, "uniform")
        assert "arch=2DB" in str(err)
        assert "rate=0.1" in str(err)
        assert "simulated worker crash" in str(err)

    def test_sweep_point_error_survives_pickle(self):
        import pickle

        err = SweepPointError(
            (Architecture.MIRA_3DM, 0.2, "nuca"), "ValueError: boom", 3
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SweepPointError)
        assert clone.item == err.item
        assert clone.cause == err.cause
        assert clone.attempts == 3
        assert str(clone) == str(err)
        assert "arch=3DM" in str(clone) and "kind='nuca'" in str(clone)

    def test_spawn_fallback_when_fork_unavailable(self, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        calls = []

        def fake_get_context(method):
            calls.append(method)
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return method

        monkeypatch.setattr(sweep_mod, "get_context", fake_get_context)
        assert sweep_mod._mp_context() == "spawn"
        assert calls == ["fork", "spawn"]


class TestSweepTelemetry:
    @staticmethod
    def check_per_point_streams(settings, out_dir, processes):
        result = sweep(
            [Architecture.BASELINE_2D], [0.05, 0.1], settings,
            processes=processes, telemetry_dir=str(out_dir),
        )
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "2DB_uniform@0.05.jsonl", "2DB_uniform@0.1.jsonl",
        ]
        stream = out_dir / "2DB_uniform@0.1.jsonl"
        records = [json.loads(l) for l in stream.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "end"
        assert any(r["type"] == "sample" for r in records)
        # Telemetry must not perturb the sweep itself.
        bare = sweep([Architecture.BASELINE_2D], [0.05, 0.1], settings,
                     processes=processes)
        assert sweep_to_dict(result) == sweep_to_dict(bare)

    def test_telemetry_dir_writes_per_point_streams(self, settings, tmp_path):
        self.check_per_point_streams(settings, tmp_path / "timelines", 1)

    def test_inline_sweep_writes_per_point_streams(self, settings, tmp_path):
        """``processes=0`` runs points through the same telemetry-aware
        worker as the pooled path."""
        self.check_per_point_streams(settings, tmp_path / "timelines", 0)

    def test_no_telemetry_dir_writes_nothing(self, settings, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep([Architecture.BASELINE_2D], [0.1], settings, processes=1)
        sweep([Architecture.BASELINE_2D], [0.1], settings, processes=0)
        assert not list(tmp_path.iterdir())
