"""Tests of the benchmark harness itself.

    python -m pytest benchmarks/bench -q

Workloads run with tiny cycle budgets, one set-up interpreter and no
time box, all passed as arguments to :func:`bench.run_workload`, so the
file finishes in well under a minute.
"""

from __future__ import annotations

import json
import shutil

import pytest

import bench

TINY = (20, 200)
SEED = 3


def _run(name, trace=False, **kwargs):
    return bench.run_workload(
        name, seed=SEED, seconds=0, trace=trace, cycles=TINY, setup_runs=1,
        **kwargs,
    )


def _boom(spec, settings):
    raise RuntimeError("injected worker failure")


@pytest.fixture(scope="module")
def definition():
    return bench.benchmark_definition()


@pytest.fixture(scope="module")
def untraced():
    return {name: _run(name) for name in bench.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, trace=True) for name in bench.WORKLOADS}


@pytest.fixture
def scratch():
    path = bench.WORK / "test-scratch"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_names_the_workloads(definition):
    assert [w["name"] for w in definition["workloads"]] == list(bench.WORKLOADS)


def test_committed_digests_cover_every_point():
    committed = json.loads(bench.EXPECTED_JSON.read_text(encoding="utf-8"))
    assert committed["seed"] == bench.DEFAULT_SEED
    assert set(committed["workloads"]) == set(bench.WORKLOADS)
    for name, workload in bench.WORKLOADS.items():
        specs = workload.specs(bench.DEFAULT_SEED)
        labels = {spec.describe() for spec in specs}
        labels.add(bench._warm_up_label(specs[workload.probe]))
        assert set(committed["workloads"][name]) == labels


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, untraced, definition):
    metrics = untraced[name]["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in definition["end_to_end"]}
    for metric in definition["end_to_end"]:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_per_layer_metric_is_emitted_with_its_unit(name, traced, definition):
    metrics = traced[name]["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in definition["per_layer"]}
    for metric in definition["per_layer"]:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_no_operation_fails(name, untraced, traced):
    for report in (untraced[name], traced[name]):
        result = report["result"]
        assert result["correct"], report["failures"]
        assert result["attempted"] >= 1
        assert result["failed"] == 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_digests_repeat_across_two_runs(name, untraced):
    again = _run(name)
    assert again["digests"] == untraced[name]["digests"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_reproduces_untraced_digests(name, untraced, traced):
    assert traced[name]["digests"] == untraced[name]["digests"]


def test_raising_worker_fails_every_sweep_point():
    report = _run("fig11a_sweep", worker_fn=_boom)
    points = len(bench.WORKLOADS["fig11a_sweep"].specs(SEED))
    # Every cold and every warm point fails; the warm-up rep succeeds.
    assert report["result"]["failed"] == 2 * points
    assert report["result"]["correct"] is False
    assert report["error_rate"] > 0


def test_forced_digest_mismatch_fails_every_rep():
    report = _run("mira3dm_ur_mid", expected={"3DM uniform@0.15": "0" * 64})
    result = report["result"]
    assert result["failed"] == result["attempted"] >= bench.MIN_REPS
    assert report["error_rate"] == 1.0


def test_compare_checks_digests_and_bounds(untraced, scratch, definition):
    report = untraced["chiplet_nuca_low"]
    base = scratch / "a.jsonl"
    base.write_text(json.dumps(report) + "\n", encoding="utf-8")
    assert bench.compare(str(base), str(base)) == 0

    bound = {m["name"]: m["bound"] for m in definition["end_to_end"]}["wall_s"]
    slower = json.loads(json.dumps(report))
    slower["result"]["metrics"]["wall_s"]["value"] *= 1 + 2 * bound
    worse = scratch / "b.jsonl"
    worse.write_text(json.dumps(slower) + "\n", encoding="utf-8")
    assert bench.compare(str(base), str(worse)) == 1

    drifted = json.loads(json.dumps(report))
    drifted["digests"]["CHIPLET nuca@0.05"] = "f" * 64
    moved = scratch / "c.jsonl"
    moved.write_text(json.dumps(drifted) + "\n", encoding="utf-8")
    assert bench.compare(str(base), str(moved)) == 1
