"""CLI tests (direct invocation of the argparse entry point)."""

import pytest

from repro.cli import main


def test_area_command(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "Crossbar" in out
    assert "230,400" in out


def test_delays_command(capsys):
    assert main(["delays"]) == 0
    out = capsys.readouterr().out
    assert "378.56" in out
    assert "Yes" in out and "No" in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "tpcw" in out and "multimedia" in out


def test_simulate_command(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert main(["simulate", "--arch", "3DM-E", "--rate", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "avg latency" in out
    assert "3DM-E" in out


def test_simulate_nuca_with_short_flits(capsys):
    assert main([
        "simulate", "--arch", "3DM", "--traffic", "nuca",
        "--rate", "0.05", "--short-flits", "0.5",
    ]) == 0
    out = capsys.readouterr().out
    assert "NUCA" in out


def test_simulate_fault_and_variation_flags_match_point_spec(
    capsys, monkeypatch
):
    """The fault and variation flags describe a PointSpec: `simulate`
    prints what run_point_spec gives on the equivalent spec."""
    from repro.core.arch import make_2db
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import PointSpec

    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert main([
        "simulate", "--arch", "2DB", "--rate", "0.1",
        "--fail-link", "8:9", "--stick-vc", "9:1:0",
        "--inject-faults", "2", "--fault-cycle", "100",
        "--variation-sigma", "0.05",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    spec = PointSpec(
        make_2db(), "uniform", 0.1,
        fault_links=((100, 8, 9),),
        fault_vcs=((100, 9, 1, 0),),
        fault_random_links=2,
        fault_cycle=100,
        variation_sigma=0.05,
    )
    point = run_point_spec(spec, ExperimentSettings.quick())
    assert f"avg latency       : {point.avg_latency:.2f} cycles" in lines
    assert f"avg hops          : {point.avg_hops:.2f}" in lines
    assert f"network power     : {point.total_power_w:.3f} W" in lines
    assert any(
        line.startswith("faults            : 3 links killed (hard), "
                        "1 VCs stuck")
        for line in lines
    )
    assert any(line.startswith("variation         : sigma 0.05") for line in lines)


def test_compare_json_matches_point_spec(tmp_path, capsys):
    """`compare --json` writes one row per standard configuration: what
    run_point_spec gives on that configuration's uniform spec."""
    import json

    from repro.core.arch import standard_configs
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import PointSpec

    path = tmp_path / "compare.json"
    assert main(["compare", "--rate", "0.05", "--json", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    rows = json.loads(path.read_text(encoding="utf-8"))["archs"]
    configs = standard_configs()
    assert sorted(rows) == sorted(config.name for config in configs)
    assert len(rows) == 6
    for config in configs:
        point = run_point_spec(
            PointSpec(config, "uniform", 0.05), ExperimentSettings.quick()
        )
        assert rows[config.name]["avg_latency"] == point.avg_latency
        assert rows[config.name]["total_power_w"] == point.total_power_w


def test_simulate_unknown_arch_exits():
    with pytest.raises(SystemExit):
        main(["simulate", "--arch", "bogus"])


@pytest.mark.parametrize("rate", ["0", "-0.1"])
@pytest.mark.parametrize("command", ["simulate", "compare", "diagnose"])
def test_non_positive_rate_is_a_usage_error(command, rate, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--rate", rate])
    assert exc.value.code == 2
    assert "--rate" in capsys.readouterr().err


@pytest.mark.parametrize("fraction", ["-0.1", "1.5", "nan"])
@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_short_flits_outside_unit_interval_is_a_usage_error(
    command, fraction, capsys
):
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--arch", "2DB", "--rate", "0.05",
            "--short-flits", fraction,
        ])
    assert exc.value.code == 2
    assert "--short-flits" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value, needs", [
    ("simulate", "--trace-sample-rate", "2", ["--trace-out", "trace.json"]),
    ("simulate", "--metrics-interval", "0", ["--metrics-out", "m.jsonl"]),
    ("simulate", "--sanitize-interval", "0", ["--sanitize"]),
    ("simulate", "--inject-faults", "-1", []),
    ("simulate", "--variation-sigma", "-1", []),
    ("diagnose", "--interval", "0", []),
    ("diagnose", "--sample-rate", "2", []),
    ("diagnose", "--head-tail", "-1", []),
    ("diagnose", "--top", "0", []),
    ("simulate", "--fault-cycle", "-3", []),
    # A fault the network does not have: no node 99, no channel 0 -> 5.
    ("simulate", "--stick-vc", "99:0:0", []),
    ("simulate", "--fail-link", "0:5", []),
    ("simulate", "--trace-head-tail", "-1", ["--trace-out", "trace.json"]),
])
def test_out_of_range_option_is_a_usage_error(
    command, option, value, needs, tmp_path, capsys
):
    needs = [str(tmp_path / arg) if "." in arg else arg for arg in needs]
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--arch", "2DB", "--rate", "0.05", option, value,
            *needs,
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert option in err


#: One small inline sweep point, so a value that slips through runs fast.
SMALL_SWEEP = ["sweep", "--archs", "2DB", "--rates", "0.05", "--processes", "0"]


@pytest.mark.parametrize("argv, option", [
    (SMALL_SWEEP + ["--processes", "-1"], "--processes"),
    (SMALL_SWEEP + ["--retries", "-1"], "--retries"),
    (SMALL_SWEEP + ["--backoff", "-1"], "--backoff"),
    (SMALL_SWEEP + ["--point-timeout", "0"], "--point-timeout"),
    (["trace", "--cycles", "0"], "--cycles"),
])
def test_out_of_range_run_option_is_a_usage_error(
    argv, option, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert option in err


@pytest.mark.parametrize("rates", ["abc", "-0.1", "0", "0.05,nan", "0.05,,0.1"])
def test_bad_sweep_rates_are_a_usage_error(rates, tmp_path, capsys, monkeypatch):
    """Every ``--rates`` entry must be a positive finite number; a bad
    one ends in a usage error naming the flag before any point runs."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--archs", "2DB", "--rates", rates, "--processes", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--rates" in err


def test_trace_command(tmp_path, capsys):
    output = tmp_path / "trace.txt"
    assert main([
        "trace", "--workload", "tpcw", "--cycles", "5000",
        "--output", str(output),
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert output.exists()
    from repro.traffic.traces import read_trace

    assert len(read_trace(output)) > 0


def test_trace_unknown_workload_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "--workload", "nope", "--output",
              str(tmp_path / "t.txt")])


def test_experiment_fig9(capsys):
    assert main(["experiment", "fig9"]) == 0
    out = capsys.readouterr().out
    assert "crossbar" in out


def test_experiment_unknown_exits():
    with pytest.raises(SystemExit):
        main(["experiment", "nope"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_report_command(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "table1_area.txt").write_text("areas\n")
    assert main(["report", "--results", str(results)]) == 0
    assert (results / "REPORT.md").exists()


def test_report_command_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["report", "--results", str(tmp_path / "nope")])


def test_simulate_telemetry_flags(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_SCALE", "quick")
    metrics = tmp_path / "metrics.jsonl"
    trace = tmp_path / "trace.json"
    assert main([
        "simulate", "--arch", "3DM", "--rate", "0.1",
        "--short-flits", "0.5",
        "--metrics-out", str(metrics),
        "--trace-out", str(trace),
        "--metrics-interval", "50",
    ]) == 0
    out = capsys.readouterr().out
    assert "--- telemetry ---" in out
    assert "windows sampled" in out

    records = [json.loads(l) for l in metrics.read_text().splitlines()]
    assert records[0]["type"] == "meta"
    assert records[0]["interval"] == 50
    assert records[-1]["type"] == "end"
    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]
    assert payload["otherData"]["ts_unit"] == "simulation cycles"


def test_simulate_without_telemetry_flags_prints_no_block(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert main(["simulate", "--arch", "2DB", "--rate", "0.05"]) == 0
    assert "--- telemetry ---" not in capsys.readouterr().out


def test_sweep_command_cache_and_resume(tmp_path, capsys):
    import json

    args = [
        "sweep", "--archs", "2DB", "--rates", "0.05", "--processes", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--journal", str(tmp_path / "run.jsonl"),
        "--out", str(tmp_path / "sweep.json"),
        "--stats-out", str(tmp_path / "stats.json"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "--- sweep engine ---" in out
    assert "cache hits        : 0" in out
    stats = json.loads((tmp_path / "stats.json").read_text())["stats"]
    assert stats["executed"] == 1 and stats["cache_hits"] == 0

    exported = json.loads((tmp_path / "sweep.json").read_text())
    assert exported["2DB"][0]["rate"] == 0.05

    # Resume: the one point comes straight from the cache.
    assert main(args + ["--resume"]) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())["stats"]
    assert stats["executed"] == 0 and stats["cache_hits"] == 1
    resumed = json.loads((tmp_path / "sweep.json").read_text())
    assert resumed == exported  # bit-identical through the cache
    assert (tmp_path / "run.jsonl").read_text().count('"run-start"') == 2


def test_sweep_command_unknown_arch_exits():
    with pytest.raises(SystemExit):
        main(["sweep", "--archs", "5DX", "--rates", "0.05"])


def test_experiment_accepts_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "quick")
    # fig13a runs trace generation only (no per-point cache use), but
    # must accept the flag; the store is created up front.
    assert main([
        "experiment", "fig13a", "--cache-dir", str(tmp_path / "cache")
    ]) == 0
    assert (tmp_path / "cache").is_dir()
