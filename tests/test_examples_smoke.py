"""Smoke tests: the two fastest example scripts must run end to end,
and so must the packet-trace section of ``saturation_analysis.py``.

(The heavier examples exercise the same APIs the test suite already
covers; running all six here would double the suite's wall time.)
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart_runs():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "avg packet latency" in result.stdout
    assert "network power" in result.stdout


def test_nuca_cmp_workload_runs():
    result = _run("nuca_cmp_workload.py", "tpcw")
    assert result.returncode == 0, result.stderr
    assert "closed-loop mode" in result.stdout
    assert "offline mode" in result.stdout


def test_saturation_analysis_trace_one_packet(capsys):
    """The example's packet-trace section (the rest of the script runs
    saturation searches for minutes) prints the recorder's route."""
    example = runpy.run_path(
        str(EXAMPLES / "saturation_analysis.py"), run_name="example"
    )
    example["trace_one_packet"]()
    out = capsys.readouterr().out
    assert (
        "route: (0,0) -> (2,0) -> (4,0) -> (5,0) -> (5,2) -> (5,4) -> (5,5)"
        in out
    )
    assert "hops : 6" in out


def test_nuca_cmp_workload_rejects_unknown():
    result = _run("nuca_cmp_workload.py", "not-a-workload")
    assert result.returncode != 0


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "design_space_sweep.py",
        "nuca_cmp_workload.py",
        "thermal_shutdown_study.py",
        "extensions_tour.py",
        "saturation_analysis.py",
    ],
)
def test_examples_importable(script):
    """Every example at least compiles (full runs are covered above and
    by manual/bench usage)."""
    source = (EXAMPLES / script).read_text()
    compile(source, script, "exec")
