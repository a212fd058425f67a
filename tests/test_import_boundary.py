"""Import boundary of a point run.

The packages export lazily, so a point run loads the cycle model and
the power pricing and nothing else.  Each check runs in a fresh
interpreter: the test session itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Layers a point run must not load: the thermal solver and the numeric
#: stack under it, and the opt-in layers a bare point does not use.
FORBIDDEN = (
    "numpy",
    "scipy",
    "repro.thermal",
    "repro.telemetry",
    "repro.cache",
    "repro.analysis",
    "repro.resilience.faults",
    "repro.resilience.variation",
)

POINT_RUN = """
import repro
import repro.experiments.runner
import repro.experiments.store
import repro.experiments.sweep
import repro.noc.simulator
import repro.cli
from repro.core.arch import Architecture, make_architecture
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec

settings = ExperimentSettings(
    warmup_cycles=20, measure_cycles=100, drain_cycles=1000,
    uniform_rates=(0.05,), nuca_rates=(0.05,), trace_cycles=100,
    workloads=("tpcw",), seed=1,
)
spec = PointSpec(
    config=make_architecture(Architecture.MIRA_3DM), kind="uniform", rate=0.05
)
assert run_point_spec(spec, settings).avg_latency > 0
"""


def _loaded_after(script: str):
    """The modules a fresh interpreter holds after running *script*."""
    code = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _matching(modules, prefixes):
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def test_point_run_loads_no_heavy_or_opt_in_layer():
    loaded = _matching(_loaded_after(POINT_RUN), FORBIDDEN)
    assert loaded == [], f"a point run imported {loaded}"


def test_thermal_figure_loads_the_thermal_stack_on_demand():
    loaded = _loaded_after(
        "from repro.experiments import fig13a_short_flit_fractions"
    )
    assert "repro.experiments.thermal_exp" in loaded
    assert _matching(loaded, ("repro.thermal", "scipy"))
