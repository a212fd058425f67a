#!/usr/bin/env python
"""CI check: fault-injection smoke + variation-sweep determinism.

Two gates, both driving the shipped surfaces end to end:

1. **Fault smoke** — the real CLI (``python -m repro simulate``) injects
   two seeded-random link faults into 3DM-E mid-run with the sanitizer
   auditing every cycle, then the same run is repeated in-process and
   must (a) reroute around the damage (zero drops, not saturated),
   (b) keep every invariant (no sanitizer raise, no watchdog report),
   and (c) report the injection in the fault summary.
2. **Variation determinism** — the same variation+fault ``PointSpec``
   is executed in two fresh interpreters under different
   ``PYTHONHASHSEED`` values; the canonical ``PointResult`` JSON must
   be byte-identical (the property the content-addressed sweep cache
   stakes its correctness on).

Exits non-zero on any violated invariant.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")

ARCH = "3DM-E"
RATE = 0.1
FAULTS = 2
FAULT_SEED = 4
FAULT_CYCLE = 50


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _env(hash_seed: str = "0") -> dict:
    return {
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": hash_seed,
        "REPRO_SCALE": "quick",
        "PATH": "/usr/bin:/bin",
    }


def check_cli_fault_smoke() -> None:
    """The CLI injects, reroutes, sanitizes, and reports the damage."""
    cmd = [
        sys.executable, "-m", "repro", "simulate",
        "--arch", ARCH, "--rate", str(RATE),
        "--inject-faults", str(FAULTS),
        "--fault-seed", str(FAULT_SEED),
        "--fault-cycle", str(FAULT_CYCLE),
        "--fault-mode", "drain",
        "--sanitize",
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=_env(), cwd=REPO_ROOT
    )
    if proc.returncode != 0:
        fail(f"CLI fault injection run failed:\n{proc.stderr}")
    out = proc.stdout
    if f"{FAULTS} links killed" not in out:
        fail(f"CLI output missing the fault summary line:\n{out}")
    print("CLI fault smoke: injected, sanitized, reported. OK")


def check_inprocess_fault_invariants() -> None:
    """Same injection in-process: delivery, reroute, invariants."""
    sys.path.insert(0, SRC)
    from repro.core.arch import make_3dme
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import PointSpec

    spec = PointSpec(
        make_3dme(), "uniform", RATE,
        fault_random_links=FAULTS, fault_seed=FAULT_SEED,
        fault_cycle=FAULT_CYCLE, fault_mode="drain",
    )
    point = run_point_spec(spec, ExperimentSettings.quick(), sanitize=True)
    sim = point.sim
    if sim.fault_summary["links_killed"] != FAULTS:
        fail(f"expected {FAULTS} links killed, got {sim.fault_summary}")
    if sim.packets_dropped != 0:
        fail(f"drain-mode reroute dropped {sim.packets_dropped} packets")
    if sim.saturated:
        fail("injected run saturated (wedged traffic?)")
    if sim.packets_delivered <= 0:
        fail("injected run delivered nothing")
    if sim.sanity is None or sim.sanity.audits == 0:
        fail("sanitizer did not audit the injected run")
    if sim.sanity.watchdog_reports:
        fail(f"watchdog tripped: {sim.sanity.watchdog_reports}")
    print(
        f"in-process fault invariants: {sim.packets_delivered} delivered,"
        f" 0 dropped, {sim.sanity.audits} audits clean. OK"
    )


DETERMINISM_CODE = """\
import json
from repro.core.arch import make_3dm
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec, canonical_json, \
    point_key, point_result_to_json

settings = ExperimentSettings.quick()
spec = PointSpec(
    make_3dm(), "uniform", 0.15,
    fault_random_links=1, fault_seed=3, fault_cycle=40, fault_mode="drain",
    variation_sigma=0.2, variation_seed=11,
)
point = run_point_spec(spec, settings)
print(point_key(spec, settings))
print(canonical_json(point_result_to_json(point)))
"""


def check_variation_determinism() -> None:
    """Same seed, fresh interpreters, hostile hash seeds: same JSON."""
    outputs = []
    for hash_seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_CODE],
            capture_output=True, text=True, env=_env(hash_seed),
        )
        if proc.returncode != 0:
            fail(f"determinism run (hashseed {hash_seed}) failed:\n"
                 f"{proc.stderr}")
        outputs.append(proc.stdout)
    if outputs[0] != outputs[1]:
        fail("variation+fault PointResult JSON differs across "
             "PYTHONHASHSEED values — the sweep cache would be poisoned")
    key, payload = outputs[0].split("\n", 1)
    print(
        f"variation determinism: key {key[:16]}… and "
        f"{len(payload)} bytes of result JSON identical across "
        "interpreters. OK"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    check_cli_fault_smoke()
    check_inprocess_fault_invariants()
    check_variation_determinism()
    print("resilience check: all gates passed")


if __name__ == "__main__":
    main()
