"""Differential resilience tests: zero-cost when idle, clean when hurt.

Two halves of the resilience contract:

* **fault-free bit-identity** — every golden e2e case re-run with an
  *empty-plan* fault injector attached AND a sigma-0 variation sample
  threaded through must reproduce the committed golden digest
  bit-for-bit (reuses the fixture of ``test_golden_e2e``, so a drift
  fails against the same committed truth);
* **injected full-sanitize** — all six architectures run with injected
  link faults and drain-mode reroute under a
  sanitize-every-cycle sweep: zero invariant violations, zero watchdog
  trips, and the conservation ledger balances.
"""

import json
import os

import pytest

from repro.experiments import runner
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.resilience.faults import FaultPlan
from repro.resilience.variation import VariationModel

from tests.test_golden_e2e import CASES, FIXTURE, SETTINGS, compute_digest


def _run_with_idle_resilience(spec: PointSpec, monkeypatch):
    """Run *spec* exactly as the golden harness does, but with an empty
    fault plan attached and a sigma-0 variation sample applied.

    No spec field spells either one (both mean "nothing attached"), so
    the runner's spec-to-plan hooks are patched to hand them over.
    """
    monkeypatch.setattr(runner, "fault_plan_for_spec", lambda _: FaultPlan())
    monkeypatch.setattr(
        runner,
        "variation_sample_for_spec",
        lambda spec: VariationModel(0.0, seed=3).sample_for(spec.config),
    )
    return run_point_spec(spec, SETTINGS)


@pytest.fixture(scope="module")
def golden_digests():
    if not FIXTURE.exists():
        pytest.fail("golden fixture missing (see docs/TESTING.md)")
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {name: case["digest"] for name, case in data["cases"].items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_idle_resilience_machinery_is_bit_identical(
    name, golden_digests, monkeypatch
):
    """Attached-but-inactive injector + sigma-0 variation must not move
    a single bit of any golden case (the zero-cost-when-detached and
    bit-identical-when-fault-free acceptance gates)."""
    point = _run_with_idle_resilience(CASES[name], monkeypatch)
    assert point.sim.fault_summary is not None, (
        f"{name}: the idle fault injector was not attached"
    )
    assert compute_digest(point) == golden_digests[name], (
        f"{name}: idle fault injector / sigma-0 variation perturbed "
        "the simulation — the resilience hooks are not free"
    )


class TestInjectedFullSanitize:
    """Every architecture, damaged and audited every cycle."""

    @pytest.mark.parametrize(
        "spec", [CASES[f"{name}:uniform"] for name in sorted(
            {key.split(":")[0] for key in CASES}
        )], ids=lambda spec: spec.config.name,
    )
    def test_injected_run_sanitizes_clean(self, spec):
        damaged = PointSpec(
            spec.config, "uniform", 0.1,
            fault_random_links=2, fault_seed=5, fault_cycle=50,
            fault_mode="drain",
        )
        point = run_point_spec(damaged, SETTINGS, sanitize=True)
        result = point.sim
        assert result.fault_summary["links_killed"] == 2
        # Audited throughout and never raised; watchdog never tripped.
        # (REPRO_SANITIZE may have pre-attached a sanitizer with a
        # coarser cadence — the Simulator keeps it — so derive the
        # expected audit count from the actual cadence.)
        assert result.sanity is not None
        interval = int(os.environ.get("REPRO_SANITIZE_INTERVAL", "1") or 1)
        assert result.sanity.audits >= (result.cycles - 1) // max(interval, 1)
        assert result.sanity.last_audit_cycle >= result.cycles - max(interval, 1) - 1
        assert result.sanity.watchdog_reports == ()
        # Conservation: everything injected was delivered or counted as
        # a drop (drain mode wedges nothing).
        assert result.packets_delivered > 0
        assert not result.saturated

    def test_variation_run_sanitizes_clean(self):
        """Variation (a slow corner) composes with the sanitizer too."""
        from repro.core.arch import make_3dm

        spec = PointSpec(
            make_3dm(), "uniform", 0.1, variation_sigma=0.3, variation_seed=9
        )
        point = run_point_spec(spec, SETTINGS, sanitize=True)
        assert point.sim.sanity is not None
        assert point.sim.sanity.watchdog_reports == ()
        assert point.sim.packets_delivered > 0
