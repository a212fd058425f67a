"""Property tests for cache-key stability and the result store.

The content-addressed cache is only sound if the key is (a) a pure
function of the point's configuration — same config, however built,
same key — and (b) sensitive to *every* field of that configuration.
These tests pin both directions, plus cross-process stability (a worker
computing a key must agree with its parent regardless of hash
randomisation) and the store's corruption-degrades-to-miss contract.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.arch import Architecture, make_2db, make_3dm, make_architecture
from repro.experiments.config import ExperimentSettings
from repro.experiments.export import point_to_dict
from repro.experiments.runner import run_point_spec
from repro.experiments.store import (
    SCHEMA_VERSION,
    PointSpec,
    ResultStore,
    canonical_json,
    point_key,
    point_result_from_json,
    point_result_to_json,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=100,
        measure_cycles=400,
        drain_cycles=2000,
        uniform_rates=(0.1,),
        nuca_rates=(0.1,),
        trace_cycles=2000,
        workloads=("tpcw",),
        seed=7,
    )


class TestSpecValidation:
    @pytest.mark.parametrize("field, value", [
        ("rate", 0.0),
        ("rate", -0.1),
        ("rate", float("nan")),
        ("rate", float("inf")),
        ("short_flit_fraction", -0.1),
        ("short_flit_fraction", 3.0),
        ("short_flit_fraction", float("nan")),
    ])
    def test_unusable_value_rejected(self, field, value):
        """A value no run can use fails at the spec, before it is
        hashed into a store key."""
        kwargs = {"rate": 0.1, field: value}
        with pytest.raises(ValueError, match=field):
            PointSpec(make_2db(), "uniform", **kwargs)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_fraction_bounds_accepted(self, fraction):
        spec = PointSpec(make_2db(), "nuca", 0.05, short_flit_fraction=fraction)
        assert spec.short_flit_fraction == fraction


class TestKeyStability:
    def test_same_config_built_two_ways(self, settings):
        """Factory helper vs enum dispatch: identical config, identical key."""
        a = PointSpec(make_3dm(), "uniform", 0.2)
        b = PointSpec(
            config=make_architecture(Architecture.MIRA_3DM),
            rate=0.2,
            kind="uniform",
        )
        assert point_key(a, settings) == point_key(b, settings)

    def test_dataclass_replace_identity(self, settings):
        config = make_2db()
        rebuilt = dataclasses.replace(config)
        assert point_key(
            PointSpec(config, "uniform", 0.1), settings
        ) == point_key(PointSpec(rebuilt, "uniform", 0.1), settings)

    def test_explicit_seed_equals_settings_seed(self, settings):
        """``seed=None`` hashes the effective seed, not the spelling."""
        implicit = PointSpec(make_2db(), "uniform", 0.1)
        explicit = PointSpec(make_2db(), "uniform", 0.1, seed=settings.seed)
        assert point_key(implicit, settings) == point_key(explicit, settings)

    def test_key_is_repeatable(self, settings):
        spec = PointSpec(make_3dm(), "nuca", 0.15, short_flit_fraction=0.25)
        assert point_key(spec, settings) == point_key(spec, settings)

    def test_randomized_single_field_mutations_change_key(self, settings):
        """Seeded property sweep: any one field changing changes the key."""
        rng = random.Random(0xC0FFEE)
        base_spec = PointSpec(make_3dm(), "uniform", 0.2)
        base_key = point_key(base_spec, settings)

        def spec_mutations(rng):
            yield PointSpec(make_3dm(), "nuca", 0.2)
            yield PointSpec(make_3dm(), "uniform", 0.2 + rng.uniform(0.001, 0.1))
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                short_flit_fraction=rng.uniform(0.01, 0.9),
            )
            yield PointSpec(make_3dm(), "uniform", 0.2, shutdown_enabled=True)
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                seed=settings.seed + rng.randrange(1, 1000),
            )
            yield PointSpec(make_2db(), "uniform", 0.2)
            # Resilience fields (schema v3): damage and variation are
            # point identity too.
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_links=((0, 0, 1),),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_vcs=((0, 0, 0, rng.randrange(2)),),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_random_links=rng.randrange(1, 4),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_random_links=1, fault_seed=rng.randrange(1, 1000),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_random_links=1, fault_cycle=rng.randrange(1, 1000),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                fault_random_links=1, fault_mode="drain",
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                variation_sigma=rng.uniform(0.01, 0.5),
            )
            yield PointSpec(
                make_3dm(), "uniform", 0.2,
                variation_sigma=0.1, variation_seed=rng.randrange(1, 1000),
            )

        seen = {base_key}
        for trial in range(20):
            for spec in spec_mutations(rng):
                key = point_key(spec, settings)
                assert key != base_key, spec
            # Config-field mutations: bump one numeric field at a time.
            for field_name in ("layers", "ports", "flit_bits", "vcs",
                               "buffer_depth", "express_span"):
                value = getattr(base_spec.config, field_name)
                mutated = dataclasses.replace(
                    base_spec.config, **{field_name: value + rng.randrange(1, 4)}
                )
                key = point_key(
                    PointSpec(mutated, "uniform", 0.2), settings
                )
                assert key != base_key, field_name
                seen.add(key)
        assert len(seen) > 1

    def test_settings_budgets_are_part_of_the_key(self, settings):
        """Same point at different cycle budgets must never collide."""
        spec = PointSpec(make_2db(), "uniform", 0.1)
        base = point_key(spec, settings)
        for field_name in ("warmup_cycles", "measure_cycles", "drain_cycles",
                           "seed"):
            other = dataclasses.replace(
                settings, **{field_name: getattr(settings, field_name) + 1}
            )
            assert point_key(spec, other) != base, field_name
        # Sweep-grid fields are *not* point identity: the same point in
        # a different grid must hit the same cache entry.
        regrid = dataclasses.replace(settings, uniform_rates=(0.1, 0.2, 0.3))
        assert point_key(spec, regrid) == base

    def test_key_stable_across_subprocess(self, settings):
        """A fresh interpreter (spawn semantics) with a different hash
        seed computes the same key as this process."""
        spec = PointSpec(make_3dm(), "uniform", 0.2, short_flit_fraction=0.5)
        code = (
            "from repro.core.arch import make_3dm\n"
            "from repro.experiments.config import ExperimentSettings\n"
            "from repro.experiments.store import PointSpec, point_key\n"
            "settings = ExperimentSettings(warmup_cycles=100,"
            " measure_cycles=400, drain_cycles=2000, uniform_rates=(0.1,),"
            " nuca_rates=(0.1,), trace_cycles=2000, workloads=('tpcw',),"
            " seed=7)\n"
            "spec = PointSpec(make_3dm(), 'uniform', 0.2,"
            " short_flit_fraction=0.5)\n"
            "print(point_key(spec, settings))\n"
        )
        for hash_seed in ("0", "1", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": str(REPO_ROOT / "src"),
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            assert proc.stdout.strip() == point_key(spec, settings)

    def test_canonical_json_rejects_unserialisable(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})


class TestResultStoreRoundTrip:
    @pytest.fixture(scope="class")
    def point(self, settings):
        return run_point_spec(PointSpec(make_2db(), "uniform", 0.1), settings)

    def test_serialisation_is_lossless(self, point):
        clone = point_result_from_json(point_result_to_json(point))
        assert point_to_dict(clone) == point_to_dict(point)
        assert clone.node_activity == point.node_activity
        assert clone.sim.events.channel_flits == point.sim.events.channel_flits
        assert clone.sim.events.link_mm_weighted == point.sim.events.link_mm_weighted
        assert clone.sim.activity_windows == point.sim.activity_windows
        assert clone.power.breakdown_w == point.power.breakdown_w

    def test_store_put_get(self, tmp_path, settings, point):
        store = ResultStore(tmp_path / "cache")
        spec = PointSpec(make_2db(), "uniform", 0.1)
        key = point_key(spec, settings)
        assert store.get(key) is None
        store.put(key, point)
        assert key in store
        hit = store.get(key)
        assert hit is not None
        assert point_to_dict(hit) == point_to_dict(point)
        assert store.hits == 1 and store.misses == 1 and store.writes == 1
        assert len(store) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path, settings, point):
        store = ResultStore(tmp_path / "cache")
        spec = PointSpec(make_2db(), "uniform", 0.1)
        key = point_key(spec, settings)
        store.put(key, point)
        store.path_for(key).write_text("{ torn write", encoding="utf-8")
        assert store.get(key) is None

    def test_schema_drift_reads_as_miss(self, tmp_path, settings, point):
        store = ResultStore(tmp_path / "cache")
        spec = PointSpec(make_2db(), "uniform", 0.1)
        key = point_key(spec, settings)
        store.put(key, point)
        path = store.path_for(key)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert store.get(key) is None
