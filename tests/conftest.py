"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.arch import make_2db, make_3db, make_3dm, make_3dme
from repro.experiments.config import ExperimentSettings

#: ``--hypothesis-profile=ci``: the CI allocator-differential step runs
#: many more examples, derandomized so a failure reproduces exactly.
settings.register_profile(
    "ci", max_examples=1000, derandomize=True, deadline=None
)


@pytest.fixture(autouse=True, scope="session")
def _sanitize_from_env():
    """Opt the whole suite into the NoC sanitizer via ``REPRO_SANITIZE=1``.

    CI runs a second tier-1 pass with the variable set; every
    :class:`~repro.noc.network.Network` any test builds then gets a
    :class:`~repro.noc.sanitizer.NetworkSanitizer` attached right after
    construction, auditing the flit-conservation / credit / VC-state
    invariants as it steps (``REPRO_SANITIZE_INTERVAL`` controls the
    audit cadence, default every cycle).
    """
    if os.environ.get("REPRO_SANITIZE", "") in ("", "0"):
        yield
        return
    from repro.noc.network import Network
    from repro.noc.sanitizer import NetworkSanitizer

    interval = int(os.environ.get("REPRO_SANITIZE_INTERVAL", "1"))
    original = Network.__init__

    def sanitizing_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.sanitizer is None:
            self.sanitizer = NetworkSanitizer(self, interval=interval)

    Network.__init__ = sanitizing_init
    try:
        yield
    finally:
        Network.__init__ = original


@pytest.fixture
def cfg_2db():
    return make_2db()


@pytest.fixture
def cfg_3db():
    return make_3db()


@pytest.fixture
def cfg_3dm():
    return make_3dm()


@pytest.fixture
def cfg_3dme():
    return make_3dme()


@pytest.fixture
def all_configs(cfg_2db, cfg_3db, cfg_3dm, cfg_3dme):
    return [cfg_2db, cfg_3db, cfg_3dm, cfg_3dme]


@pytest.fixture
def tiny_settings():
    """Very small cycle budgets for fast simulation tests."""
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=800,
        drain_cycles=5000,
        uniform_rates=(0.05, 0.2),
        nuca_rates=(0.05, 0.15),
        trace_cycles=8000,
        workloads=("tpcw",),
        seed=11,
    )
