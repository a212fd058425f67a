"""Shared experiment settings.

One knob matters: scale.  ``ExperimentSettings.quick()`` keeps every
harness fast enough for CI/pytest-benchmark; ``ExperimentSettings.full()``
runs the longer sweeps behind the committed EXPERIMENTS.md numbers.  The
``REPRO_SCALE`` environment variable (``quick``/``full``) selects the
default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class ExperimentSettings:
    """Cycle budgets and sweep points for the simulation harnesses."""

    warmup_cycles: int
    measure_cycles: int
    drain_cycles: int
    #: Flit injection rates per node for the UR sweeps (Figs. 11a, 12a).
    uniform_rates: Tuple[float, ...]
    #: Request rates per CPU for the NUCA-UR sweeps (Figs. 11b, 12b).
    nuca_rates: Tuple[float, ...]
    #: Hierarchy cycles simulated when generating each MP trace.
    trace_cycles: int
    #: Workloads used for the MP-trace experiments.
    workloads: Tuple[str, ...]
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("warmup_cycles", "drain_cycles", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)!r}"
                )
        if self.measure_cycles < 1:
            raise ValueError(
                f"measure_cycles must be >= 1, got {self.measure_cycles!r}"
            )

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        return cls(
            warmup_cycles=500,
            measure_cycles=2500,
            drain_cycles=8000,
            uniform_rates=(0.05, 0.15, 0.25, 0.35),
            nuca_rates=(0.05, 0.15, 0.30),
            trace_cycles=30000,
            workloads=("tpcw", "sjbb", "apache", "zeus", "art", "multimedia"),
        )

    @classmethod
    def full(cls) -> "ExperimentSettings":
        return cls(
            warmup_cycles=2000,
            measure_cycles=10000,
            drain_cycles=30000,
            uniform_rates=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45),
            nuca_rates=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
            trace_cycles=100000,
            workloads=("tpcw", "sjbb", "apache", "zeus", "art", "multimedia"),
        )

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        scale = os.environ.get("REPRO_SCALE", "quick").lower()
        if scale == "full":
            return cls.full()
        if scale == "quick":
            return cls.quick()
        raise ValueError(f"REPRO_SCALE must be 'quick' or 'full', got {scale!r}")
