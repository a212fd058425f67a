"""Transient thermal simulation (HotSpot's time-domain mode).

Backward-Euler integration of the compact thermal network::

    C dT/dt = -G (T - boundary) + P(t)

with per-cell silicon heat capacity.  The system matrix is factorised
once (the time step is fixed), so stepping through a long power trace is
cheap.  Power traces come from the NoC simulator's activity sampling
(:class:`repro.noc.simulator.Simulator` with ``sample_interval``).

The activity windows count switched flits per router but not how many
datapath layers each switched, so a transient trace prices every flit
with all layers on.  Layer shutdown is priced only by the steady-state
path (:func:`repro.thermal.hotspot.temperature_drop` over the simulated
per-node-per-layer router power maps); transient thermal under shutdown
waits until the activity windows carry the per-layer histogram.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from repro.core.arch import ArchitectureConfig
from repro.noc.simulator import SimulationResult
from repro.power import technology as tech
from repro.power.orion import RouterEnergyModel
from repro.thermal.floorplan import Floorplan, floorplan_for
from repro.thermal.solver import ThermalGrid

#: Volumetric heat capacity of silicon, J / (m^3 K).
SILICON_HEAT_CAPACITY = 1.63e6


class TransientSolver:
    """Time-steps a :class:`~repro.thermal.solver.ThermalGrid`."""

    def __init__(self, grid: ThermalGrid, dt_s: float) -> None:
        if dt_s <= 0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        self.grid = grid
        self.dt_s = dt_s
        fp = grid.floorplan
        cell_volume = fp.cell_area_m2 * grid.params.layer_thickness_m
        #: Heat capacity per cell (all cells identical), J/K.
        self.cell_capacity = SILICON_HEAT_CAPACITY * cell_volume
        n = fp.layers * fp.ny * fp.nx
        system = grid._matrix + identity(n) * (self.cell_capacity / dt_s)
        self._lu = splu(system.tocsc())
        g_sink = grid.params.sink_conductance(fp.cell_area_m2)
        self._boundary = np.zeros(n)
        self._boundary[: fp.ny * fp.nx] = g_sink * grid.params.ambient_k

    def step(self, temps: np.ndarray, power_w: np.ndarray) -> np.ndarray:
        """One backward-Euler step from *temps* under *power_w*."""
        fp = self.grid.floorplan
        if power_w.shape != fp.power_w.shape:
            raise ValueError(
                f"power shape {power_w.shape} != floorplan {fp.power_w.shape}"
            )
        rhs = (
            (self.cell_capacity / self.dt_s) * temps.ravel()
            + power_w.ravel()
            + self._boundary
        )
        return self._lu.solve(rhs).reshape(temps.shape)

    def run(
        self,
        power_trace: Sequence[np.ndarray],
        initial: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Temperatures after each window of *power_trace*.

        Starts from *initial* (default: steady state under the first
        window's power, the usual HotSpot warm start).
        """
        if not len(power_trace):
            raise ValueError("power_trace must contain at least one window")
        temps = (
            self.grid.solve(power_trace[0]) if initial is None else initial.copy()
        )
        out: List[np.ndarray] = []
        for power in power_trace:
            temps = self.step(temps, power)
            out.append(temps)
        return out


def power_trace_from_activity(
    config: ArchitectureConfig,
    result: SimulationResult,
    sample_interval: int,
) -> List[np.ndarray]:
    """Convert simulator activity windows into floorplan power maps.

    Each window's per-router switched-flit count is priced at the
    architecture's all-layers-on per-flit-hop energy; leakage and
    CPU/cache tile power are added per Sec. 4.2.3.
    """
    if not result.activity_windows:
        raise ValueError(
            "simulation carries no activity windows; run the Simulator "
            "with sample_interval > 0"
        )
    from repro.power.area import router_area

    model = RouterEnergyModel.for_config(config)
    flit_energy = model.flit_hop_energy_j()
    leak_per_router = router_area(config).total_mm2 * tech.LEAKAGE_W_PER_MM2

    # A trailing partial window (measure_cycles not a multiple of the
    # sample interval) spans fewer cycles; scale its power by the true
    # span so it is not underestimated.  Older results without recorded
    # spans fall back to the nominal interval.
    spans = result.activity_window_cycles or [sample_interval] * len(
        result.activity_windows
    )
    trace: List[np.ndarray] = []
    for window, span in zip(result.activity_windows, spans):
        window_s = span * tech.CYCLE_S
        router_power = [
            flits * flit_energy / window_s + leak_per_router for flits in window
        ]
        trace.append(floorplan_for(config, router_power).power_w)
    return trace


def transient_temperatures(
    config: ArchitectureConfig,
    result: SimulationResult,
    sample_interval: int,
) -> List[float]:
    """Average chip temperature over time for a simulated run.

    Each activity window is integrated over its *actual* span: when
    ``measure_cycles`` is not a multiple of ``sample_interval`` the
    trailing window is shorter, and stepping it with the nominal
    ``sample_interval`` dt would hold its (already span-corrected) power
    for too long and overshoot the final temperature.  Solvers are
    cached per distinct span, so the common case still factorises the
    system matrix once.
    """
    trace = power_trace_from_activity(config, result, sample_interval)
    floorplan: Floorplan = floorplan_for(config)
    grid = ThermalGrid(floorplan)
    spans = result.activity_window_cycles or [sample_interval] * len(trace)
    solvers: dict = {}
    temps = grid.solve(trace[0])  # HotSpot-style steady-state warm start
    out: List[float] = []
    for power, span in zip(trace, spans):
        solver = solvers.get(span)
        if solver is None:
            solver = solvers[span] = TransientSolver(
                grid, dt_s=span * tech.CYCLE_S
            )
        temps = solver.step(temps, power)
        out.append(float(temps.mean()))
    return out
