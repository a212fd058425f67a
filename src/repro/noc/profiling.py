"""Hot-loop profiling: cycles/sec, active-router ratio, phase wall time.

The active-set scheduler makes "how many routers did we actually step"
a first-class performance signal: at the low injection rates that
dominate the paper's sweeps most routers are quiescent most cycles, and
the simulator's speed hinges on skipping them.  A
:class:`NetworkProfiler` attached to a network
(``network.profiler = NetworkProfiler()``; for one run
``Simulator(..., profile=True)``) records, per cycle,

* wall time spent in each of the three ``Network.step`` phases
  (event delivery, injection, router pipelines) — four clock reads,
  plus one for an attached sanitizer and two for attached telemetry,
* how many routers were stepped vs. the router population.

Every clock read in ``Network.step`` sits behind the profiler's
``is not None`` guard, so an unattached network reads no clock.
Snapshots are immutable and ride along on
:class:`~repro.noc.simulator.SimulationResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict


@dataclass(frozen=True)
class ProfileSnapshot:
    """Immutable summary of a profiled stretch of simulation."""

    #: Network cycles stepped while the profiler was attached.
    cycles: int
    #: Wall time spent inside ``Network.step`` (sum of the phases).
    wall_s: float
    #: Simulated cycles per second of host wall time.
    cycles_per_second: float
    #: Router step() invocations actually performed.
    routers_stepped: int
    #: Router step() invocations a full iteration would have performed
    #: (router population x cycles).
    router_cycles: int
    #: routers_stepped / router_cycles — the fraction of the network
    #: doing work; low values are where active-set scheduling pays.
    active_router_ratio: float
    #: Wall seconds by phase: ``deliver`` (arrivals/credits/ejections),
    #: ``inject`` (source queues), ``route`` (router pipelines), and —
    #: only when the corresponding subsystem was attached — ``sanitize``
    #: (invariant audits), ``telemetry`` (windowed metric sampling and
    #: trace capture, minus the attribution slice), and ``attribution``
    #: (stall-rollup scans inside the telemetry hook, reported
    #: separately so the phases stay a partition of ``wall_s``).
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    #: CPU seconds the telemetry ``finish()`` flush took (one-time
    #: teardown: lifecycle reconstruction + trace/report
    #: serialization).  Outside ``wall_s`` — it happens after the
    #: stepped cycles — but surfaced here so hot-path vs. flush cost
    #: reads off a single report.
    telemetry_finish_cpu_s: float = 0.0

    def format(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"cycles simulated  : {self.cycles}",
            f"step wall time    : {self.wall_s:.3f} s",
            f"cycles/second     : {self.cycles_per_second:,.0f}",
            f"active ratio      : {self.active_router_ratio:.1%} "
            f"({self.routers_stepped}/{self.router_cycles} router-steps)",
        ]
        for phase, wall in self.phase_wall_s.items():
            lines.append(f"  phase {phase:<11}: {wall:.3f} s")
        if self.telemetry_finish_cpu_s:
            lines.append(
                f"  telemetry flush  : {self.telemetry_finish_cpu_s:.3f} s "
                "CPU (one-time, at finish)"
            )
        return "\n".join(lines)


class NetworkProfiler:
    """Accumulates per-cycle counters fed by ``Network.step``.

    Attach before running; detach (``network.profiler = None``) to stop
    paying the ~3 clock reads per cycle.  ``clock`` is injectable for
    deterministic tests.
    """

    __slots__ = (
        "clock",
        "cycles",
        "routers_stepped",
        "router_cycles",
        "deliver_wall_s",
        "inject_wall_s",
        "router_wall_s",
        "sanitize_wall_s",
        "telemetry_wall_s",
        "attribution_wall_s",
        "telemetry_finish_cpu_s",
    )

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.cycles = 0
        self.routers_stepped = 0
        self.router_cycles = 0
        self.deliver_wall_s = 0.0
        self.inject_wall_s = 0.0
        self.router_wall_s = 0.0
        self.sanitize_wall_s = 0.0
        self.telemetry_wall_s = 0.0
        # Stall-attribution rollup time: accumulated by the telemetry
        # sampler itself (it is a sub-slice of the telemetry hook), not
        # by record_cycle.
        self.attribution_wall_s = 0.0
        # One-time telemetry finish() flush cost; set by
        # NetworkTelemetry.finish, outside the stepped cycles.
        self.telemetry_finish_cpu_s = 0.0

    def record_cycle(
        self,
        deliver_s: float,
        inject_s: float,
        router_s: float,
        stepped: int,
        population: int,
        sanitize_s: float = 0.0,
        telemetry_s: float = 0.0,
    ) -> None:
        """One ``Network.step`` worth of measurements."""
        self.cycles += 1
        self.deliver_wall_s += deliver_s
        self.inject_wall_s += inject_s
        self.router_wall_s += router_s
        self.sanitize_wall_s += sanitize_s
        self.telemetry_wall_s += telemetry_s
        self.routers_stepped += stepped
        self.router_cycles += population

    @property
    def wall_s(self) -> float:
        return (
            self.deliver_wall_s
            + self.inject_wall_s
            + self.router_wall_s
            + self.sanitize_wall_s
            + self.telemetry_wall_s
        )

    def snapshot(self) -> ProfileSnapshot:
        wall = self.wall_s
        phases = {
            "deliver": self.deliver_wall_s,
            "inject": self.inject_wall_s,
            "route": self.router_wall_s,
        }
        # Keys present only when the subsystem actually ran, so bare
        # snapshots keep their exact three-phase shape.
        if self.sanitize_wall_s:
            phases["sanitize"] = self.sanitize_wall_s
        if self.telemetry_wall_s:
            # The attribution rollup runs inside the telemetry hook;
            # report it as its own phase and subtract it from the
            # telemetry line so the phases remain a partition.
            phases["telemetry"] = (
                self.telemetry_wall_s - self.attribution_wall_s
            )
        if self.attribution_wall_s:
            phases["attribution"] = self.attribution_wall_s
        return ProfileSnapshot(
            cycles=self.cycles,
            wall_s=wall,
            cycles_per_second=self.cycles / wall if wall > 0.0 else 0.0,
            routers_stepped=self.routers_stepped,
            router_cycles=self.router_cycles,
            active_router_ratio=(
                self.routers_stepped / self.router_cycles
                if self.router_cycles
                else 0.0
            ),
            phase_wall_s=phases,
            telemetry_finish_cpu_s=self.telemetry_finish_cpu_s,
        )
