#!/usr/bin/env python3
"""The MIRA simulator's benchmark: four workloads, end-to-end and per-layer metrics.

Each workload is a list of generated ``PointSpec``\\ s run through the
simulator's public entry points (``run_point_spec`` and ``run_sweep``).
The seed is its only input; every cycle budget is pinned here and never
read from ``REPRO_SCALE``.  Metric names, units, directions and
regression bounds live in ``BENCHMARK.json`` at the repository root, and
``README.md`` beside this file says why each workload and metric exists.

    python3 benchmarks/bench/bench.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out REPORTS.jsonl]
    python3 benchmarks/bench/bench.py --compare A.jsonl B.jsonl
    python3 benchmarks/bench/bench.py --refresh-expected

Without ``--workload`` every workload runs in its own fresh child
interpreter, one after another.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics, or with ``--trace`` the per-layer metrics, which
come from a separate run that times calls into each layer from outside.
``--out`` appends the full report of each run (host context, digests,
raw samples, failures) as one JSON line; ``--compare`` checks two such
files against the bounds in ``BENCHMARK.json``.

End-to-end timings are normalised to a nominal host speed.  Every timed
unit (a rep, a sweep point, a set-up interpreter) is bracketed by two
measurements of a fixed pure-Python reference loop on the same CPU, and
its time is scaled by nominal / measured reference speed.  On shared
hosts whose speed drifts by tens of percent over tens of seconds this
cuts the run-to-run spread several-fold; README.md has the numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"
#: Scratch space for sweep caches and child timings; emptied after each run.
WORK = HERE / ".work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: The seed whose digests ``expected.json`` commits.
DEFAULT_SEED = 1
#: Fewest timed reps of a single-point workload, however short --seconds is.
MIN_REPS = 3
#: Fewest cold+warm passes of a sweep workload.
MIN_PASSES = 1
#: Fewest untraced/traced rep pairs of a traced run.
MIN_TRACED_PAIRS = 2
#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 5
#: (warm-up, measure) cycles of the untimed warm-up rep, which runs under
#: the invariant sanitizer, so every seed gets an engine self-check.
WARMUP_REP = (50, 150)
DRAIN_CYCLES = 8000
#: Simulated cycles per host-time window in the traced run.
WINDOW_CYCLES = 100
#: Reference loop: iterations per slice, slices per measurement (the
#: fastest counts), and the nominal speed normalised timings are quoted
#: at, close to an unloaded host of the reference kind (2-vCPU Xeon VM).
REFERENCE_ITERATIONS = 100_000
REFERENCE_SLICES = 3
REFERENCE_OPS_PER_S = 20e6


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: a grid of points and their cycle budgets."""

    archs: Tuple[str, ...]
    kind: str
    rates: Tuple[float, ...]
    warmup: int
    measure: int
    short_flit_fraction: float = 0.0
    shutdown: bool = False
    #: Worker processes of a sweep workload; 0 times one point in-process.
    processes: int = 0
    #: Index of the spec the in-process layer probes and warm-up run on.
    probe: int = 0

    def specs(self, seed: int) -> list:
        from repro.core.arch import Architecture
        from repro.experiments.sweep import specs_for_grid

        return specs_for_grid(
            [Architecture(arch) for arch in self.archs],
            self.rates,
            kind=self.kind,
            short_flit_fraction=self.short_flit_fraction,
            shutdown_enabled=self.shutdown,
            seed=seed,
        )

    def settings(self, seed: int, cycles: Optional[Tuple[int, int]] = None):
        from repro.experiments.config import ExperimentSettings

        warmup, measure = cycles or (self.warmup, self.measure)
        return ExperimentSettings(
            warmup_cycles=warmup,
            measure_cycles=measure,
            drain_cycles=DRAIN_CYCLES,
            uniform_rates=self.rates if self.kind == "uniform" else (),
            nuca_rates=self.rates if self.kind == "nuca" else (),
            trace_cycles=0,
            workloads=(),
            seed=seed,
        )


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "mira3dm_ur_mid": Workload(
        archs=("3DM",), kind="uniform", rates=(0.15,),
        warmup=500, measure=4000, short_flit_fraction=0.5, shutdown=True,
    ),
    # Reps near one second: the reference measurements around a rep stop
    # tracking host drift well across longer ones.  At 0.40 the drain
    # length, hence the work per rep, varies with the seed; 0.35 keeps
    # 96% of routers busy with a near-constant drain.
    "mesh2db_ur_sat": Workload(
        archs=("2DB",), kind="uniform", rates=(0.35,),
        warmup=500, measure=1000,
    ),
    "chiplet_nuca_low": Workload(
        archs=("CHIPLET",), kind="nuca", rates=(0.05,),
        warmup=1000, measure=10000, short_flit_fraction=0.5, shutdown=True,
    ),
    "fig11a_sweep": Workload(
        archs=("2DB", "3DB", "3DM(NC)", "3DM", "3DM-E(NC)", "3DM-E"),
        kind="uniform", rates=(0.05, 0.15, 0.25, 0.35),
        warmup=500, measure=2500, processes=2,
        probe=14,  # 3DM uniform@0.25
    ),
}


def benchmark_definition() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def point_digest(point) -> str:
    """sha256 of the point's full serialised result (stats, events, power)."""
    from repro.experiments.store import canonical_json, point_result_to_json

    text = canonical_json(point_result_to_json(point))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reference_seconds() -> float:
    """CPU seconds of the fastest slice of a fixed pure-Python loop, the
    shape of ``engine_bench.calibrate`` (list indexing, deque churn,
    integer arithmetic) cut to slices short enough to bracket every rep."""
    best = float("inf")
    for _ in range(REFERENCE_SLICES):
        fifo = deque(range(64))
        table = list(range(256))
        acc = 0
        start = time.process_time()
        for i in range(REFERENCE_ITERATIONS):
            j = i & 255
            acc += table[j]
            if not j:
                fifo.append(fifo.popleft())
        best = min(best, time.process_time() - start)
    return best


def host_scale(before: float, after: float) -> float:
    """Factor taking a timing made between two reference measurements to
    the nominal host speed (below 1 when the host ran slow)."""
    return REFERENCE_ITERATIONS / REFERENCE_OPS_PER_S / ((before + after) / 2)


def _repeat(fn: Callable[[], None], seconds: float, minimum: int) -> int:
    """Call *fn* at least *minimum* times, then again while the next call
    is predicted (from the last one) to end within *seconds* of the start."""
    start = time.monotonic()
    last = 0.0
    calls = 0
    while calls < minimum or time.monotonic() + last <= start + seconds:
        began = time.monotonic()
        fn()
        last = time.monotonic() - began
        calls += 1
    return calls


class Checks:
    """Counts operations (reps and sweep points) and records failures.

    A point fails when its digest differs from the reference: the
    committed digest when *expected* is given, else the first digest seen
    for the same label in this run (reps of one seed must agree).  It
    also fails when packets drop with no fault configured, or when the
    sanitizer's deadlock watchdog fired.
    """

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    def point(self, label: str, point) -> None:
        digest = point_digest(point)
        first = self.digests.setdefault(label, digest)
        reference = first if self.expected is None else self.expected.get(label)
        sim = point.sim
        if digest != reference:
            self.fail(f"{label}: digest {digest[:16]} != {str(reference)[:16]}")
        elif sim.packets_dropped or sim.flits_dropped:
            self.fail(f"{label}: {sim.packets_dropped} packets dropped without faults")
        elif sim.sanity is not None and sim.sanity.watchdog_reports:
            self.fail(f"{label}: sanitizer watchdog fired")
        else:
            self.attempted += 1


def _timed_call(fn: Callable, acc: List[float], clock: Callable[[], float]):
    def timed(*args):
        start = clock()
        fn(*args)
        acc[0] += clock() - start
        acc[1] += 1

    return timed


class Probe:
    """Times calls into the layers' public functions while entered.

    Wrappers are installed on ``__enter__`` and removed on ``__exit__``,
    so untraced reps never pay for them.

    * ``layers``: ``ArchitectureConfig.build_network``,
      ``routing_for_topology``, the traffic sources' ``packets_for_cycle``
      and ``on_delivered``, ``Simulator.run`` and power pricing; a
      ``NetworkProfiler`` is attached to every network built.
    * ``routers``: each built router's ``step``, ``receive_flit`` and
      ``receive_credit``.
    * ``store``: ``ResultStore.put``/``get`` and the sweep's ``point_key``.
    * ``sanitize``: a ``NetworkSanitizer`` on every network built.
    """

    def __init__(
        self,
        *,
        layers: bool = False,
        routers: bool = False,
        store: bool = False,
        sanitize: bool = False,
    ) -> None:
        self.layers = layers
        self.routers = routers
        self.store = store
        self.sanitize = sanitize
        #: Seconds per call, by layer entry point.
        self.durations: Dict[str, List[float]] = {
            key: []
            for key in ("build", "routing", "run", "power", "put", "get", "key")
        }
        #: [seconds, calls, packets returned] of packets_for_cycle / on_delivered.
        self.generate = [0.0, 0, 0]
        self.delivered = [0.0, 0, 0]
        #: Host seconds per WINDOW_CYCLES simulated cycles.
        self.windows: List[float] = []
        #: [seconds, calls] per router method.
        self.router_calls = {
            name: [0.0, 0] for name in ("step", "receive_flit", "receive_credit")
        }
        self._stamps: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        own = vars(owner).get(name)  # None when inherited: restore by delattr
        setattr(owner, name, make(getattr(owner, name)))
        self._undo.append((owner, name, own))

    def _timed(self, key: str) -> Callable[[Callable], Callable]:
        log = self.durations[key]
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.append(clock() - start)

            return timed

        return make

    def __enter__(self) -> "Probe":
        from repro.core.arch import ArchitectureConfig
        from repro.experiments import runner, sweep
        from repro.experiments.store import ResultStore
        from repro.noc import network
        from repro.noc.simulator import Simulator
        from repro.traffic.nuca import NucaUniformTraffic
        from repro.traffic.synthetic import UniformRandomTraffic

        if self.layers or self.routers or self.sanitize:
            self._wrap(ArchitectureConfig, "build_network", self._build)
        if self.layers:
            self._wrap(network, "routing_for_topology", self._timed("routing"))
            for source in (UniformRandomTraffic, NucaUniformTraffic):
                self._wrap(source, "packets_for_cycle", self._generate)
                self._wrap(source, "on_delivered", self._on_delivered)
            self._wrap(Simulator, "run", self._run)
            self._wrap(runner, "power_report", self._timed("power"))
            self._wrap(runner, "layer_power_report", self._timed("power"))
        if self.store:
            self._wrap(ResultStore, "put", self._timed("put"))
            self._wrap(ResultStore, "get", self._timed("get"))
            self._wrap(sweep, "point_key", self._timed("key"))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    def _build(self, fn: Callable) -> Callable:
        from repro.noc.profiling import NetworkProfiler
        from repro.noc.sanitizer import NetworkSanitizer

        timed = self._timed("build")(fn)
        clock = time.perf_counter

        def build_network(config, *args, **kwargs):
            network = timed(config, *args, **kwargs)
            if self.layers:
                network.profiler = NetworkProfiler()
            if self.sanitize:
                network.sanitizer = NetworkSanitizer(network)
            if self.routers:
                for router in network.routers:
                    for name, acc in self.router_calls.items():
                        setattr(router, name, _timed_call(getattr(router, name), acc, clock))
            return network

        return build_network

    def _run(self, fn: Callable) -> Callable:
        timed = self._timed("run")(fn)

        def run(simulator):
            self._stamps = []
            result = timed(simulator)
            stamps = self._stamps
            self.windows.extend(b - a for a, b in zip(stamps, stamps[1:]))
            return result

        return run

    def _generate(self, fn: Callable) -> Callable:
        acc = self.generate
        clock = time.perf_counter

        def packets_for_cycle(traffic, cycle):
            start = clock()
            packets = fn(traffic, cycle)
            acc[0] += clock() - start
            acc[1] += 1
            acc[2] += len(packets)
            if cycle % WINDOW_CYCLES == 0:
                self._stamps.append(start)
            return packets

        return packets_for_cycle

    def _on_delivered(self, fn: Callable) -> Callable:
        acc = self.delivered
        clock = time.perf_counter

        def on_delivered(traffic, packet, cycle):
            start = clock()
            packets = fn(traffic, packet, cycle)
            acc[0] += clock() - start
            acc[1] += 1
            acc[2] += len(packets)
            return packets

        return on_delivered


def _rep(label: str, spec, settings, checks: Checks, telemetry=None):
    """One timed ``run_point_spec``: (point, wall_s, cpu_s); point is None
    when it raised, which counts as a failed operation."""
    from repro.experiments.runner import run_point_spec

    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        point = run_point_spec(spec, settings, telemetry=telemetry)
    except Exception as exc:  # a failing rep is reported, not fatal
        checks.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None, 0.0, 0.0
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    checks.point(label, point)
    return point, wall, cpu


def _sweep(specs, settings, processes: int, cache: Path, **kwargs):
    """One ``run_sweep`` call: (outcome, wall_s, parent cpu_s, child cpu_s)."""
    from repro.experiments.sweep import run_sweep

    gc.collect()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall, cpu = time.perf_counter(), time.process_time()
    outcome = run_sweep(
        specs, settings, processes=processes, cache_dir=str(cache), **kwargs
    )
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return outcome, wall, cpu, child


def _check_outcome(checks: Checks, specs, outcome, warm: bool) -> None:
    kind = specs[0].kind
    for failure in outcome.failures:
        checks.fail(failure.describe())
    for arch, series in outcome.series.items():
        for rate, point in series:
            checks.point(f"{arch} {kind}@{rate:g}", point)
    if warm and outcome.stats.executed:
        checks.fail(f"warm replay recomputed {outcome.stats.executed} points")


def _timed_point(outdir: str, run: Callable, spec, settings):
    """Sweep worker: ``run(spec, settings)`` bracketed by reference
    measurements, writing the child-side timings next to the result."""
    from repro.experiments.store import point_key

    began = time.monotonic()
    before = reference_seconds()
    start, cpu = time.monotonic(), time.process_time()
    point = run(spec, settings)
    end, cpu = time.monotonic(), time.process_time() - cpu
    scale = host_scale(before, reference_seconds())
    record = {
        "start": start,
        "end": end,
        "cpu_s": cpu,
        "scale": scale,
        "reference_s": (time.monotonic() - began) - (end - start),
    }
    Path(outdir, point_key(spec, settings) + ".json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    return point


def _point_records(outdir: Path) -> List[Dict[str, float]]:
    return [json.loads(path.read_text()) for path in outdir.glob("*.json")]


# ---------------------------------------------------------------------------
# Set-up: fresh interpreters
# ---------------------------------------------------------------------------


class _Built(Exception):
    """Raised in place of ``Simulator.run`` once the set-up is complete."""


def _setup_child(name: str, seed: int) -> None:
    """Child interpreter: build the workload's first run and print when it
    was ready, bracketed by reference measurements in this process (the
    parent may sit on another CPU)."""
    began = time.monotonic()
    before = reference_seconds()
    reference_s = time.monotonic() - began
    start = time.perf_counter()
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import ResultStore, point_key
    from repro.experiments.sweep import run_sweep  # noqa: F401 - set-up cost
    from repro.noc.simulator import Simulator

    import_ms = (time.perf_counter() - start) * 1e3
    workload = WORKLOADS[name]
    specs, settings = workload.specs(seed), workload.settings(seed)
    store_dir = WORK / f"setup-{os.getpid()}"
    try:
        if workload.processes:
            for spec in specs:
                point_key(spec, settings)
            ResultStore(store_dir)
        else:
            def stop(simulator):
                raise _Built

            Simulator.run = stop
            try:
                run_point_spec(specs[0], settings)
            except _Built:
                pass
        ready = time.monotonic()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    print(json.dumps({
        "ready": ready,
        "reference_s": reference_s,
        "scale": host_scale(before, reference_seconds()),
        "import_ms": import_ms,
    }))


def _setup_samples(name: str, seed: int, runs: int) -> List[Dict[str, float]]:
    """Per fresh interpreter: seconds from process start to built (less
    the child's first reference measurement), its host scale, and the
    child's import time."""
    samples = []
    for _ in range(runs):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({
            "setup_s": child["ready"] - start - child["reference_s"],
            "scale": child["scale"],
            "import_ms": child["import_ms"],
        })
    return samples


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------


def _single_point(spec, settings, seconds, checks) -> List[Dict[str, float]]:
    """Untraced reps of one point, in-process: one raw sample per rep."""
    label = spec.describe()
    samples: List[Dict[str, float]] = []

    def rep() -> None:
        before = reference_seconds()
        point, wall, cpu = _rep(label, spec, settings, checks)
        scale = host_scale(before, reference_seconds())
        if point is not None:
            samples.append({
                "wall_s": wall, "cpu_s": cpu, "sim_cpu_s": cpu, "scale": scale,
                "cycles": point.sim.cycles,
                "flit_hops": point.sim.events.flit_hops,
            })

    _repeat(rep, seconds, MIN_REPS)
    return samples


def _sweep_passes(workload, specs, settings, seconds, checks, work, run):
    """Untraced cold sweeps into a fresh cache, each followed by a warm
    replay: one raw sample per cold sweep.  Its scale is the per-point
    scales weighted by the points' CPU time."""
    samples: List[Dict[str, float]] = []

    def one_pass() -> None:
        cache, timings = work / "cache", work / "timings"
        for path in (cache, timings):
            shutil.rmtree(path, ignore_errors=True)
        timings.mkdir(parents=True)
        worker = functools.partial(_timed_point, str(timings), run)
        cold, wall, cpu, child = _sweep(
            specs, settings, workload.processes, cache, worker_fn=worker
        )
        _check_outcome(checks, specs, cold, warm=False)
        warm = _sweep(specs, settings, workload.processes, cache, worker_fn=worker)[0]
        _check_outcome(checks, specs, warm, warm=True)
        records = _point_records(timings)
        points = [point for series in cold.series.values() for _, point in series]
        sim_cpu = sum(r["cpu_s"] for r in records)
        samples.append({
            "wall_s": wall, "cpu_s": cpu + child, "sim_cpu_s": sim_cpu,
            "scale": _ratio(sum(r["cpu_s"] * r["scale"] for r in records), sim_cpu),
            "cycles": sum(p.sim.cycles for p in points),
            "flit_hops": sum(p.sim.events.flit_hops for p in points),
        })

    _repeat(one_pass, seconds, MIN_PASSES)
    return samples


def _end_to_end(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Timing metrics from the run's raw samples, each scaled to the
    nominal host speed; medians over the samples.  Simulated work is the
    same in every sample of a run."""
    def typical(key: str) -> float:
        return _median([s[key] * s["scale"] for s in samples])

    sim_cpu = typical("sim_cpu_s") if samples else 0.0
    return {
        "sim_cycles_per_s": _ratio(samples[0]["cycles"], sim_cpu) if samples else 0.0,
        "flit_hops_per_s": _ratio(samples[0]["flit_hops"], sim_cpu) if samples else 0.0,
        "wall_s": typical("wall_s"),
        "cpu_s": typical("cpu_s"),
    }


def _traced_sweep(specs, settings, processes, checks, work) -> Dict[str, float]:
    """Store and sweep layer metrics: one cold sweep with the timing worker
    and a warm replay, with the store's calls timed in this process."""
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import RunJournal

    cache, timings = work / "traced-cache", work / "traced-timings"
    progress = work / "progress.jsonl"
    shutil.rmtree(cache, ignore_errors=True)
    timings.mkdir(parents=True, exist_ok=True)
    probe = Probe(store=True)
    with probe:
        started = time.monotonic()
        cold, cold_wall, _, _ = _sweep(
            specs, settings, processes, cache,
            worker_fn=functools.partial(_timed_point, str(timings), run_point_spec),
            progress_jsonl=str(progress), progress_stream=io.StringIO(),
        )
        _check_outcome(checks, specs, cold, warm=False)
        warm, warm_wall, _, _ = _sweep(specs, settings, processes, cache)
        _check_outcome(checks, specs, warm, warm=True)
    # Done-times as the parent saw them; launches are FIFO, so the first
    # `slots` points start at `started` and every later one at an earlier
    # completion.  Per-point overhead = done - launch - child busy time,
    # where the worker's reference measurements count as neither.
    done = sorted(
        started + record["elapsed_s"]
        for record in RunJournal.load(progress)
        if record.get("status") == "done"
    )
    records = _point_records(timings)
    busy = [record["end"] - record["start"] for record in records]
    occupied = sum(busy) + sum(record["reference_s"] for record in records)
    slots = min(processes, len(done))
    files = list(cache.glob("*/*.json"))
    n = len(specs)
    return {
        "experiments.store.put_ms": _median(probe.durations["put"]) * 1e3,
        "experiments.store.get_ms": _median(probe.durations["get"]) * 1e3,
        "experiments.store.point_key_ms": _median(probe.durations["key"]) * 1e3,
        "experiments.store.bytes_per_point": _ratio(
            sum(path.stat().st_size for path in files), len(files)
        ),
        "experiments.sweep.worker_busy_share": _ratio(
            sum(busy), processes * cold_wall - (occupied - sum(busy))
        ),
        "experiments.sweep.dispatch_ms_per_point": _ratio(
            sum(done[-slots:]) - slots * started - occupied, n
        ) * 1e3 if done else 0.0,
        "experiments.sweep.tail_s": (
            done[-1] - (done[-2] if len(done) > 1 else started) if done else 0.0
        ),
        "experiments.sweep.warm_ms_per_point": warm_wall / n * 1e3,
    }


def _traced(workload, specs, settings, seconds, checks, work):
    """Per-layer metrics: (untraced/traced rep pairs, metrics)."""
    from repro.noc.router import STALL_CAUSE_NAMES
    from repro.noc.stats import nearest_rank_percentile
    from repro.telemetry.sampler import TelemetryConfig

    spec = specs[workload.probe]
    label = spec.describe()
    probe = Probe(layers=True)
    plain_cpu: List[float] = []
    traced_cpu: List[float] = []
    traced_wall: List[float] = []
    traced_points: list = []

    def pair() -> None:
        # Alternate which side runs first, so drift cancels out.
        for traced in (False, True) if len(plain_cpu) % 2 == 0 else (True, False):
            if traced:
                with probe:
                    point, wall, cpu = _rep(label, spec, settings, checks)
                if point is not None:
                    traced_points.append(point)
                    traced_wall.append(wall)
                    traced_cpu.append(cpu)
            else:
                point, _, cpu = _rep(label, spec, settings, checks)
                if point is not None:
                    plain_cpu.append(cpu)

    pairs = _repeat(pair, seconds, MIN_TRACED_PAIRS)
    routers = Probe(routers=True)
    with routers:
        _rep(label, spec, settings, checks)
    # Stall attribution changes nothing but adds cost; its timing is discarded.
    stalled, _, _ = _rep(
        label, spec, settings, checks, telemetry=TelemetryConfig(attribution=True)
    )
    causes = stalled.sim.telemetry.stall_report["causes"] if stalled else {}

    runs = len(probe.durations["run"])
    profiles = [point.sim.profile for point in traced_points]
    windows = sorted(probe.windows)
    sim = traced_points[0].sim if traced_points else None
    events = sim.events if sim else None
    metrics = {
        "core.build_network_ms": _median(probe.durations["build"]) * 1e3,
        "noc.routing.build_ms": _median(probe.durations["routing"]) * 1e3,
        "traffic.gen_us_per_cycle": _ratio(probe.generate[0], probe.generate[1]) * 1e6,
        "traffic.on_delivered_us_per_packet": (
            _ratio(probe.delivered[0], probe.delivered[1]) * 1e6
        ),
        "traffic.packets_generated": _ratio(
            probe.generate[2] + probe.delivered[2], runs
        ),
        "noc.simulator.outside_step_share": _median([
            1.0 - profile.wall_s / run
            for profile, run in zip(profiles, probe.durations["run"])
        ]),
        "noc.simulator.window_ms_p50": nearest_rank_percentile(windows, 50) * 1e3,
        "noc.simulator.window_ms_p90": nearest_rank_percentile(windows, 90) * 1e3,
        "noc.simulator.window_samples": len(windows),
        "noc.network.active_router_ratio": (
            profiles[0].active_router_ratio if profiles else 0.0
        ),
        "noc.stats.flit_hops": events.flit_hops if events else 0,
        "noc.stats.rc_computations": events.rc_computations if events else 0,
        "noc.stats.va_allocations": events.va_allocations if events else 0,
        "noc.stats.sa_allocations": events.sa_allocations if events else 0,
        "noc.stats.avg_latency_cyc": sim.avg_latency if sim else 0.0,
        "noc.stats.p99_latency_cyc": sim.latency_p99 if sim else 0.0,
        "noc.stats.accepted_throughput": sim.accepted_throughput if sim else 0.0,
        "power.price_ms_per_point": _ratio(sum(probe.durations["power"]), runs) * 1e3,
        "experiments.runner.overhead_ms_per_point": _median([
            wall - run for wall, run in zip(traced_wall, probe.durations["run"])
        ]) * 1e3,
        "trace_overhead": _ratio(_median(traced_cpu), _median(plain_cpu)),
    }
    for phase in ("deliver", "inject", "route"):
        metrics[f"noc.network.{phase}_us_per_cycle"] = _median([
            _ratio(profile.phase_wall_s[phase], profile.cycles) for profile in profiles
        ]) * 1e6
    for name, (seconds_in, calls) in routers.router_calls.items():
        metrics[f"noc.router.{name}_us_per_call"] = _ratio(seconds_in, calls) * 1e6
    for cause in STALL_CAUSE_NAMES:
        metrics[f"noc.router.stall.{cause}"] = causes.get(cause, 0)
    metrics.update(_traced_sweep(
        specs, settings, workload.processes or 1, checks, work
    ))
    return pairs, metrics


def _committed_expected(name: str, seed: int, cycles) -> Optional[Dict[str, str]]:
    if cycles is not None or not EXPECTED_JSON.is_file():
        return None
    committed = json.loads(EXPECTED_JSON.read_text(encoding="utf-8"))
    if seed != committed["seed"]:
        return None
    return committed["workloads"].get(name, {})


def _warm_up_label(spec) -> str:
    return f"warm-up {spec.describe()}"


def host_context(seed: int, reps: int, scales: List[float]) -> Dict[str, Any]:
    """Where a run was measured.  ``calibration_ops_per_s`` is the median
    reference-loop speed over the run's measurements, in the units of
    ``engine_bench.calibrate``."""
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_ops_per_s": _median(scales) * REFERENCE_OPS_PER_S,
        "k": reps,
        "seed": seed,
    }


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: Optional[float] = None,
    trace: bool = False,
    *,
    cycles: Optional[Tuple[int, int]] = None,
    expected: Optional[Dict[str, str]] = None,
    worker_fn: Optional[Callable] = None,
    setup_runs: int = SETUP_RUNS,
) -> Dict[str, Any]:
    """Run one workload and return its full report.

    ``cycles`` overrides the pinned (warm-up, measure) budgets, and
    ``worker_fn`` replaces ``run_point_spec`` in the untraced sweep's
    workers; both exist for the benchmark's own tests.  ``expected`` maps
    point labels to digests; by default the committed digests apply at
    the default seed and budgets, and elsewhere reps of one point must
    agree.
    """
    from repro.experiments.runner import run_point_spec

    workload = WORKLOADS[name]
    definition = benchmark_definition()
    if seconds is None:
        seconds = definition["run_seconds"]
    if expected is None:
        expected = _committed_expected(name, seed, cycles)
    checks = Checks(expected)
    specs, settings = workload.specs(seed), workload.settings(seed, cycles)
    work = WORK / f"run-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = _setup_samples(name, seed, setup_runs)
        probe_spec = specs[workload.probe]
        with Probe(sanitize=True):
            _rep(
                _warm_up_label(probe_spec), probe_spec,
                workload.settings(seed, WARMUP_REP), checks,
            )
        samples: List[Dict[str, float]] = []
        if trace:
            reps, metrics = _traced(workload, specs, settings, seconds, checks, work)
            metrics["repro.import_ms"] = _median([s["import_ms"] for s in setups])
            kinds = definition["per_layer"]
        else:
            if workload.processes:
                samples = _sweep_passes(
                    workload, specs, settings, seconds, checks, work,
                    worker_fn or run_point_spec,
                )
            else:
                samples = _single_point(
                    specs[0], settings, seconds, checks
                )
            reps = len(samples)
            metrics = _end_to_end(samples)
            metrics["setup_s"] = _median([s["setup_s"] * s["scale"] for s in setups])
            metrics["peak_rss_mb"] = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ) / 1024.0
            kinds = definition["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            kind["name"]: {"value": metrics[kind["name"]], "unit": kind["unit"]}
            for kind in kinds
        },
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "seconds": seconds,
        "host": host_context(
            seed, reps, [s["scale"] for s in setups + samples if s["scale"]]
        ),
        "samples": samples,
        "setup_samples": setups,
        "error_rate": _ratio(result["failed"], result["attempted"]),
        "digests": checks.digests,
        "failures": checks.failures,
        "result": result,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_report(report: Dict[str, Any]) -> None:
    result = report["result"]
    print(
        f"{report['workload']}: seed {report['seed']}, "
        f"{'traced' if report['trace'] else 'untraced'}, "
        f"K={report['host']['k']}, {result['attempted']} operations, "
        f"{result['failed']} failed (error_rate {report['error_rate']:g})"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    for label, digest in sorted(report["digests"].items()):
        print(f"digest {label}: {digest}")
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")


def _load_reports(path: str) -> Dict[str, List[Dict[str, Any]]]:
    reports: Dict[str, List[Dict[str, Any]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            report = json.loads(line)
            if not report["trace"]:
                reports.setdefault(report["workload"], []).append(report)
    return reports


def _spread(values: List[float]) -> float:
    """Relative inter-quartile range: (Q3 - Q1) / median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, statistics.median(values))


def compare(a_path: str, b_path: str) -> int:
    """Exit status 0 when every report of one seed carries the same
    digests, no operation failed, and every end-to-end median of B is
    within its BENCHMARK.json bound of A's, workload by workload."""
    metrics = benchmark_definition()["end_to_end"]
    a, b = _load_reports(a_path), _load_reports(b_path)
    ok = True
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: missing from {a_path if name not in a else b_path}")
            ok = False
            continue
        runs = a[name] + b[name]
        by_seed: Dict[int, set] = {}
        for run in runs:
            by_seed.setdefault(run["seed"], set()).add(
                json.dumps(run["digests"], sort_keys=True)
            )
        differ = sorted(seed for seed, digests in by_seed.items() if len(digests) > 1)
        shared = {run["seed"] for run in a[name]} & {run["seed"] for run in b[name]}
        failed = sum(run["result"]["failed"] for run in runs)
        print(f"{name}: {len(a[name])} vs {len(b[name])} runs, "
              f"{len(shared)} seeds in both, "
              f"{f'DIGESTS DIFFER at seeds {differ}' if differ else 'digests agree per seed'}, "
              f"{failed} failed operations")
        ok = ok and not differ and not failed
        for metric in metrics:
            key = metric["name"]
            va = [run["result"]["metrics"][key]["value"] for run in a[name]]
            vb = [run["result"]["metrics"][key]["value"] for run in b[name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = _ratio(mb - ma if metric["better"] == "lower" else ma - mb, ma)
            within = worse <= metric["bound"]
            ok = ok and within
            print(f"  {key:<18} A {ma:>14.6g} (spread {_spread(va):6.2%})  "
                  f"B {mb:>14.6g} (spread {_spread(vb):6.2%})  "
                  f"worse by {worse:+7.2%} / bound {metric['bound']:.0%}"
                  f"{'' if within else '  OUT OF BOUND'}")
    print("compare: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def refresh_expected() -> None:
    """Recompute expected.json at the default seed and pinned budgets."""
    from repro.experiments.runner import run_point_spec

    workloads = {}
    for name, workload in WORKLOADS.items():
        specs = workload.specs(DEFAULT_SEED)
        settings = workload.settings(DEFAULT_SEED)
        digests = {
            spec.describe(): point_digest(run_point_spec(spec, settings))
            for spec in specs
        }
        probe_spec = specs[workload.probe]
        digests[_warm_up_label(probe_spec)] = point_digest(run_point_spec(
            probe_spec, workload.settings(DEFAULT_SEED, WARMUP_REP)
        ))
        workloads[name] = digests
        print(f"{name}: {len(digests)} digests")
    EXPECTED_JSON.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": workloads}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


def _run_all(args) -> int:
    """Every workload in its own fresh child interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", help="append each run's full report to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--refresh-expected", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"bench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Keep every temporary file inside the checkout.
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)

    if args.compare:
        return compare(*args.compare)
    if args.refresh_expected:
        refresh_expected()
        return 0
    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0
    if args.seconds is None:
        args.seconds = benchmark_definition()["run_seconds"]
    if args.workload is None:
        return _run_all(args)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report, sort_keys=True) + "\n")
    _print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
