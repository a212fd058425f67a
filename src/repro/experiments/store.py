"""Content-addressed result store, run journal, and sweep bookkeeping.

Reproducing the paper's sweeps means re-running hundreds of
(architecture x traffic x rate) points; this module makes those runs
cheap to repeat and safe to interrupt:

* :func:`point_key` — a canonical, cross-process-stable hash of the
  *full* point configuration (architecture geometry, traffic kind and
  rate, pipeline options, seed, cycle budgets).  Two processes — or two
  machines — asking for the same point compute the same key; any single
  field changing produces a different key.
* :class:`ResultStore` — an on-disk cache mapping keys to serialised
  :class:`~repro.experiments.runner.PointResult`\\ s.  Writes are atomic
  (tmp + rename) so a killed sweep never leaves a truncated entry;
  corrupt or unreadable entries read as misses, never as errors.
* :class:`RunJournal` — an append-only JSONL log that checkpoints every
  completed point.  Each record is flushed as it happens, so a crashed
  or Ctrl-C'd sweep leaves an exact account of what finished; the sweep
  engine's ``--resume`` replays it against the cache.
* :class:`SweepStats` / :class:`PointFailure` / :class:`SweepOutcome` —
  the structured result of a fault-tolerant sweep: partial results,
  per-point failure reports, and cache/retry counters formatted in the
  same phase style as the hot-loop profiler; :class:`SweepPointError`
  is what ``failure_mode="raise"`` throws for a failed point.

The simulator's determinism (``tests/test_determinism.py``) is what
makes caching *sound*: a cache hit is bit-identical to a re-run, which
``tests/test_sweep_engine.py`` asserts across all six architectures.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.core.arch import Architecture, ArchitectureConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import PointResult, run_point_spec
from repro.noc.simulator import SimulationResult
from repro.noc.stats import EventCounts
from repro.power.energy import LayerPowerReport, PowerReport

#: Bump when the serialised result layout or the key payload changes;
#: part of every key, so stale cache entries can never be misread.
#: v2: layer-resolved event histograms, node_layer_activity, layer_power.
#: v3: fault-injection and process-variation spec fields; drop counters
#: and fault summary in the serialised sim result.
#: v4: substrate-fabric config fields (extra_nodes, topology_file,
#: topology_digest) and the RING/CHIPLET/IRREG architectures.
SCHEMA_VERSION = 4


# ---------------------------------------------------------------------------
# Point specification + canonical keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec:
    """A fully specified, picklable sweep point.

    Carries the resolved :class:`ArchitectureConfig` (not just the enum)
    so ablation variants and custom geometries key distinctly.  Trace
    replays are excluded on purpose: their input is a generated record
    list, not a compact config, so they are not cacheable by key.
    """

    config: ArchitectureConfig
    #: Traffic kind: ``"uniform"`` or ``"nuca"``.
    kind: str
    #: Injection rate (flits/node/cycle) or NUCA request rate.
    rate: float
    short_flit_fraction: float = 0.0
    shutdown_enabled: bool = False
    #: ``None`` means "use ``settings.seed``" (the effective seed is what
    #: gets hashed, so the two spellings key identically).
    seed: Optional[int] = None
    #: Explicit link kills as ``(cycle, src, dst)`` triples.
    fault_links: Tuple[Tuple[int, int, int], ...] = ()
    #: Stuck VCs as ``(cycle, node, port, vc)`` quadruples.
    fault_vcs: Tuple[Tuple[int, int, int, int], ...] = ()
    #: Additionally kill this many seeded-random channels.
    fault_random_links: int = 0
    #: RNG seed for the random link sample.
    fault_seed: int = 0
    #: Cycle the random link kills apply at.
    fault_cycle: int = 0
    #: ``"hard"`` (credit-starving) or ``"drain"`` (routing-level fence).
    fault_mode: str = "hard"
    #: Process-variation sigma (0 = no variation model attached).
    variation_sigma: float = 0.0
    #: Process-variation sample seed.
    variation_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "nuca"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(
                f"rate must be a positive finite number, got {self.rate!r}"
            )
        if not 0.0 <= self.short_flit_fraction <= 1.0:
            raise ValueError(
                "short_flit_fraction must be in [0, 1], got "
                f"{self.short_flit_fraction!r}"
            )
        if self.fault_mode not in ("hard", "drain"):
            raise ValueError(f"unknown fault mode {self.fault_mode!r}")
        if self.fault_random_links < 0:
            raise ValueError("fault_random_links must be >= 0")
        if self.variation_sigma < 0:
            raise ValueError("variation_sigma must be >= 0")
        # No negative seed or cycle: random.Random takes the absolute
        # value of an int seed, so seed -7 would run seed 7's simulation
        # under a key of its own.
        for name in ("seed", "fault_seed", "fault_cycle", "variation_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name, arity, what in (
            ("fault_links", 3, "(cycle, src, dst)"),
            ("fault_vcs", 4, "(cycle, node, port, vc)"),
        ):
            for fault in getattr(self, name):
                if len(fault) != arity or min(fault) < 0:
                    raise ValueError(
                        f"{name} entries must be {what} tuples of "
                        f"non-negative ints, got {fault!r}"
                    )

    @property
    def has_faults(self) -> bool:
        return bool(
            self.fault_links or self.fault_vcs or self.fault_random_links
        )

    @property
    def arch_name(self) -> str:
        return self.config.name

    def effective_seed(self, settings: ExperimentSettings) -> int:
        return settings.seed if self.seed is None else self.seed

    def describe(self) -> str:
        return f"{self.arch_name} {self.kind}@{self.rate:g}"


def _plain(value: Any) -> Any:
    """Reduce *value* to canonical-JSON-ready primitives.

    Enums become their values, dataclasses become sorted dicts, tuples
    become lists, and dict keys become strings — deterministically, with
    no dependence on insertion order or ``PYTHONHASHSEED``.
    """
    if isinstance(value, enum.Enum):
        return _plain(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}: {value!r}")


def canonical_json(payload: Any) -> str:
    """Serialise *payload* to the canonical form the keys hash.

    ``sort_keys`` removes dict-order dependence; tight separators remove
    whitespace dependence; ``allow_nan=False`` keeps the representation
    portable.  Python's ``repr``-based float formatting is exact and
    stable across platforms, so equal floats always produce equal text.
    """
    return json.dumps(
        _plain(payload), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def key_payload(spec: PointSpec, settings: ExperimentSettings) -> Dict[str, Any]:
    """The exact fields a point's identity comprises (pre-hash)."""
    return {
        "schema": SCHEMA_VERSION,
        "config": spec.config,
        "kind": spec.kind,
        "rate": spec.rate,
        "short_flit_fraction": spec.short_flit_fraction,
        "shutdown_enabled": spec.shutdown_enabled,
        "seed": spec.effective_seed(settings),
        "warmup_cycles": settings.warmup_cycles,
        "measure_cycles": settings.measure_cycles,
        "drain_cycles": settings.drain_cycles,
        "fault_links": spec.fault_links,
        "fault_vcs": spec.fault_vcs,
        "fault_random_links": spec.fault_random_links,
        "fault_seed": spec.fault_seed,
        "fault_cycle": spec.fault_cycle,
        "fault_mode": spec.fault_mode,
        "variation_sigma": spec.variation_sigma,
        "variation_seed": spec.variation_seed,
    }


def point_key(spec: PointSpec, settings: ExperimentSettings) -> str:
    """Content-address of one sweep point: sha256 of the canonical payload."""
    text = canonical_json(key_payload(spec, settings))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# PointResult (de)serialisation
# ---------------------------------------------------------------------------


def _events_to_json(events: EventCounts) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(events):
        value = getattr(events, f.name)
        if f.name == "channel_flits":
            # Tuple keys don't survive JSON; store sorted [src, dst, n].
            out[f.name] = [
                [src, dst, n] for (src, dst), n in sorted(value.items())
            ]
        else:
            out[f.name] = value
    return out


def _events_from_json(data: Dict[str, Any]) -> EventCounts:
    events = EventCounts()
    for f in dataclasses.fields(events):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name == "channel_flits":
            value = {(src, dst): n for src, dst, n in value}
        elif f.name.endswith("_by_layers"):
            # JSON stringifies the int active-layer-count keys.
            value = {int(k): v for k, v in value.items()}
        setattr(events, f.name, value)
    return events


def point_result_to_json(point: PointResult) -> Dict[str, Any]:
    """Serialise a PointResult to JSON primitives, losslessly.

    Observability attachments (``profile``/``sanity``/``telemetry``) are
    host-run artefacts, not simulation outputs, and are not cached; a
    deserialised result carries ``None`` for all three.
    """
    sim = point.sim
    return {
        "schema": SCHEMA_VERSION,
        "arch": point.arch,
        "label": point.label,
        "node_activity": list(point.node_activity),
        "sim": {
            "cycles": sim.cycles,
            "avg_latency": sim.avg_latency,
            "avg_hops": sim.avg_hops,
            "packets_measured": sim.packets_measured,
            "packets_delivered": sim.packets_delivered,
            "flits_delivered": sim.flits_delivered,
            "throughput": sim.throughput,
            "accepted_throughput": sim.accepted_throughput,
            "events": _events_to_json(sim.events),
            "window_cycles": sim.window_cycles,
            "saturated": sim.saturated,
            "avg_latency_by_class": dict(sim.avg_latency_by_class),
            "activity_windows": [list(w) for w in sim.activity_windows],
            "activity_window_cycles": list(sim.activity_window_cycles),
            "latency_p50": sim.latency_p50,
            "latency_p95": sim.latency_p95,
            "latency_p99": sim.latency_p99,
            "packets_dropped": sim.packets_dropped,
            "flits_dropped": sim.flits_dropped,
            "fault_summary": sim.fault_summary,
        },
        "power": {
            "name": point.power.name,
            "dynamic_w": point.power.dynamic_w,
            "leakage_w": point.power.leakage_w,
            "breakdown_w": dict(point.power.breakdown_w),
        },
        "node_layer_activity": [
            list(shares) for shares in point.node_layer_activity
        ],
        "layer_power": {
            "name": point.layer_power.name,
            "layer_dynamic_w": list(point.layer_power.layer_dynamic_w),
            "leakage_w": point.layer_power.leakage_w,
            "all_layers_on_dynamic_w": (
                point.layer_power.all_layers_on_dynamic_w
            ),
            "breakdown_w": dict(point.layer_power.breakdown_w),
        },
    }


def point_result_from_json(data: Dict[str, Any]) -> PointResult:
    """Rebuild a PointResult from :func:`point_result_to_json` output."""
    sim_data = dict(data["sim"])
    sim_data["events"] = _events_from_json(sim_data["events"])
    sim = SimulationResult(**sim_data)
    power = PowerReport(**data["power"])
    layer_data = dict(data["layer_power"])
    layer_data["layer_dynamic_w"] = tuple(layer_data["layer_dynamic_w"])
    layer_power = LayerPowerReport(**layer_data)
    return PointResult(
        arch=data["arch"],
        label=data["label"],
        sim=sim,
        power=power,
        node_activity=list(data["node_activity"]),
        node_layer_activity=[
            list(shares) for shares in data["node_layer_activity"]
        ],
        layer_power=layer_power,
    )


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed on-disk cache of completed sweep points.

    Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
    directories small on thousand-point sweeps).  Safe for concurrent
    writers: entries are written to a temp file and atomically renamed,
    and the content is a pure function of the key, so a same-key race
    just writes the same bytes twice.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Probe counters for the current process (not persisted).
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[PointResult]:
        """The cached result for *key*, or ``None``.

        Any read problem — missing file, truncated write from a killed
        process, schema drift — degrades to a miss so the point simply
        re-runs.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("schema") != SCHEMA_VERSION:
                self.misses += 1
                return None
            result = point_result_from_json(data)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, point: PointResult) -> Path:
        """Atomically persist *point* under *key*."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(point_result_to_json(point), sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def cached_point_run(
    store: Optional[ResultStore],
    spec: PointSpec,
    settings: ExperimentSettings,
) -> PointResult:
    """Run *spec* through *store*: serve a hit, else simulate and fill.

    With ``store=None`` this is exactly ``run_point_spec`` — the figure
    harnesses call it unconditionally so caching is a parameter, not a
    code path.
    """
    if store is None:
        return run_point_spec(spec, settings)
    key = point_key(spec, settings)
    hit = store.get(key)
    if hit is not None:
        return hit
    point = run_point_spec(spec, settings)
    store.put(key, point)
    return point


# ---------------------------------------------------------------------------
# Run journal
# ---------------------------------------------------------------------------


class RunJournal:
    """Append-only JSONL checkpoint log for a sweep run.

    One line per event, flushed and fsync'd as written, so the journal
    survives ``kill -9`` with at most the in-flight line lost.  A resumed
    run appends to the same file; the history of every attempt stays in
    one place (CI uploads it as an artifact).
    """

    def __init__(self, path: Union[str, Path], append: bool = False) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = open(
            self.path, "a" if append else "w", encoding="utf-8"
        )

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:  # pragma: no cover - defensive
            raise ValueError("journal is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @staticmethod
    def load(path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Parse a journal file, skipping any torn trailing line."""
        records: List[Dict[str, Any]] = []
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn write from a killed process
        return records


# ---------------------------------------------------------------------------
# Sweep outcome structures
# ---------------------------------------------------------------------------


@dataclass
class SweepStats:
    """Cache/retry/failure counters for one sweep run.

    Mirrors the profiler's phase pattern: scalar counters plus a
    ``phase_wall_s`` dict, rendered by :meth:`format` in the same style
    as :class:`~repro.noc.profiling.ProfileSnapshot`.
    """

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    #: Attempts beyond the first, summed over points (the retry bill).
    retried_attempts: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    failed_points: int = 0
    #: Wall seconds by engine phase: ``probe`` (cache lookups), ``run``
    #: (worker execution, incl. scheduling), ``backoff`` (retry waits).
    phase_wall_s: Dict[str, float] = field(default_factory=dict)

    @property
    def recomputed(self) -> int:
        """Points that actually ran (the CI resume check pins this to 0)."""
        return self.executed

    def to_json(self) -> Dict[str, Any]:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retried_attempts": self.retried_attempts,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "failed_points": self.failed_points,
            "phase_wall_s": dict(self.phase_wall_s),
        }

    def format(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"points            : {self.points}",
            f"cache hits        : {self.cache_hits}",
            f"executed          : {self.executed}",
            f"retried attempts  : {self.retried_attempts}",
            f"failed points     : {self.failed_points} "
            f"(timeouts {self.timeouts}, crashes {self.crashes}, "
            f"errors {self.errors})",
        ]
        for phase, wall in sorted(self.phase_wall_s.items()):
            lines.append(f"{phase:<18}: {wall:.3f} s")
        return "\n".join(lines)


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that exhausted its retry budget."""

    arch: str
    kind: str
    rate: float
    key: str
    #: Total attempts made (1 + retries).
    attempts: int
    #: ``"error"`` (worker raised), ``"timeout"``, or ``"crash"``
    #: (worker process died without reporting).
    failure_kind: str
    #: Message of the final attempt's failure.
    error: str
    #: Traceback text of the final attempt, when one was captured.
    traceback: str = ""

    def describe(self) -> str:
        return (
            f"{self.arch} {self.kind}@{self.rate:g}: "
            f"{self.failure_kind} after {self.attempts} attempt(s) — "
            f"{self.error}"
        )


class SweepPointError(RuntimeError):
    """A sweep point failed; names the point so a bad point in a
    54-point sweep is identifiable without re-running serially."""

    def __init__(
        self, item: Tuple[Architecture, float, str], cause: str,
        attempts: int = 1,
    ) -> None:
        arch, rate, kind = item
        tries = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(
            f"sweep point (arch={arch.value}, rate={rate:g}, kind={kind!r}) "
            f"failed{tries}: {cause}"
        )
        self.item = item
        self.cause = cause
        self.attempts = attempts

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the
        # formatted message alone; rebuild from (item, cause, attempts)
        # so the error survives a process boundary intact.
        return (SweepPointError, (self.item, self.cause, self.attempts))


_ARCH_BY_VALUE = {arch.value: arch for arch in Architecture}


def failure_to_error(failure: PointFailure) -> SweepPointError:
    """Convert a :class:`PointFailure` into the exception the
    raise-on-failure paths throw.  Callers that want the original
    exception chained do ``raise failure_to_error(f) from exc`` so retry
    wrapping preserves ``__cause__``."""
    arch = _ARCH_BY_VALUE[failure.arch]
    return SweepPointError(
        (arch, failure.rate, failure.kind), failure.error, failure.attempts
    )


@dataclass
class SweepOutcome:
    """Everything a fault-tolerant sweep produces.

    ``series`` has the same ``arch -> [(rate, PointResult)]`` shape as
    the serial harnesses — containing every point that succeeded — and
    its ordering is deterministic (spec order per architecture, rates
    ascending) regardless of worker completion order.
    """

    series: Dict[str, List[Tuple[float, PointResult]]]
    failures: List[PointFailure]
    stats: SweepStats
    journal_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        """Raise a SweepPointError for the first failure, if any."""
        if self.failures:
            raise failure_to_error(self.failures[0])
