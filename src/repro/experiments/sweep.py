"""Resumable, cached, fault-tolerant sweep engine.

:func:`run_sweep` is the one way to run a grid of points, inline or
over worker processes.  It treats a sweep as a batch job:

* **Cache** — every point is content-addressed
  (:func:`repro.experiments.store.point_key`); finished points are
  served from the :class:`~repro.experiments.store.ResultStore` without
  simulating, and the simulator's determinism makes the hit
  bit-identical to a re-run.
* **Journal + resume** — each completed point is checkpointed to a
  JSONL :class:`~repro.experiments.store.RunJournal` as it lands.  An
  interrupted sweep re-run with ``resume=True`` skips straight through
  its finished points (100% cache hits) and only simulates the gap.
* **Fault tolerance** — each point runs in its own worker process, so
  a crash (segfault, OOM-kill) is contained; a configurable
  ``point_timeout`` terminates hung workers; failed attempts retry with
  exponential backoff up to ``retries`` times; and with the default
  ``failure_mode="report"`` a dead point lands in a structured
  :class:`~repro.experiments.store.PointFailure` report instead of
  sinking its siblings.

Results come back as a :class:`~repro.experiments.store.SweepOutcome`
whose ``series`` ordering is deterministic (spec order, rates
ascending) regardless of completion order.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import traceback
from multiprocessing import get_context
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from repro.core.arch import Architecture, ArchitectureConfig, make_architecture
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import PointResult, run_point_spec
from repro.experiments.store import (
    PointFailure,
    PointSpec,
    ResultStore,
    RunJournal,
    SweepOutcome,
    SweepStats,
    failure_to_error,
    point_key,
)

#: Worker signature tests can substitute to inject faults.
WorkerFn = Callable[[PointSpec, ExperimentSettings], PointResult]

#: Scheduler poll interval (s); short enough that sub-second
#: point timeouts in the crash-injection tests are honoured.
_POLL_S = 0.01
#: Retry backoff growth: retry *n* of a point waits
#: ``backoff_s * _BACKOFF_FACTOR ** (n - 1)`` seconds.
_BACKOFF_FACTOR = 2.0


def specs_for_grid(
    archs: Sequence[Any],
    rates: Sequence[float],
    kind: str = "uniform",
    short_flit_fraction: float = 0.0,
    shutdown_enabled: bool = False,
    seed: Optional[int] = None,
    **resilience: object,
) -> List[PointSpec]:
    """The ``archs x rates`` grid as PointSpecs (arch-major order).

    Each entry of *archs* is either an :class:`Architecture` enum member
    (expanded through :func:`make_architecture` with defaults) or an
    already-built :class:`ArchitectureConfig` — so custom fabrics
    (non-default ring sizes, irregular graphs) sweep through the same
    grid builder and cache keying as the paper's six designs.

    Extra keyword arguments (``fault_random_links``, ``fault_seed``,
    ``fault_mode``, ``variation_sigma``, ``variation_seed``, ...) pass
    straight through to every :class:`PointSpec`, so resilience sweeps
    reuse the same grid builder and get the same cache keying.
    """
    return [
        PointSpec(
            config=(
                arch
                if isinstance(arch, ArchitectureConfig)
                else make_architecture(arch)
            ),
            kind=kind,
            rate=rate,
            short_flit_fraction=short_flit_fraction,
            shutdown_enabled=shutdown_enabled,
            seed=seed,
            **resilience,
        )
        for arch in archs
        for rate in rates
    ]


class _Task:
    """Mutable scheduling state for one pending point."""

    __slots__ = (
        "index", "spec", "key", "attempts", "not_before",
        "failure_kind", "error", "tb",
    )

    def __init__(self, index: int, spec: PointSpec, key: str) -> None:
        self.index = index
        self.spec = spec
        self.key = key
        self.attempts = 0
        self.not_before = 0.0
        self.failure_kind = ""
        self.error = ""
        self.tb = ""


class _Running:
    """A live worker process executing one task."""

    __slots__ = ("task", "process", "conn", "deadline")

    def __init__(self, task: _Task, process, conn, deadline: Optional[float]):
        self.task = task
        self.process = process
        self.conn = conn
        self.deadline = deadline


def _run_point(
    spec: PointSpec,
    settings: ExperimentSettings,
    telemetry_dir: Optional[str],
    telemetry_attribution: bool,
) -> PointResult:
    """The default worker: run one spec, streaming its telemetry to
    ``<telemetry_dir>/<arch>_<kind>@<rate>.jsonl`` when a directory is
    given.  Inline and pooled sweeps both run points through here."""
    telemetry = None
    if telemetry_dir is not None:
        from repro.experiments.runner import point_telemetry_config

        telemetry = point_telemetry_config(
            telemetry_dir,
            f"{spec.arch_name}_{spec.kind}@{spec.rate:g}",
            attribution=telemetry_attribution,
        )
    return run_point_spec(spec, settings, telemetry=telemetry)


def _child_main(conn, spec, settings, worker: WorkerFn) -> None:
    """Worker entry point: run one spec, ship the outcome over *conn*.

    Every exception is reported as data (message + traceback text) so
    the parent can retry or fold it into the failure report; only a
    process-level death (signal, ``os._exit``) leaves the pipe empty.
    """
    try:
        conn.send(("ok", worker(spec, settings)))
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        conn.send(
            ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
        )
    finally:
        conn.close()


class ProgressEmitter:
    """Structured per-point sweep progress.

    Emits one human-readable line per point event (cache hit, done,
    retry, failed) to *stream* (stderr by default, where it cannot
    corrupt piped stdout output), and optionally mirrors each event as
    a JSON record to *jsonl_path* for machine consumers (CI dashboards,
    wrapper scripts polling a long sweep).  The ETA is a simple
    rate-based extrapolation over finished points; cache hits complete
    in microseconds, so early all-hit resumes show optimistic ETAs that
    correct themselves as soon as real points land.
    """

    def __init__(
        self,
        total: int,
        stream: Optional[IO[str]] = None,
        jsonl_path: Optional[str] = None,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.cache_hits = 0
        self._start = time.monotonic()
        self._jsonl: Optional[IO[str]] = None
        if jsonl_path is not None:
            parent = os.path.dirname(jsonl_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._jsonl = open(jsonl_path, "w", encoding="utf-8")

    def point(self, task: "_Task", status: str, cached: bool = False) -> None:
        if status == "done":
            self.done += 1
            if cached:
                self.cache_hits += 1
        elif status == "failed":
            self.failed += 1
        elif status == "retry":
            self.retries += 1
        finished = self.done + self.failed
        elapsed = time.monotonic() - self._start
        eta = (
            elapsed / finished * (self.total - finished)
            if finished
            else None
        )
        label = f"{task.spec.arch_name} {task.spec.kind}@{task.spec.rate:g}"
        parts = [
            f"[sweep {finished}/{self.total}]",
            f"{status:<6}",
            f"{label:<24}",
            f"elapsed {elapsed:6.1f}s",
        ]
        if eta is not None:
            parts.append(f"eta {eta:6.1f}s")
        tallies = []
        if self.cache_hits:
            tallies.append(f"{self.cache_hits} cached")
        if self.retries:
            tallies.append(f"{self.retries} retries")
        if self.failed:
            tallies.append(f"{self.failed} failed")
        if tallies:
            parts.append("(" + ", ".join(tallies) + ")")
        print(" ".join(parts), file=self.stream, flush=True)
        if self._jsonl is not None:
            self._jsonl.write(json.dumps({
                "type": "progress",
                "status": status,
                "arch": task.spec.arch_name,
                "kind": task.spec.kind,
                "rate": task.spec.rate,
                "attempts": task.attempts,
                "cached": cached,
                "done": self.done,
                "failed": self.failed,
                "retries": self.retries,
                "cache_hits": self.cache_hits,
                "total": self.total,
                "elapsed_s": round(elapsed, 3),
                "eta_s": round(eta, 3) if eta is not None else None,
            }) + "\n")
            self._jsonl.flush()

    def close(self) -> None:
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None


def _mp_context():
    try:
        return get_context("fork")  # workers inherit the loaded package
    except ValueError:  # pragma: no cover - Windows/spawn-only platforms
        return get_context("spawn")


def _preload_opt_in_layers(
    pending: Sequence[_Task], telemetry_dir: Optional[str]
) -> None:
    """Import the opt-in layers the pending points use, in this process.

    The package loads lazily, so without this each forked worker would
    import telemetry, fault or variation modules afresh for its single
    point instead of inheriting them.
    """
    if telemetry_dir is not None:
        importlib.import_module("repro.telemetry.sampler")
    if any(task.spec.has_faults for task in pending):
        importlib.import_module("repro.resilience.faults")
    if any(task.spec.variation_sigma for task in pending):
        importlib.import_module("repro.resilience.variation")


def _journal_point(
    journal: Optional[RunJournal],
    task: _Task,
    status: str,
    cached: bool = False,
    progress: Optional[ProgressEmitter] = None,
) -> None:
    # Every per-point event (cache hit, done, retry, failed) funnels
    # through here, so this is also where progress reporting hooks in.
    if progress is not None:
        progress.point(task, status, cached=cached)
    if journal is None:
        return
    record = {
        "type": "point",
        "status": status,
        "key": task.key,
        "arch": task.spec.arch_name,
        "kind": task.spec.kind,
        "rate": task.spec.rate,
        "attempts": task.attempts,
        "cached": cached,
    }
    if status == "failed":
        record["failure_kind"] = task.failure_kind
        record["error"] = task.error
    journal.append(record)


def run_sweep(
    specs: Sequence[PointSpec],
    settings: Optional[ExperimentSettings] = None,
    *,
    processes: int = 2,
    cache_dir: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    backoff_s: float = 0.5,
    point_timeout: Optional[float] = None,
    failure_mode: str = "report",
    telemetry_dir: Optional[str] = None,
    telemetry_attribution: bool = False,
    progress: bool = False,
    progress_stream: Optional[IO[str]] = None,
    progress_jsonl: Optional[str] = None,
    worker_fn: Optional[WorkerFn] = None,
) -> SweepOutcome:
    """Run *specs*, caching, journaling, and surviving worker failures.

    ``processes >= 1`` runs each point in its own worker process (the
    only mode where ``point_timeout`` and crash containment are
    enforceable); ``processes=0`` runs points inline in this process —
    handy under a debugger — where a timeout cannot be enforced and is
    rejected.  ``failure_mode`` is ``"report"`` (collect
    :class:`PointFailure`\\ s, return partial results) or ``"raise"``
    (raise :class:`~repro.experiments.store.SweepPointError` for the
    first failed point, preserving the causing exception via
    ``raise ... from`` when it happened in-process).

    ``resume=True`` requires ``cache_dir`` (the cache is what serves
    previously finished points) and appends to an existing journal
    instead of truncating it.

    ``telemetry_attribution`` (with ``telemetry_dir``) turns on stall
    attribution per point and writes each point's stall report to
    ``<dir>/<stem>.stalls.json``.  The telemetry options apply to the
    default worker; a custom ``worker_fn`` runs points as it likes.

    ``progress=True`` prints one line per point event (cache hit, done,
    retry, failed) with done/total, failure/retry/cache tallies, and a
    rate-based ETA to ``progress_stream`` (stderr by default);
    ``progress_jsonl`` mirrors the same events as machine-readable
    JSONL records, independent of ``progress``.
    """
    settings = settings or ExperimentSettings.from_env()
    if processes < 0:
        raise ValueError(f"processes must be >= 0, got {processes}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if point_timeout is not None and point_timeout <= 0:
        raise ValueError(f"point_timeout must be positive, got {point_timeout}")
    if point_timeout is not None and processes == 0:
        raise ValueError("point_timeout requires worker processes (processes >= 1)")
    if failure_mode not in ("report", "raise"):
        raise ValueError(f"unknown failure_mode {failure_mode!r}")
    if resume and cache_dir is None:
        raise ValueError("resume=True requires cache_dir (it serves finished points)")
    if telemetry_dir is not None:
        os.makedirs(telemetry_dir, exist_ok=True)

    store = ResultStore(cache_dir) if cache_dir is not None else None
    journal = (
        RunJournal(journal_path, append=resume)
        if journal_path is not None
        else None
    )
    emitter = (
        ProgressEmitter(
            len(specs), stream=progress_stream, jsonl_path=progress_jsonl
        )
        if progress or progress_jsonl is not None
        else None
    )

    stats = SweepStats(points=len(specs))
    results: Dict[int, PointResult] = {}
    failures: List[PointFailure] = []
    tasks = [
        _Task(i, spec, point_key(spec, settings)) for i, spec in enumerate(specs)
    ]

    try:
        if journal is not None:
            journal.append({
                "type": "run-start",
                "points": len(specs),
                "resume": resume,
                "retries": retries,
                "processes": processes,
            })

        # Phase 1: probe the cache; hits never reach a worker.
        probe_start = time.monotonic()
        pending: List[_Task] = []
        for task in tasks:
            hit = store.get(task.key) if store is not None else None
            if hit is not None:
                results[task.index] = hit
                stats.cache_hits += 1
                _journal_point(
                    journal, task, "done", cached=True, progress=emitter
                )
            else:
                pending.append(task)
        stats.phase_wall_s["probe"] = time.monotonic() - probe_start

        # Phase 2: execute the misses.
        run_start = time.monotonic()
        worker = worker_fn if worker_fn is not None else functools.partial(
            _run_point,
            telemetry_dir=telemetry_dir,
            telemetry_attribution=telemetry_attribution,
        )
        if pending:
            if processes == 0:
                _run_inline(
                    pending, settings, worker, retries, backoff_s,
                    failure_mode, store, journal, stats, results, failures,
                    emitter,
                )
            else:
                _preload_opt_in_layers(pending, telemetry_dir)
                _run_pooled(
                    pending, settings, worker, processes, retries, backoff_s,
                    point_timeout, failure_mode, store, journal, stats,
                    results, failures, emitter,
                )
        stats.phase_wall_s["run"] = time.monotonic() - run_start

        if journal is not None:
            journal.append({
                "type": "run-end",
                "completed": len(results),
                "failed": len(failures),
                "stats": stats.to_json(),
            })
    finally:
        if journal is not None:
            journal.close()
        if emitter is not None:
            emitter.close()

    # Deterministic assembly: specs' arch order, rates ascending —
    # completion order (which varies run to run) never shows through.
    series: Dict[str, List[Tuple[float, PointResult]]] = {}
    for task in tasks:
        point = results.get(task.index)
        if point is not None:
            series.setdefault(task.spec.arch_name, []).append(
                (task.spec.rate, point)
            )
    for points in series.values():
        points.sort(key=lambda pair: pair[0])
    failures.sort(key=lambda f: (f.arch, f.kind, f.rate))

    outcome = SweepOutcome(
        series=series,
        failures=failures,
        stats=stats,
        journal_path=journal_path,
    )
    if failure_mode == "raise":
        outcome.raise_if_failed()
    return outcome


def _backoff_delay(backoff_s: float, attempts: int) -> float:
    return backoff_s * (_BACKOFF_FACTOR ** max(attempts - 1, 0))


def _record_failure(
    task: _Task,
    failure_mode: str,
    stats: SweepStats,
    failures: List[PointFailure],
    journal: Optional[RunJournal],
    cause: Optional[BaseException] = None,
    progress: Optional[ProgressEmitter] = None,
) -> None:
    """Retries exhausted: report the point, or raise on the spot."""
    stats.failed_points += 1
    _journal_point(journal, task, "failed", progress=progress)
    failure = PointFailure(
        arch=task.spec.arch_name,
        kind=task.spec.kind,
        rate=task.spec.rate,
        key=task.key,
        attempts=task.attempts,
        failure_kind=task.failure_kind,
        error=task.error,
        traceback=task.tb,
    )
    if failure_mode == "raise":
        # ``raise ... from`` keeps the causing exception on __cause__
        # through the retry wrapping (cause is None when the worker
        # died in another process — its traceback text still rides
        # along inside the failure).
        raise failure_to_error(failure) from cause
    failures.append(failure)


def _handle_attempt_failure(
    task: _Task,
    retries: int,
    backoff_s: float,
    failure_mode: str,
    stats: SweepStats,
    failures: List[PointFailure],
    journal: Optional[RunJournal],
    waiting: List[_Task],
    cause: Optional[BaseException] = None,
    progress: Optional[ProgressEmitter] = None,
) -> None:
    if task.failure_kind == "timeout":
        stats.timeouts += 1
    elif task.failure_kind == "crash":
        stats.crashes += 1
    else:
        stats.errors += 1
    if task.attempts <= retries:
        stats.retried_attempts += 1
        task.not_before = (
            time.monotonic() + _backoff_delay(backoff_s, task.attempts)
        )
        _journal_point(journal, task, "retry", progress=progress)
        waiting.append(task)
    else:
        _record_failure(
            task, failure_mode, stats, failures, journal, cause,
            progress=progress,
        )


def _run_inline(
    pending: List[_Task],
    settings: ExperimentSettings,
    worker: WorkerFn,
    retries: int,
    backoff_s: float,
    failure_mode: str,
    store: Optional[ResultStore],
    journal: Optional[RunJournal],
    stats: SweepStats,
    results: Dict[int, PointResult],
    failures: List[PointFailure],
    progress: Optional[ProgressEmitter] = None,
) -> None:
    """Sequential in-process execution (``processes=0``)."""
    for task in pending:
        while True:
            task.attempts += 1
            try:
                point = worker(task.spec, settings)
            except Exception as exc:
                task.failure_kind = "error"
                task.error = f"{type(exc).__name__}: {exc}"
                task.tb = traceback.format_exc()
                if task.attempts <= retries:
                    stats.errors += 1
                    stats.retried_attempts += 1
                    _journal_point(journal, task, "retry", progress=progress)
                    time.sleep(_backoff_delay(backoff_s, task.attempts))
                    continue
                stats.errors += 1
                _record_failure(
                    task, failure_mode, stats, failures, journal, cause=exc,
                    progress=progress,
                )
                break
            results[task.index] = point
            stats.executed += 1
            if store is not None:
                store.put(task.key, point)
            _journal_point(journal, task, "done", progress=progress)
            break


def _run_pooled(
    pending: List[_Task],
    settings: ExperimentSettings,
    worker: WorkerFn,
    processes: int,
    retries: int,
    backoff_s: float,
    point_timeout: Optional[float],
    failure_mode: str,
    store: Optional[ResultStore],
    journal: Optional[RunJournal],
    stats: SweepStats,
    results: Dict[int, PointResult],
    failures: List[PointFailure],
    progress: Optional[ProgressEmitter] = None,
) -> None:
    """One process per point, at most *processes* live at once.

    A dedicated process per point (rather than a long-lived pool) is
    what makes the robustness guarantees simple: a hung worker can be
    ``terminate()``d without poisoning a shared pool, and a crashed one
    takes nothing down with it.  Points run for seconds, so the
    per-process overhead is noise.
    """
    ctx = _mp_context()
    queue: List[_Task] = list(pending)  # FIFO, spec order
    waiting: List[_Task] = []  # backoff until not_before
    running: List[_Running] = []

    def launch(task: _Task) -> None:
        task.attempts += 1
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main, args=(send, task.spec, settings, worker)
        )
        process.start()
        send.close()  # child's end; parent sees EOF when the child dies
        deadline = (
            time.monotonic() + point_timeout
            if point_timeout is not None
            else None
        )
        running.append(_Running(task, process, recv, deadline))

    def finish(run: _Running, outcome: Optional[Tuple]) -> None:
        """Fold one worker's exit (message or death) back into the state."""
        task = run.task
        run.conn.close()
        if outcome is not None and outcome[0] == "ok":
            point = outcome[1]
            results[task.index] = point
            stats.executed += 1
            if store is not None:
                store.put(task.key, point)
            _journal_point(journal, task, "done", progress=progress)
            return
        if outcome is not None:  # ("error", message, traceback)
            task.failure_kind = "error"
            task.error = outcome[1]
            task.tb = outcome[2]
        else:
            task.failure_kind = "crash"
            task.error = (
                f"worker process died with exit code {run.process.exitcode}"
            )
            task.tb = ""
        _handle_attempt_failure(
            task, retries, backoff_s, failure_mode, stats, failures,
            journal, waiting, progress=progress,
        )

    try:
        while queue or waiting or running:
            now = time.monotonic()

            # Backoff expiry: re-queue tasks whose wait is over.
            still_waiting = [t for t in waiting if t.not_before > now]
            for task in waiting:
                if task.not_before <= now:
                    queue.append(task)
            waiting[:] = still_waiting

            while queue and len(running) < processes:
                launch(queue.pop(0))

            progressed = False
            still_running: List[_Running] = []
            for run in running:
                # Message first: a finished worker may have exited
                # already but its result is still buffered in the pipe.
                if run.conn.poll():
                    try:
                        outcome = run.conn.recv()
                    except (EOFError, OSError):
                        outcome = None
                    run.process.join()
                    finish(run, outcome)
                    progressed = True
                elif not run.process.is_alive():
                    run.process.join()
                    # Final drain: the message can land between the
                    # poll above and the liveness check.
                    outcome = None
                    if run.conn.poll():
                        try:
                            outcome = run.conn.recv()
                        except (EOFError, OSError):
                            outcome = None
                    finish(run, outcome)
                    progressed = True
                elif run.deadline is not None and now > run.deadline:
                    run.process.terminate()
                    run.process.join()
                    run.conn.close()
                    run.task.failure_kind = "timeout"
                    run.task.error = (
                        f"point exceeded timeout of {point_timeout:g}s "
                        f"(attempt {run.task.attempts})"
                    )
                    run.task.tb = ""
                    _handle_attempt_failure(
                        run.task, retries, backoff_s, failure_mode, stats,
                        failures, journal, waiting, progress=progress,
                    )
                    progressed = True
                else:
                    still_running.append(run)
            running[:] = still_running

            if not progressed and (running or waiting):
                time.sleep(_POLL_S)
    finally:
        # failure_mode="raise" (or Ctrl-C) can exit mid-flight; never
        # leave orphaned simulator processes behind.
        for run in running:
            if run.process.is_alive():
                run.process.terminate()
            run.process.join()
            run.conn.close()
