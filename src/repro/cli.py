"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-line access to the main flows:

* ``simulate``    — run one architecture under synthetic traffic
* ``compare``     — all six configurations side by side
* ``area``        — the Table 1 component-area breakdown
* ``delays``      — the Table 3 pipeline-merge validation
* ``trace``       — synthesise an MP trace from a workload model
* ``workloads``   — list the calibrated workload profiles
* ``experiment``  — run a named table/figure harness
* ``sweep``       — cached, resumable, fault-tolerant rate sweeps
* ``diagnose``    — congestion forensics: stall attribution, latency
  decomposition, and a hotspot/backpressure report for one run
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.core.arch import (
    Architecture,
    make_architecture,
    standard_configs,
)
from repro.experiments.config import ExperimentSettings
from repro.experiments.report import format_table
from repro.experiments.runner import (
    fault_plan_for_spec,
    run_point_spec,
    variation_sample_for_spec,
)
from repro.experiments.store import PointSpec
from repro.traffic.workloads import WORKLOADS

_ARCH_BY_NAME = {arch.value: arch for arch in Architecture}

#: ``--topology`` shorthand names for the substrate fabrics.
_TOPOLOGY_ARCHS = {
    "ring": Architecture.RING,
    "chiplet": Architecture.CHIPLET,
    "irregular": Architecture.IRREGULAR,
}


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings.full() if args.full else ExperimentSettings.quick()


def _resolve_arch(name: str) -> Architecture:
    if name not in _ARCH_BY_NAME:
        raise SystemExit(
            f"unknown architecture {name!r}; choose from {sorted(_ARCH_BY_NAME)}"
        )
    return _ARCH_BY_NAME[name]


def _make_config(args: argparse.Namespace):
    """The architecture a simulate/diagnose invocation names.

    ``--topology ring|chiplet|irregular`` overrides ``--arch``;
    irregular fabrics additionally need ``--topology-file``.
    """
    topology = getattr(args, "topology", None)
    arch = _TOPOLOGY_ARCHS[topology] if topology else _resolve_arch(args.arch)
    kwargs = {}
    if arch is Architecture.IRREGULAR:
        topology_file = getattr(args, "topology_file", None)
        if not topology_file:
            raise SystemExit(
                "irregular fabrics need --topology-file JSON (see "
                "`repro topologies`)"
            )
        kwargs["topology_file"] = topology_file
    return make_architecture(arch, **kwargs)


def _number(text: str, parse, valid, what: str):
    """Parse an option value with *parse* (``int`` or ``float``); a value
    that does not parse or fails *valid* is a usage error, not a
    traceback from deep inside the run."""
    try:
        value = parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not valid(value):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for injection rates and timeouts."""
    return _number(
        text, float, lambda v: v > 0 and math.isfinite(v),
        "a positive finite number",
    )


def _rate_list(text: str) -> list:
    """argparse type for a comma-separated list of injection rates."""
    return [_positive_float(rate) for rate in text.split(",")]


def _non_negative_float(text: str) -> float:
    """argparse type for spreads and delays (variation sigma, backoff)."""
    return _number(
        text, float, lambda v: v >= 0 and math.isfinite(v),
        "a non-negative finite number",
    )


def _fraction(text: str) -> float:
    """argparse type for fractions in [0, 1] (NaN fails too)."""
    return _number(
        text, float, lambda v: 0.0 <= v <= 1.0, "a fraction in [0, 1]"
    )


def _positive_int(text: str) -> int:
    """argparse type for cycle counts and intervals."""
    return _number(text, int, lambda v: v >= 1, "an integer >= 1")


def _non_negative_int(text: str) -> int:
    """argparse type for counts."""
    return _number(text, int, lambda v: v >= 0, "an integer >= 0")


def _ids(text: str, shape: str) -> tuple:
    """The non-negative ints of colon-separated *text*, one per field of
    *shape* (e.g. ``"SRC:DST"``)."""
    try:
        values = tuple(int(part) for part in text.split(":"))
    except ValueError:
        values = ()
    if len(values) != shape.count(":") + 1 or min(values) < 0:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    return values


def _channel(text: str) -> tuple:
    """argparse type: ``"SRC:DST"`` -> (src, dst)."""
    return _ids(text, "SRC:DST")


def _stuck_vc(text: str) -> tuple:
    """argparse type: ``"NODE:PORT:VC"`` -> (node, port, vc)."""
    return _ids(text, "NODE:PORT:VC")


def _point_spec(args: argparse.Namespace, config):
    """The :class:`~repro.experiments.store.PointSpec` the simulate
    flags describe; every fault lands at ``--fault-cycle``."""
    cycle = args.fault_cycle
    return PointSpec(
        config,
        args.traffic,
        args.rate,
        short_flit_fraction=args.short_flits,
        shutdown_enabled=args.short_flits > 0,
        fault_links=tuple(
            (cycle, *channel) for channel in args.fail_link or ()
        ),
        fault_vcs=tuple((cycle, *unit) for unit in args.stick_vc or ()),
        fault_random_links=args.inject_faults,
        fault_seed=args.fault_seed,
        fault_cycle=cycle,
        fault_mode=args.fault_mode,
        variation_sigma=args.variation_sigma,
        variation_seed=args.variation_seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _make_config(args)
    settings = _settings(args)
    telemetry = None
    if args.metrics_out or args.trace_out:
        # Lazy import: telemetry-free invocations never load the package.
        from repro.telemetry.sampler import TelemetryConfig

        telemetry = TelemetryConfig(
            interval=args.metrics_interval,
            metrics_path=args.metrics_out,
            trace_path=args.trace_out,
            trace_sample_rate=args.trace_sample_rate,
            trace_head_tail=args.trace_head_tail,
            trace_seed=args.trace_seed,
            arch_config=config,
        )
    spec = _point_spec(args, config)
    faults = fault_plan_for_spec(spec)
    if faults is not None:
        # A fault the network cannot take is a usage error before cycle 0.
        try:
            faults.check(config.build_topology(), config.vcs)
        except ValueError as err:
            args.usage_error(f"argument --fail-link/--stick-vc: {err}")
    point = run_point_spec(
        spec, settings, telemetry,
        profile=args.profile,
        sanitize=args.sanitize,
        sanitize_interval=args.sanitize_interval,
    )
    print(f"architecture      : {point.arch}")
    print(f"traffic           : {point.label}")
    print(f"avg latency       : {point.avg_latency:.2f} cycles")
    print(f"avg hops          : {point.avg_hops:.2f}")
    print(f"throughput        : {point.sim.throughput:.4f} flits/node/cycle")
    print(f"network power     : {point.total_power_w:.3f} W")
    print(f"power-delay prod. : {point.pdp * 1e9:.3f} W*ns")
    if point.sim.fault_summary is not None:
        fs = point.sim.fault_summary
        print(
            f"faults            : {fs['links_killed']} links killed "
            f"({fs['mode']}), {fs['vcs_stuck']} VCs stuck, "
            f"{point.sim.packets_dropped} packets dropped"
        )
    variation = variation_sample_for_spec(spec)
    if variation is not None:
        print(
            f"variation         : sigma {variation.sigma:g} seed "
            f"{variation.seed}, worst delay x"
            f"{variation.worst_delay_multiplier:.3f}, leakage x"
            f"{variation.leakage_multiplier:.3f}"
        )
    if point.sim.saturated:
        print("warning           : network saturated at this load")
    if point.sim.profile is not None:
        print("--- hot-loop profile ---")
        print(point.sim.profile.format())
    if point.sim.sanity is not None:
        print("--- sanitizer ---")
        print(point.sim.sanity.format())
    if point.sim.telemetry is not None:
        print("--- telemetry ---")
        print(point.sim.telemetry.format())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    settings = _settings(args)
    rows = []
    summary = {}
    for config in standard_configs():
        point = run_point_spec(PointSpec(config, "uniform", args.rate), settings)
        rows.append(
            [
                config.name,
                f"{point.avg_latency:.2f}",
                f"{point.avg_hops:.2f}",
                f"{point.total_power_w:.3f}",
                f"{point.pdp * 1e9:.3f}",
            ]
        )
        summary[config.name] = {
            "avg_latency": point.avg_latency,
            "avg_hops": point.avg_hops,
            "total_power_w": point.total_power_w,
            "pdp_wns": point.pdp * 1e9,
            "throughput": point.sim.throughput,
            "saturated": point.sim.saturated,
        }
    print(f"uniform random @ {args.rate:g} flits/node/cycle")
    print(
        format_table(
            ["arch", "latency (cyc)", "hops", "power (W)", "PDP (W*ns)"], rows
        )
    )
    if args.json:
        # Machine-readable mirror of the table, same writer convention
        # as `sweep --stats-out` (pretty-printed, sorted, newline).
        import json
        from pathlib import Path

        json_path = Path(args.json)
        if json_path.parent != Path(""):
            json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps({
            "traffic": "uniform",
            "rate": args.rate,
            "archs": summary,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {json_path}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Run one point with stall attribution + sampled lifecycle capture
    and print the congestion-forensics report."""
    from repro.telemetry import format_stall_report
    from repro.telemetry.sampler import TelemetryConfig

    config = make_architecture(_resolve_arch(args.arch))
    settings = _settings(args)
    telemetry = TelemetryConfig(
        interval=args.interval,
        attribution=True,
        attribution_top_k=args.top,
        trace_capture=True,
        trace_sample_rate=args.sample_rate,
        trace_head_tail=args.head_tail,
        trace_seed=args.trace_seed,
        arch_config=config,
    )
    spec = PointSpec(
        config, args.traffic, args.rate,
        short_flit_fraction=args.short_flits,
        shutdown_enabled=args.short_flits > 0,
    )
    point = run_point_spec(spec, settings, telemetry)
    report = point.sim.telemetry.stall_report
    print(f"architecture      : {point.arch}")
    print(f"traffic           : {point.label}")
    print(f"avg latency       : {point.avg_latency:.2f} cycles")
    print(f"throughput        : {point.sim.throughput:.4f} flits/node/cycle")
    if point.sim.saturated:
        print("warning           : network saturated at this load")
    print()
    print(format_stall_report(report))
    if args.json:
        import json
        from pathlib import Path

        json_path = Path(args.json)
        if json_path.parent != Path(""):
            json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {json_path}")
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    from repro.experiments.area_tables import table1_area

    table = table1_area()
    modules = ["RC", "SA1", "SA2", "VA1", "VA2", "Crossbar", "Buffer"]
    rows = []
    for module in modules:
        rows.append(
            [module]
            + [f"{table[a]['model'].per_layer[module]:,.0f}"
               for a in ("2DB", "3DB", "3DM", "3DM-E")]
        )
    rows.append(
        ["Total"]
        + [f"{table[a]['model'].total:,.0f}" for a in ("2DB", "3DB", "3DM", "3DM-E")]
    )
    print("router component area (um^2), Table 1 model")
    print(format_table(["module", "2DB", "3DB", "3DM*", "3DM-E*"], rows))
    return 0


def cmd_delays(args: argparse.Namespace) -> int:
    from repro.experiments.area_tables import table3_delays

    rows = [
        [
            r.name,
            f"{r.xbar_ps:.2f}",
            f"{r.link_ps:.2f}",
            f"{r.combined_ps:.2f}",
            "Yes" if r.can_combine else "No",
        ]
        for r in table3_delays()
    ]
    print("pipeline-merge delay validation (Table 3), 500 ps budget")
    print(format_table(["design", "XBAR ps", "Link ps", "Combined", "merge?"], rows))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.cache.hierarchy import generate_trace
    from repro.traffic.traces import write_trace

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; see `repro workloads`"
        )
    config = make_architecture(_resolve_arch(args.arch))
    records, stats = generate_trace(
        config, WORKLOADS[args.workload], cycles=args.cycles, seed=args.seed
    )
    count = write_trace(args.output, records)
    print(f"wrote {count} packets to {args.output}")
    print(f"L1 miss rate {stats.l1_miss_rate:.3f}, "
          f"{stats.ctrl_packet_fraction:.0%} control packets")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        [
            p.name,
            f"{p.short_flit_fraction:.0%}",
            f"{p.ctrl_packet_fraction:.0%}",
            f"{p.request_rate:g}",
            f"{p.l1_miss_rate:.1%}",
        ]
        for p in WORKLOADS.values()
    ]
    print(
        format_table(
            ["workload", "short flits", "ctrl pkts", "req rate", "L1 miss"], rows
        )
    )
    return 0


def cmd_topologies(args: argparse.Namespace) -> int:
    """List the topology substrate: fabrics, routing dispatch, radix."""
    from repro.core.arch import fabric_configs
    from repro.noc.routing import registered_routings, routing_for_topology

    print("routing registry (most-derived topology class wins):")
    for topo_cls, factory in sorted(
        registered_routings().items(), key=lambda kv: kv[0].__name__
    ):
        factory_name = getattr(factory, "__name__", type(factory).__name__)
        print(f"  {topo_cls.__name__:<14} -> {factory_name}")
    print()
    print("fabric architectures (`repro simulate --topology ...`):")
    rows = []
    for config in fabric_configs():
        topology = config.build_topology()
        routing = routing_for_topology(topology)
        rows.append([
            config.name,
            type(topology).__name__,
            f"{topology.num_nodes}",
            f"{len(topology.links)}",
            f"{topology.max_radix()}",
            getattr(routing, "describe", lambda: type(routing).__name__)(),
        ])
    print(format_table(
        ["arch", "topology", "nodes", "links", "radix", "routing"], rows
    ))
    print()
    print(
        "irregular fabrics: `repro simulate --topology irregular "
        "--topology-file graph.json` (JSON schema: "
        "repro.topology.irregular)"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Cached, resumable, fault-tolerant sweep over archs x rates."""
    import json

    from repro.experiments.export import export_json, sweep_to_dict
    from repro.experiments.sweep import run_sweep, specs_for_grid

    settings = _settings(args)
    archs = []
    for name in args.archs.split(","):
        arch = _resolve_arch(name.strip())
        if arch is Architecture.IRREGULAR:
            if not args.topology_file:
                raise SystemExit(
                    "sweeping IRREG needs --topology-file JSON"
                )
            archs.append(
                make_architecture(arch, topology_file=args.topology_file)
            )
        else:
            archs.append(arch)
    if args.rates:
        rates = args.rates
    else:
        rates = list(
            settings.uniform_rates if args.traffic == "uniform"
            else settings.nuca_rates
        )
    outcome = run_sweep(
        specs_for_grid(archs, rates, kind=args.traffic),
        settings,
        processes=args.processes,
        cache_dir=args.cache_dir,
        journal_path=args.journal,
        resume=args.resume,
        retries=args.retries,
        backoff_s=args.backoff,
        point_timeout=args.point_timeout,
        failure_mode="report",
        telemetry_dir=args.telemetry_dir,
        telemetry_attribution=args.telemetry_attribution,
        progress=args.progress,
        progress_jsonl=args.progress_jsonl,
    )

    rows = []
    for arch, series in outcome.series.items():
        for rate, point in series:
            rows.append([
                arch, f"{rate:g}", f"{point.avg_latency:.2f}",
                f"{point.avg_hops:.2f}", f"{point.total_power_w:.3f}",
            ])
    print(f"{args.traffic} sweep, {len(archs)} arch(s) x {len(rates)} rate(s)")
    print(format_table(
        ["arch", "rate", "latency (cyc)", "hops", "power (W)"], rows
    ))
    print("--- sweep engine ---")
    print(outcome.stats.format())
    for failure in outcome.failures:
        print(f"FAILED: {failure.describe()}")
    if args.out:
        path = export_json(sweep_to_dict(outcome.series), args.out)
        print(f"wrote {path}")
    if args.stats_out:
        from pathlib import Path

        stats_path = Path(args.stats_out)
        if stats_path.parent != Path(""):
            stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps({
            "stats": outcome.stats.to_json(),
            "failures": [f.describe() for f in outcome.failures],
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {stats_path}")
    return 0 if outcome.ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as exp
    from repro.experiments.report import dict_table, sweep_table

    settings = _settings(args)
    store = None
    if getattr(args, "cache_dir", None):
        from repro.experiments.store import ResultStore

        store = ResultStore(args.cache_dir)
    name = args.name
    if name == "fig11a":
        print(sweep_table(
            exp.fig11a_uniform_latency(settings, store=store), "avg_latency"
        ))
    elif name == "fig11b":
        print(sweep_table(
            exp.fig11b_nuca_latency(settings, store=store), "avg_latency"
        ))
    elif name == "fig11d":
        print(dict_table(exp.fig11d_hop_counts(settings), row_label="traffic"))
    elif name == "fig12a":
        print(sweep_table(
            exp.fig12a_uniform_power(settings, store=store), "total_power_w"
        ))
    elif name == "fig13a":
        fractions = exp.fig13a_short_flit_fractions(settings)
        print(dict_table({"short_flits": fractions}, row_label=""))
    elif name == "fig13b":
        savings = exp.fig13b_shutdown_savings(settings=settings, store=store)
        print(dict_table(
            {
                arch: {f"{s:g} short": v for s, v in by_s.items()}
                for arch, by_s in savings.items()
            },
            row_label="arch",
        ))
    elif name == "fig13c":
        drops = exp.fig13c_temperature_reduction(settings, store=store)
        print(dict_table(
            {"temp_drop_k": {f"{r:g}": v for r, v in drops.items()}},
            row_label="rate",
        ))
    elif name == "fig9":
        print(dict_table(exp.fig9_energy_breakdown(), row_label="arch"))
    elif name == "fig1":
        print(dict_table(exp.fig1_data_patterns(), row_label="workload"))
    elif name == "fig_topology":
        results = exp.fig_topology(settings, store=store)
        print("--- layer-shutdown saving by fabric (Fig. 13b protocol) ---")
        print(dict_table(
            {
                arch: {f"{s:g} short": v for s, v in by_s.items()}
                for arch, by_s in results["shutdown"].items()
            },
            row_label="fabric",
        ))
        print("--- uniform-random latency by fabric ---")
        print(dict_table(
            {
                arch: {f"{r:g}": lat for r, lat in series}
                for arch, series in results["latency"].items()
            },
            row_label="fabric",
        ))
    elif name == "fig_resilience":
        variation = exp.fig_resilience_variation(settings, store=store)
        faults = exp.fig_resilience_faults(settings, store=store)
        print("--- variation (latency/power spread over seeds) ---")
        print(dict_table(exp.variation_summary(variation), row_label="arch"))
        print("--- faults (drain-mode link kills) ---")
        for arch, rows in exp.fault_summary_table(faults).items():
            for row in rows:
                print(
                    f"{arch:<10} faults={row['faults']:g} "
                    f"lat={row['avg_latency']:.2f} "
                    f"delivered={row['packets_delivered']:g} "
                    f"dropped={row['packets_dropped']:g}"
                )
    else:
        raise SystemExit(
            "unknown experiment; choose from fig1, fig9, fig11a, fig11b, "
            "fig11d, fig12a, fig13a, fig13b, fig13c, fig_resilience, "
            "fig_topology (run the benchmark suite for the rest)"
        )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """One-command reproduction: run the benchmark suite, then stitch
    the artifacts into results/REPORT.md."""
    import subprocess
    from pathlib import Path

    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-q", "-p", "no:cacheprovider",
    ]
    if args.filter:
        cmd += ["-k", args.filter]
    print("running:", " ".join(cmd))
    completed = subprocess.run(cmd)
    if completed.returncode != 0:
        print("benchmark suite reported failures; see output above")
    results = Path("results")
    if results.is_dir():
        from repro.experiments.summary import write_report

        try:
            output = write_report(results)
            print(f"wrote {output}")
        except FileNotFoundError:
            print("no artifacts produced; skipping report")
    return completed.returncode


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.summary import write_report

    output = write_report(Path(args.results))
    print(f"wrote {output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIRA (ISCA 2008) reproduction toolkit",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the full-scale experiment settings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one architecture")
    sim.add_argument("--arch", default="3DM", help="2DB/3DB/3DM/3DM-E/...")
    sim.add_argument(
        "--topology", choices=sorted(_TOPOLOGY_ARCHS), default=None,
        help="simulate a substrate fabric instead of --arch "
        "(see `repro topologies`)",
    )
    sim.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="JSON link-list file for --topology irregular",
    )
    sim.add_argument("--rate", type=_positive_float, default=0.2)
    sim.add_argument("--traffic", choices=["uniform", "nuca"], default="uniform")
    sim.add_argument("--short-flits", type=_fraction, default=0.0)
    sim.add_argument(
        "--profile", action="store_true",
        help="report cycles/sec, active-router ratio and phase wall times",
    )
    sim.add_argument(
        "--sanitize", action="store_true",
        help="audit flit-conservation / credit / VC-state invariants "
        "every cycle and fail fast on the first violation",
    )
    sim.add_argument(
        "--sanitize-interval", type=_positive_int, default=1, metavar="N",
        help="with --sanitize: audit every N cycles (default 1)",
    )
    sim.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="stream windowed telemetry metrics to PATH as JSONL",
    )
    sim.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto/chrome://tracing flit-lifecycle trace "
        "to PATH (JSON)",
    )
    sim.add_argument(
        "--metrics-interval", type=_positive_int, default=100, metavar="N",
        help="telemetry sampling window in cycles (default 100)",
    )
    sim.add_argument(
        "--trace-sample-rate", type=_fraction, default=1.0, metavar="P",
        help="with --trace-out: capture each packet's lifecycle with "
        "probability P (deterministic seeded id hash; default 1.0 = "
        "capture everything)",
    )
    sim.add_argument(
        "--trace-head-tail", type=_non_negative_int, default=0, metavar="K",
        help="with --trace-out: always capture the first K and last K "
        "packets regardless of the sample rate (default 0)",
    )
    sim.add_argument(
        "--trace-seed", type=int, default=0, metavar="S",
        help="seed for the trace sampling hash: same seed, same "
        "captured packets (default 0)",
    )
    sim.add_argument(
        "--inject-faults", type=_non_negative_int, default=0, metavar="N",
        help="kill N seeded-random directed links (see --fault-seed / "
        "--fault-cycle / --fault-mode)",
    )
    sim.add_argument(
        "--fault-seed", type=_non_negative_int, default=0, metavar="S",
        help="RNG seed for the random link sample (default 0)",
    )
    sim.add_argument(
        "--fault-cycle", type=_non_negative_int, default=0, metavar="C",
        help="cycle the injected faults apply at (default 0)",
    )
    sim.add_argument(
        "--fault-mode", choices=["hard", "drain"], default="hard",
        help="hard = credit-starving electrical failure; drain = "
        "routing-level fence, committed wormholes finish (default hard)",
    )
    sim.add_argument(
        "--fail-link", action="append", type=_channel, metavar="SRC:DST",
        help="kill this directed channel (repeatable)",
    )
    sim.add_argument(
        "--stick-vc", action="append", type=_stuck_vc,
        metavar="NODE:PORT:VC",
        help="freeze this input VC at --fault-cycle (repeatable)",
    )
    sim.add_argument(
        "--variation-sigma", type=_non_negative_float, default=0.0, metavar="S",
        help="process-variation sigma; latency/power reflect the "
        "sampled corner (default 0 = no variation)",
    )
    sim.add_argument(
        "--variation-seed", type=_non_negative_int, default=0, metavar="S",
        help="variation sample seed (default 0)",
    )
    sim.set_defaults(func=cmd_simulate, usage_error=sim.error)

    cmp_ = sub.add_parser("compare", help="compare all six configurations")
    cmp_.add_argument("--rate", type=_positive_float, default=0.2)
    cmp_.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the comparison as machine-readable JSON "
        "(same convention as `sweep --stats-out`)",
    )
    cmp_.set_defaults(func=cmd_compare)

    diag = sub.add_parser(
        "diagnose",
        help="congestion forensics: stall attribution, latency "
        "decomposition, hotspots and backpressure for one run",
    )
    diag.add_argument("--arch", default="3DM", help="2DB/3DB/3DM/3DM-E/...")
    diag.add_argument(
        "--rate", type=_positive_float, default=0.35,
        help="injection rate; defaults high (0.35) so there is "
        "congestion worth diagnosing",
    )
    diag.add_argument(
        "--traffic", choices=["uniform", "nuca"], default="uniform"
    )
    diag.add_argument("--short-flits", type=_fraction, default=0.0)
    diag.add_argument(
        "--top", type=_positive_int, default=5, metavar="K",
        help="hotspot links/routers listed in the report (default 5)",
    )
    diag.add_argument(
        "--interval", type=_positive_int, default=100, metavar="N",
        help="telemetry sampling window in cycles (default 100)",
    )
    diag.add_argument(
        "--sample-rate", type=_fraction, default=0.25, metavar="P",
        help="fraction of packets whose lifecycles feed the latency "
        "decomposition (default 0.25)",
    )
    diag.add_argument(
        "--head-tail", type=_non_negative_int, default=16, metavar="K",
        help="always decompose the first/last K packets too (default 16)",
    )
    diag.add_argument(
        "--trace-seed", type=int, default=0, metavar="S",
        help="packet-sampling hash seed (default 0)",
    )
    diag.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full stall report as JSON",
    )
    diag.set_defaults(func=cmd_diagnose)

    area = sub.add_parser("area", help="Table 1 area breakdown")
    area.set_defaults(func=cmd_area)

    delays = sub.add_parser("delays", help="Table 3 delay validation")
    delays.set_defaults(func=cmd_delays)

    trace = sub.add_parser("trace", help="generate an MP trace file")
    trace.add_argument("--workload", default="tpcw")
    trace.add_argument("--arch", default="2DB")
    trace.add_argument("--cycles", type=_positive_int, default=30000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--output", default="trace.txt")
    trace.set_defaults(func=cmd_trace)

    wl = sub.add_parser("workloads", help="list workload models")
    wl.set_defaults(func=cmd_workloads)

    topo = sub.add_parser(
        "topologies",
        help="list the topology substrate: fabrics, routing, radix",
    )
    topo.set_defaults(func=cmd_topologies)

    ex = sub.add_parser("experiment", help="run a table/figure harness")
    ex.add_argument("name")
    ex.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="serve simulation points from (and fill) the result cache",
    )
    ex.set_defaults(func=cmd_experiment)

    sweep = sub.add_parser(
        "sweep",
        help="cached, resumable, fault-tolerant sweep over archs x rates",
    )
    sweep.add_argument(
        "--archs", default="2DB,3DB,3DM,3DM(NC),3DM-E,3DM-E(NC)",
        help="comma-separated architecture names (fabrics RING, CHIPLET "
        "and IRREG sweep too; see `repro topologies`)",
    )
    sweep.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="JSON link-list file backing IRREG entries in --archs",
    )
    sweep.add_argument(
        "--rates", type=_rate_list, default=None,
        help="comma-separated injection rates "
        "(default: the scale preset's rate grid)",
    )
    sweep.add_argument(
        "--traffic", choices=["uniform", "nuca"], default="uniform"
    )
    sweep.add_argument("--processes", type=_non_negative_int, default=2)
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; finished points are "
        "served without simulating",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="PATH",
        help="JSONL run journal checkpointing each completed point",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: append to the journal and "
        "skip points already in the cache (requires --cache-dir)",
    )
    sweep.add_argument(
        "--retries", type=_non_negative_int, default=0, metavar="N",
        help="retry each failed/timed-out point up to N times "
        "with exponential backoff",
    )
    sweep.add_argument(
        "--backoff", type=_non_negative_float, default=0.5, metavar="SECONDS",
        help="initial retry backoff; doubles per attempt (default 0.5)",
    )
    sweep.add_argument(
        "--point-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="terminate any point running longer than this "
        "(counts as a failed attempt)",
    )
    sweep.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="per-point windowed telemetry JSONL streams",
    )
    sweep.add_argument(
        "--telemetry-attribution", action="store_true",
        help="with --telemetry-dir: attribute stalled unit-cycles per "
        "point and write <dir>/<point>.stalls.json reports",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="print per-point progress (done/total, retries, cache "
        "hits, ETA) to stderr as the sweep runs",
    )
    sweep.add_argument(
        "--progress-jsonl", default=None, metavar="PATH",
        help="stream per-point progress events to PATH as JSONL",
    )
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the sweep series as JSON",
    )
    sweep.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="write cache/retry counters and the failure report as JSON",
    )
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser(
        "report", help="stitch results/ artifacts into REPORT.md"
    )
    report.add_argument("--results", default="results")
    report.set_defaults(func=cmd_report)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full benchmark suite and write results/REPORT.md",
    )
    reproduce.add_argument(
        "--filter", default="",
        help="pytest -k expression to run a subset (e.g. 'table1')",
    )
    reproduce.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
