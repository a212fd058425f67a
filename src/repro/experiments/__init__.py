"""Experiment harnesses: one entry point per table/figure of the paper.

Every harness returns plain data structures (and can print the paper's
rows/series via :mod:`repro.experiments.report`); the ``benchmarks/``
tree wires each one into pytest-benchmark.

========== ==========================================
``fig1``   data-pattern breakdown      (breakdown)
``fig2``   packet-type distribution    (breakdown)
``table1`` router component area       (area_tables)
``table2`` design parameters           (area_tables)
``table3`` delay validation            (area_tables)
``fig9``   flit energy breakdown       (breakdown)
``fig11``  latency results             (latency)
``fig12``  power results               (power)
``fig13``  shutdown power and thermal  (thermal_exp)
========== ==========================================
"""

from repro import _lazy_exports

_EXPORTS = {
    "ExperimentSettings": ".config",
    "PointResult": ".runner",
    "run_point_spec": ".runner",
    "run_trace_point": ".runner",
    "fig11a_uniform_latency": ".latency",
    "fig11b_nuca_latency": ".latency",
    "fig11c_trace_latency": ".latency",
    "fig11d_hop_counts": ".latency",
    "fig12a_uniform_power": ".power",
    "fig12b_nuca_power": ".power",
    "fig12c_trace_power": ".power",
    "fig12d_pdp": ".power",
    "fig13a_short_flit_fractions": ".thermal_exp",
    "fig13b_shutdown_savings": ".thermal_exp",
    "fig13c_temperature_reduction": ".thermal_exp",
    "table1_area": ".area_tables",
    "table2_parameters": ".area_tables",
    "table3_delays": ".area_tables",
    "fig1_data_patterns": ".breakdown",
    "fig2_packet_types": ".breakdown",
    "fig9_energy_breakdown": ".breakdown",
    "ablate_pipeline_depth": ".ablations",
    "ablate_vc_count": ".ablations",
    "ablate_buffer_depth": ".ablations",
    "ablate_express_span": ".ablations",
    "ablate_qos": ".ablations",
    "ablate_link_failures": ".ablations",
    "ablate_3db_cpu_placement": ".ablations",
    "ablate_vc_partitioning": ".ablations",
    "evaluate_headline_claims": ".headline",
    "render_claims": ".headline",
    "compression_vs_shutdown": ".compression_exp",
    "compare_protocols": ".protocol_exp",
    "ProtocolResult": ".protocol_exp",
    "export_json": ".export",
    "point_to_dict": ".export",
    "sweep_to_dict": ".export",
    "PointFailure": ".store",
    "SweepPointError": ".store",
    "PointSpec": ".store",
    "ResultStore": ".store",
    "RunJournal": ".store",
    "SweepOutcome": ".store",
    "SweepStats": ".store",
    "cached_point_run": ".store",
    "point_key": ".store",
    "run_sweep": ".sweep",
    "specs_for_grid": ".sweep",
    "write_report": ".summary",
    "fig_resilience": ".resilience_exp",
    "fig_resilience_variation": ".resilience_exp",
    "fig_resilience_faults": ".resilience_exp",
    "variation_summary": ".resilience_exp",
    "fault_summary_table": ".resilience_exp",
    "fig_topology": ".topology_exp",
    "fig_topology_shutdown": ".topology_exp",
    "fig_topology_latency": ".topology_exp",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
