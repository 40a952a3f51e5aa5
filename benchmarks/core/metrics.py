"""The benchmark's metric tables: names, units, clocks, bounds, predictions.

``BENCHMARK.json`` at the repository root lists the same names (the
smoke test keeps the two in step); the columns it has no key for — the
clock each number is on, the probe/traced kind, and which end-to-end
metric a layer metric is predicted to move on which workload — live
here and are printed by ``run.py --list-metrics``.
"""

from __future__ import annotations

from tracing import LAYERS

#: The workload names are fixed; later issues cite them.
WORKLOADS = (
    "insitu_matrix", "service_fanin", "bulk_lossy", "array_adaptive",
    "trace_replay",
)

#: Workloads whose simulated numbers must repeat bit for bit.  On
#: ``insitu_matrix`` the asynchronous cases order device work by thread
#: arrival, so its makespan drifts by a fraction of a percent.
PATIENT_WORKLOADS = WORKLOADS[1:]

#: End-to-end metrics reported by every workload:
#: ``(name, unit, better, clock, same-seed bound)``.  The bound is the
#: share of the reference by which the metric may get worse before
#: ``--compare`` calls it regressed; 0.0 means exact.
END_TO_END = (
    ("setup_s", "s", "lower", "wall", 0.25),
    ("wall_s", "s", "lower", "wall", 0.10),
    ("sim_makespan_s", "s", "lower", "sim", 1e-9),
    ("peak_rss_mib", "MiB", "lower", "wall", 0.20),
)

#: Exact witnesses kept beside the end-to-end metrics in every result
#: file.  They cannot sit in ``BENCHMARK.json``'s ``end_to_end`` list:
#: the driver wants end-to-end values that are never 0, and
#: ``ops_failed_frac`` is 0 on a healthy run, ``sim_wire_bytes`` is 0
#: on ``insitu_matrix``.  Same columns as above.
WITNESSES = (
    ("sim_wire_bytes", "B", "lower", "sim", 0.0),
    ("ops_failed_frac", "ratio", "lower", "-", 0.0),
)

#: Everything printed and compared per workload, in print order.
REPORTED = END_TO_END + WITNESSES

#: ``sim_makespan_s`` on ``insitu_matrix``: the asynchronous cases
#: order device work by thread arrival (<= 0.7 % drift measured; the
#: four lockstep cases are exact).
INSITU_MAKESPAN_BOUND = 0.02

_CATEGORIES = (
    "compute", "copy", "alloc", "free", "sync", "comm", "io", "other",
)

#: Per-layer metrics: ``(name, unit, better, kind, should move)``.
#: ``probe`` = an isolated loop in ``probes.py`` timing a public call;
#: ``traced`` = read on the traced repetition of the workload that was
#: asked for (0 when that workload never enters the layer).
PER_LAYER = (
    ("hw.timeline_schedule_per_s", "1/s", "higher", "probe",
     "wall_s on insitu_matrix; ~none on bulk_lossy"),
    ("hw.sim_events", "count", "lower", "traced",
     "explains wall_s; unchanged by a simulator-only speed-up"),
    *(
        (f"hw.sim_busy_s.{c}", "s", "lower", "traced",
         "sim_makespan_s, all workloads")
        for c in _CATEGORIES
    ),
    ("hamr.alloc_free_per_s", "1/s", "higher", "probe",
     "wall_s on insitu_matrix"),
    ("hamr.copy_per_s", "1/s", "higher", "probe",
     "wall_s on insitu_matrix host placement"),
    ("hamr.copy_sim_s", "s", "lower", "probe",
     "sim_makespan_s on insitu_matrix host placement"),
    ("hamr.pool_hit_frac", "ratio", "higher", "traced",
     "sim_makespan_s on insitu_matrix, array_adaptive"),
    ("pm.launch_per_s", "1/s", "higher", "probe", "wall_s on insitu_matrix"),
    ("mpi.spawn_join_ms_r64", "ms", "lower", "probe",
     "setup_s, wall_s on service_fanin"),
    ("mpi.p2p_msgs_per_s_r2", "1/s", "higher", "probe",
     "wall_s on bulk_lossy"),
    ("mpi.allreduce_per_s_r8", "1/s", "higher", "probe",
     "wall_s on array_adaptive"),
    ("mpi.allreduce_per_s_r64", "1/s", "higher", "probe",
     "wall_s on service_fanin"),
    ("mpi.wait_share", "ratio", "lower", "traced",
     "wall_s on service_fanin (expected high), small on bulk_lossy"),
    ("svtk.hda_access_per_s", "1/s", "higher", "probe",
     "wall_s on insitu_matrix"),
    ("newton.pair_interactions_per_s", "1/s", "higher", "probe",
     "wall_s on insitu_matrix"),
    ("binning.rows_per_s_cpu", "1/s", "higher", "probe",
     "wall_s on insitu_matrix"),
    ("binning.rows_per_s_cuda", "1/s", "higher", "probe",
     "wall_s on insitu_matrix"),
    ("binning.sim_s_per_op", "s", "lower", "probe",
     "sim_makespan_s on insitu_matrix"),
    ("sensei.execute_us_lockstep", "us", "lower", "probe",
     "wall_s on insitu_matrix"),
    ("sensei.execute_us_async", "us", "lower", "probe",
     "wall_s on insitu_matrix"),
    ("sensei.async_hidden_frac", "ratio", "higher", "traced",
     "sim_makespan_s on insitu_matrix (Fig. 3)"),
    ("sensei.lockstep_sim_s", "s", "lower", "traced",
     "sim_makespan_s on insitu_matrix, exact"),
    ("transport.encode_mib_per_s.none", "MiB/s", "higher", "probe",
     "wall_s on service_fanin"),
    ("transport.encode_mib_per_s.zlib", "MiB/s", "higher", "probe",
     "wall_s on bulk_lossy"),
    ("transport.decode_mib_per_s.none", "MiB/s", "higher", "probe",
     "wall_s on service_fanin"),
    ("transport.decode_mib_per_s.zlib", "MiB/s", "higher", "probe",
     "wall_s on bulk_lossy"),
    ("transport.frames_per_s_clean", "1/s", "higher", "probe",
     "wall_s on service_fanin, bulk_lossy"),
    ("transport.frames_per_s_drop10", "1/s", "higher", "probe",
     "wall_s on service_fanin, bulk_lossy"),
    ("transport.delivered_frac", "ratio", "higher", "traced",
     "sim_makespan_s on bulk_lossy, service_fanin"),
    ("transport.retries", "count", "lower", "traced",
     "sim_makespan_s, sim_wire_bytes; exact"),
    ("transport.compression_ratio", "ratio", "higher", "traced",
     "sim_wire_bytes on bulk_lossy; exact"),
    ("transport.ack_rtt_sim_us", "us", "lower", "traced",
     "sim_makespan_s on bulk_lossy, service_fanin"),
    ("service.publish_us_p50", "us", "lower", "traced",
     "wall_s on service_fanin"),
    ("service.publish_us_p95", "us", "lower", "traced",
     "wall_s on service_fanin"),
    ("service.endpoint_steps_per_s", "1/s", "higher", "traced",
     "wall_s on service_fanin"),
    ("service.plan_us", "us", "lower", "probe", "setup_s"),
    ("service.migrations", "count", "lower", "traced",
     "sim_makespan_s on service_fanin; exact"),
    ("service.inflight_peak_bytes", "B", "lower", "traced",
     "sim_makespan_s on service_fanin; follows wall arrival order"),
    ("array.halo_exchanges_per_s_r4", "1/s", "higher", "probe",
     "wall_s on array_adaptive"),
    ("array.repartition_mib_per_s", "MiB/s", "higher", "probe",
     "wall_s on array_adaptive"),
    ("array.halo_bytes", "B", "lower", "traced",
     "sim_makespan_s, sim_wire_bytes on array_adaptive; exact"),
    ("array.handoff_bytes", "B", "lower", "traced",
     "sim_makespan_s, sim_wire_bytes on array_adaptive; exact"),
    ("array.repartitions", "count", "lower", "traced",
     "sim_makespan_s on array_adaptive; exact"),
    ("control.observe_decide_us", "us", "lower", "probe",
     "wall_s on service_fanin, adaptive half of array_adaptive"),
    ("control.decisions", "count", "lower", "traced",
     "sim_makespan_s; identical across a control-plane collapse"),
    ("control.coordination_rounds", "count", "lower", "traced",
     "sim_makespan_s; identical across a control-plane collapse"),
    ("trace.record_overhead_frac", "ratio", "lower", "traced",
     "wall_s on trace_replay"),
    ("trace.to_jsonl_mib_per_s", "MiB/s", "higher", "probe",
     "wall_s on trace_replay"),
    ("trace.from_jsonl_mib_per_s", "MiB/s", "higher", "probe",
     "wall_s on trace_replay"),
    ("trace.events", "count", "lower", "traced",
     "wall_s on trace_replay; exact"),
    ("trace.bytes", "B", "lower", "traced", "wall_s on trace_replay; exact"),
    ("trace.replay_over_record", "ratio", "lower", "traced",
     "wall_s on trace_replay"),
    ("harness.simulate_matrix_us", "us", "lower", "probe",
     "nothing (0.4 ms of a run) - listed so that stays true"),
    ("analysis.lint_files_per_s", "1/s", "higher", "probe",
     "none end to end - repro lint is off the run path"),
    *(
        (f"share.{layer}.{state}", "ratio", "lower", "traced",
         "attribution of wall_s (run shares add up, wait shares overlap)")
        for layer in LAYERS for state in ("run", "wait")
    ),
    ("sim_wire_bytes", "B", "lower", "traced",
     "exact witness that a simulator-only change altered the simulation"),
    ("ops_failed_frac", "ratio", "lower", "traced",
     "failed / attempted output checks; reference 0"),
    ("tracing_overhead_frac", "ratio", "lower", "traced",
     "traced wall / untraced wall_s - 1; not an end-to-end number"),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
PER_LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}


def same_seed_bound(metric: str, workload: str) -> float:
    """How much worse ``metric`` may read in ``--compare`` at one seed."""
    if metric == "sim_makespan_s" and workload == "insitu_matrix":
        return INSITU_MAKESPAN_BOUND
    for name, _unit, _better, _clock, bound in REPORTED:
        if name == metric:
            return bound
    raise KeyError(metric)
