"""The declared metric tables; ``BENCHMARK.json`` must agree with them.

Kept free of ``repro`` and numpy imports so ``validate.py`` can check the
manifest against the code without building the program.
"""

from __future__ import annotations

#: name -> (unit, better, bound). Every one is reported on every
#: workload by the untraced pass. ``bound`` is the share of the parent
#: median by which the metric may worsen before a change is a regression.
#: Timings carry the largest bound the driver allows: on this shared
#: 2-vCPU box ten runs of unchanged code spread 4-12 % (first to third
#: quartile) even with the quiet-quartile estimators, and a bound has to
#: sit about three spreads out (README, "Measured spread").
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "fit_s": ("s", "lower", 0.25),
    "score_rows_per_s": ("rows/s", "higher", 0.25),
    "request_p50_ms": ("ms", "lower", 0.25),
    "roc_auc": ("auc", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: name -> (unit, better). Reported by the traced pass only; no bounds.
PER_LAYER = {
    "projection.fit_project_s": ("s", "lower"),
    "projection.transform_rows_per_s": ("rows/s", "higher"),
    "pipeline.fit_execute_s": ("s", "lower"),
    "pipeline.predict_execute_s": ("s", "lower"),
    "pipeline.fit_plan_overhead_s": ("s", "lower"),
    "pipeline.predict_call_floor_ms": ("ms", "lower"),
    "supervised.fit_approximate_s": ("s", "lower"),
    "supervised.rf_fit_s": ("s", "lower"),
    "supervised.rf_predict_rows_per_s": ("rows/s", "higher"),
    "kernels.kdtree_build_s": ("s", "lower"),
    "kernels.knn_query_rows_per_s": ("rows/s", "higher"),
    "kernels.forest_score_rows_per_s": ("rows/s", "higher"),
    "sharing.structures_built": ("count", "lower"),
    "sharing.queries_fused": ("count", "higher"),
    "sharing.bytes_published": ("bytes", "lower"),
    "neighbors.kdtree_builds_fit": ("count", "lower"),
    "neighbors.kdtree_builds_per_score_call": ("count", "lower"),
    "scheduling.assign_us": ("us", "lower"),
    "scheduling.forecast_rank_corr": ("corr", "higher"),
    "scheduling.fit_imbalance": ("ratio", "lower"),
    "parallel.pool_spawn_s": ("s", "lower"),
    "parallel.fit_execute_speedup_2w": ("ratio", "higher"),
    "parallel.score_rows_per_s_2w": ("rows/s", "higher"),
    "parallel.shm_bytes": ("bytes", "lower"),
    "parallel.shm_segments": ("count", "lower"),
    "parallel.worker_idle_share": ("share", "lower"),
    "combination.combine_s": ("s", "lower"),
    "memory.save_ensemble_s": ("s", "lower"),
    "memory.load_ensemble_s": ("s", "lower"),
    "memory.first_score_ms": ("ms", "lower"),
    "memory.artifact_mb": ("MB", "lower"),
    "memory.n_arenas": ("count", "lower"),
    "memory.server_rss_growth_mb": ("MB", "lower"),
    "protocol.encode_us_1row": ("us", "lower"),
    "protocol.decode_us_1row": ("us", "lower"),
    "protocol.encode_us_256row": ("us", "lower"),
    "protocol.decode_us_256row": ("us", "lower"),
    "admission.admit_us": ("us", "lower"),
    "admission.rejected": ("count", "lower"),
    "batcher.batches": ("count", "lower"),
    "batcher.batch_rows_mean": ("rows", "higher"),
    "batcher.busy_share": ("share", "lower"),
    "batcher.structure_builds": ("count", "lower"),
    "batcher.queue_ms_p50": ("ms", "lower"),
    "batcher.exec_ms_p50": ("ms", "lower"),
    "server.boot_s": ("s", "lower"),
    "server.drain_s": ("s", "lower"),
    "server.wire_ms_p50": ("ms", "lower"),
    "server.request_p95_ms": ("ms", "lower"),
    "server.request_p99_ms": ("ms", "lower"),
    "server.dropped_responses": ("count", "lower"),
    "server.errors": ("count", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.achieved_rps": ("1/s", "higher"),
    "trace.overhead_share": ("share", "lower"),
}
