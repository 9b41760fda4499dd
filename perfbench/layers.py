"""The traced pass: per-layer metrics, measured from outside the program.

One shortened repetition of the workload with a span around each call
into a layer's public functions, followed by the same generic probes on
every workload (its own pool, data and fitted model), so that every
per-layer metric is a real measurement on every workload: a layer a
workload does not use reads as a near-zero time or a zero count, which
is the "no change expected here" side of a claim. End-to-end numbers
never come from this pass.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import numpy as np

from perfbench.batch import score_loop
from perfbench.measure import Samples, median, now
from perfbench.serving import (
    OfflineReference,
    check_replies,
    check_session,
    encode_blocks,
    plan_for,
    serve_session,
)
from perfbench.spans import Tracer
from perfbench.workloads import Workload
from repro import SUOD, load_ensemble, save_ensemble
from repro.detectors import IsolationForest
from repro.metrics import imbalance, spearmanr
from repro.neighbors import KDTree, kdtree_build_count
from repro.parallel import get_backend
from repro.pipeline import PlanRunner
from repro.scheduling import AnalyticCostModel, get_scheduler
from repro.serving.admission import AdmissionController
from repro.serving.protocol import decode_array, encode_array, encode_frame
from repro.supervised import RandomForestRegressor
from repro.utils.persistence import read_ensemble_header

#: Plan stage -> the layer whose public entry point the stage calls.
FIT_SPANS = {
    "project": "projection.fit_project",
    "forecast": "scheduling.forecast",
    "share": "sharing.derive",
    "schedule": "scheduling.assign",
    "execute": "pipeline.fit_execute",
    "approximate": "supervised.fit_approximate",
    "combine": "combination.fit_combine",
}
PREDICT_SPANS = {
    "project": "projection.transform",
    "forecast": "scheduling.forecast",
    "share": "sharing.derive",
    "schedule": "scheduling.assign",
    "execute": "pipeline.predict_execute",
    "combine": "combination.combine",
}
#: Stages that are plan bookkeeping rather than a layer's real work.
OVERHEAD_STAGES = ("forecast", "share", "schedule", "combine")


def staged_run(plan, names: dict, tracer: Tracer, until: str | None = None) -> dict:
    """Drive ``plan`` stage by stage; ``stage -> wall seconds``."""
    runner = PlanRunner()
    walls = {}
    for stage in plan.stage_names:
        with tracer.span(names[stage]) as span:
            runner.run(plan, until=stage)
        walls[stage] = span["end"] - span["start"]
        if stage == until:
            break
    return walls


def staged_fit(wl: Workload, seed: int, X_train, tracer: Tracer, until=None, **suod):
    """A fresh estimator fitted through its staged plan.

    Returns ``(model, plan, walls)``; the plan's data is released, its
    stage reports stay readable.
    """
    model = SUOD(wl.pool(), random_state=seed, **{**wl.suod, **suod})
    plan = model.build_fit_plan(X_train)
    try:
        with tracer.span("pipeline.fit"):
            walls = staged_run(plan, FIT_SPANS, tracer, until)
    finally:
        plan.release_data()
    return model, plan, walls


def per_call_us(call, batch: int = 50, batches: int = 11) -> float:
    """Median microseconds per ``call()``, timed in batches of ``batch``."""
    per_call = []
    for _ in range(batches):
        t0 = now()
        for _ in range(batch):
            call()
        per_call.append((now() - t0) / batch * 1e6)
    return median(per_call)


def fit_and_parallel_probes(wl, seed, X_train, blocks, tracer, m):
    """Staged fit at the workload's own worker count and at the other of
    {1, 2}; the 2-worker run supplies the parallel plane's numbers."""
    builds = kdtree_build_count()
    model, plan, walls = staged_fit(wl, seed, X_train, tracer)
    m["neighbors.kdtree_builds_fit"] = kdtree_build_count() - builds
    m["projection.fit_project_s"] = walls["project"]
    m["pipeline.fit_execute_s"] = walls["execute"]
    m["pipeline.fit_plan_overhead_s"] = sum(walls[s] for s in OVERHEAD_STAGES)
    m["supervised.fit_approximate_s"] = walls["approximate"]
    share = plan.report_for("share").info
    for key in ("structures_built", "queries_fused", "bytes_published"):
        m[f"sharing.{key}"] = share.get(key, 0)

    own_jobs = wl.suod["n_jobs"]
    other_jobs = 3 - own_jobs  # the other of {1, 2}
    with tracer.span("parallel.other_worker_count"):
        other, other_plan, other_walls = staged_fit(
            wl,
            seed,
            X_train,
            tracer,
            until="execute",
            n_jobs=other_jobs,
            backend="shm_processes",
        )
        other.close()
    execute_s = {own_jobs: walls["execute"], other_jobs: other_walls["execute"]}
    m["parallel.fit_execute_speedup_2w"] = execute_s[1] / execute_s[2]
    report = (plan if own_jobs == 2 else other_plan).report_for("execute")
    m["parallel.shm_bytes"] = report.info["shm"]["bytes"]
    m["parallel.shm_segments"] = report.info["shm"]["segments"]
    busy = report.execution.worker_times
    m["parallel.worker_idle_share"] = 1.0 - busy.sum() / (
        busy.size * report.execution.wall_time
    )

    backend = get_backend("shm_processes", n_workers=2)
    try:
        tasks = [functools.partial(abs, -1), functools.partial(abs, -2)]
        with tracer.span("parallel.execute_cold") as cold:
            backend.execute(tasks, [0, 1])
        with tracer.span("parallel.execute_warm") as warm:
            backend.execute(tasks, [0, 1])
    finally:
        backend.shutdown()
    m["parallel.pool_spawn_s"] = (cold["end"] - cold["start"]) - (
        warm["end"] - warm["start"]
    )

    # The hetero score loop with 2 workers: the number the end-to-end
    # scoring deliberately avoids (38 % run-to-run range on this box).
    model.n_jobs, model.backend = 2, "shm_processes"
    try:
        model.decision_function(blocks[0])
        with tracer.span("parallel.score_2w") as span:
            for block in blocks[:4]:
                model.decision_function(block)
    finally:
        model.close()
        model.n_jobs = 1
    rows = sum(len(block) for block in blocks[:4])
    m["parallel.score_rows_per_s_2w"] = rows / (span["end"] - span["start"])
    return model


def predict_probes(model, blocks, seconds, tracer, m, samples):
    """Plain calls, then the same calls staged: stage walls, KD-tree
    rebuilds per call, and what the tracing itself costs."""
    t_start, ends, _, outputs = score_loop(model, blocks, seconds, 6, samples)
    plain_s = ends[-1] - t_start
    builds = kdtree_build_count()
    walls = {stage: [] for stage in PREDICT_SPANS}
    t0 = now()
    for block, scores in outputs:
        plan = model.build_predict_plan(blocks[block])
        try:
            with tracer.span("pipeline.predict"):
                for stage, wall in staged_run(plan, PREDICT_SPANS, tracer).items():
                    walls[stage].append(wall)
            same = np.array_equal(plan.context.scores, scores)
        finally:
            plan.release_data()
        samples.check(same, "staged predict differs from decision_function")
    staged_s = now() - t0
    calls = len(outputs)
    m["trace.overhead_share"] = staged_s / plain_s - 1.0
    m["neighbors.kdtree_builds_per_score_call"] = (
        kdtree_build_count() - builds
    ) / calls
    m["pipeline.predict_execute_s"] = median(walls["execute"])
    m["combination.combine_s"] = median(walls["combine"])
    m["projection.transform_rows_per_s"] = len(blocks[0]) / median(walls["project"])
    one_row = blocks[0][:1]
    m["pipeline.predict_call_floor_ms"] = (
        per_call_us(lambda: model.decision_function(one_row), batch=5) / 1000.0
    )


def scheduling_probes(model, X_train, m):
    """Forecast quality and the 2-worker assignment it leads to, judged
    on the task times the fit actually measured."""
    costs = AnalyticCostModel().forecast(model.base_estimators, X_train)
    task_times = model.fit_result_.task_times
    scheduler = get_scheduler("bps-lpt")
    n_tasks = len(costs)
    m["scheduling.assign_us"] = per_call_us(
        lambda: scheduler.assign(n_tasks, 2, costs), batch=20
    )
    m["scheduling.forecast_rank_corr"] = spearmanr(costs, task_times)
    assignment = scheduler.assign(n_tasks, 2, costs)
    m["scheduling.fit_imbalance"] = 1.0 + imbalance(task_times, assignment, 2)


def kernel_probes(model, X_train, X_test, seed, tracer, m):
    """One call each into the supervised, neighbour and tree kernels."""
    projector = model.projectors_[0]
    forest = RandomForestRegressor(random_state=seed)
    with tracer.span("supervised.rf_fit") as span:
        forest.fit(projector.transform(X_train), model.train_score_matrix_[0])
    m["supervised.rf_fit_s"] = span["end"] - span["start"]
    block = projector.transform(X_test[:1024])
    forest.predict(block)  # builds the flat arena once
    with tracer.span("supervised.rf_predict") as span:
        forest.predict(block)
    m["supervised.rf_predict_rows_per_s"] = len(block) / (span["end"] - span["start"])

    with tracer.span("kernels.kdtree_build") as span:
        tree = KDTree(X_train)
    m["kernels.kdtree_build_s"] = span["end"] - span["start"]
    queries = X_test[:1024]
    with tracer.span("kernels.knn_query") as span:
        tree.query(queries, min(40, len(X_train) - 1), mode="batched")
    m["kernels.knn_query_rows_per_s"] = len(queries) / (span["end"] - span["start"])

    iforest = IsolationForest(n_estimators=100, random_state=seed).fit(X_train)
    iforest.decision_function(X_test[:256])
    with tracer.span("kernels.forest_score") as span:
        for lo in range(0, 1024, 256):
            iforest.decision_function(X_test[lo : lo + 256])
    m["kernels.forest_score_rows_per_s"] = 1024 / (span["end"] - span["start"])


def wire_probes(X_test, m):
    """In-process codec and admission costs per request."""
    header = {"op": "score", "id": 1, "tenant": "perfbench"}
    for n_rows in (1, 256):
        rows = np.ascontiguousarray(X_test[:n_rows], dtype=np.float64)
        payload = encode_array(rows)
        m[f"protocol.encode_us_{n_rows}row"] = per_call_us(
            lambda: encode_frame(header, encode_array(rows))
        )
        m[f"protocol.decode_us_{n_rows}row"] = per_call_us(
            lambda: decode_array(payload)
        )
    controller = AdmissionController(rate=1e9, burst=1e9)
    m["admission.admit_us"] = per_call_us(
        lambda: controller.admit("perfbench", 1, 0, None), batch=200
    )


def memory_probes(model, block, out_dir, tracer, m, samples):
    """Artifact round trip: save, memmap attach, first score."""
    expected = model.decision_function(block)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        path = Path(tmp) / "ensemble.repro"
        with tracer.span("memory.save_ensemble") as save:
            save_ensemble(model, path)
        with tracer.span("memory.load_ensemble") as load:
            loaded = load_ensemble(path)
        with tracer.span("memory.first_score") as first:
            scores = loaded.decision_function(block)
        samples.check(
            np.array_equal(scores, expected), "loaded ensemble scores differ"
        )
        m["memory.n_arenas"] = len(read_ensemble_header(path)["arenas"])
        m["memory.artifact_mb"] = path.stat().st_size / 1e6
        del loaded  # drop the memmaps before the directory goes
    m["memory.save_ensemble_s"] = save["end"] - save["start"]
    m["memory.load_ensemble_s"] = load["end"] - load["start"]
    m["memory.first_score_ms"] = (first["end"] - first["start"]) * 1000.0


def serving_probes(wl, model, X_test, rows, seconds, out_dir, tracer, m, samples):
    """One server lifetime: open loop then closed loop, with the server's
    own counters and the reply headers' queue/exec split."""
    payloads = encode_blocks(X_test, rows)
    # Bitwise parity is the serve workloads' gate; the batch pools (BLAS
    # projections, brute-force distances) are not row-separable bitwise
    # across arbitrary micro-batch shapes, so their probe checks status.
    reference = OfflineReference(model, X_test, rows) if wl.kind == "serve" else None
    plan = plan_for(wl, seconds, rows, traced=True)
    session = serve_session(model, payloads, plan, out_dir, tracer)
    for phase in session.phases.values():
        check_replies(phase, reference, samples)
    check_session(session, samples)
    parents = {s["name"]: s["id"] for s in tracer.spans}
    for name in ("open", "closed"):
        for r in session.phases[name].requests:
            if r.header is not None:
                tracer.add("server.request", r.due, r.done, parents[f"loadgen.{name}"])

    sent = session.phases["open"].requests
    answered = [r for r in sent if r.header is not None]
    latency = [(r.done - r.due) * 1000.0 for r in answered]
    queue = [r.header.get("queue_ms", 0.0) for r in answered]
    execute = [r.header.get("exec_ms", 0.0) for r in answered]
    m["server.wire_ms_p50"] = median(
        total - q - e for total, q, e in zip(latency, queue, execute)
    )
    m["server.request_p95_ms"] = np.percentile(latency, 95)
    m["server.request_p99_ms"] = np.percentile(latency, 99)
    m["batcher.queue_ms_p50"] = median(queue)
    m["batcher.exec_ms_p50"] = median(execute)
    m["loadgen.late_p99_ms"] = np.percentile([(r.sent - r.due) * 1e3 for r in sent], 99)
    m["loadgen.achieved_rps"] = (len(sent) - 1) / (sent[-1].sent - sent[0].sent)
    print(f"  open loop: {len(answered)} of {len(sent)} requests answered (tails)")

    nan = float("nan")
    stats = session.stats
    batcher = stats.get("batcher", {})
    m["batcher.batches"] = batcher.get("batches", nan)
    m["batcher.batch_rows_mean"] = batcher.get("batch_rows_mean", nan)
    m["batcher.structure_builds"] = batcher.get("structure_builds", nan)
    m["batcher.busy_share"] = batcher.get("exec_s_total", nan) / stats.get(
        "uptime_s", nan
    )
    m["admission.rejected"] = stats.get("rejected", nan)
    m["server.dropped_responses"] = stats.get("dropped_responses", nan)
    m["server.errors"] = stats.get("errors", nan)
    m["server.boot_s"] = session.seconds("server.boot")
    m["server.drain_s"] = session.seconds("server.drain")
    m["memory.server_rss_growth_mb"] = session.rss_end_mb - session.rss_warm_mb


def run_traced(wl: Workload, seed: int, seconds: float, quick: bool, out_dir: Path):
    """The traced pass of ``wl``; ``(samples, metric name -> value)``."""
    tracer = Tracer(wl.name)
    samples = Samples()
    m: dict[str, float] = {}
    shape = wl.quick_shape if quick else wl.shape
    # Batch workloads call with many-row blocks; their server probe and
    # the serve workloads' in-process probes use the other grain.
    call_rows = shape.request_rows if wl.kind == "batch" else 256
    serve_rows = shape.request_rows if wl.kind == "serve" else 1
    per_round = seconds / wl.rounds
    with tracer.span("workload"):
        X_train, X_test, y_test = wl.data(seed, quick)
        blocks = [
            X_test[i : i + call_rows]
            for i in range(0, len(X_test) - call_rows + 1, call_rows)
        ]
        model = fit_and_parallel_probes(wl, seed, X_train, blocks, tracer, m)
        predict_probes(model, blocks, per_round * 0.2, tracer, m, samples)
        scheduling_probes(model, X_train, m)
        kernel_probes(model, X_train, X_test, seed, tracer, m)
        wire_probes(X_test, m)
        memory_probes(model, blocks[0], out_dir, tracer, m, samples)
        serving_probes(
            wl, model, X_test, serve_rows, seconds, out_dir, tracer, m, samples
        )
    path = out_dir / f"trace-{wl.name}.json"
    tracer.dump(path)
    self_times = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    print(f"  {len(tracer.spans)} spans -> {path}")
    print("  largest self times (concurrent requests add up to request-seconds):")
    for name, self_s in self_times[:8]:
        print(f"    {name:34s} {self_s:10.4f} s")
    return samples, {name: float(value) for name, value in m.items()}
