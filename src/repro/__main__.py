"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro table1 [--scale 0.12] [--trials 2]
    python -m repro table4 --scale 0.2
    python -m repro fig3
    python -m repro all --scale 0.05
    python -m repro plan [--phase fit|predict|both] [--format table|json]
    python -m repro scaling [--quick] [--json out.json]
    python -m repro schedulers [--quick] [--json out.json]
    python -m repro kernels [--quick] [--json out.json]
    python -m repro sharing [--quick] [--json out.json]
    python -m repro approx [--quick] [--json out.json]
    python -m repro memory [--quick] [--json out.json]
    python -m repro serve --artifact ensemble.repro [--port 9000]
    python -m repro service [--quick] [--json out.json]
    python -m repro bench-all [--quick] [--json-dir DIR]
    python -m repro analyze [paths ...] [--rule RULE] [--json out.json]

``plan`` is not an experiment: it compiles a SUOD fit/predict pass into
its :class:`~repro.pipeline.ExecutionPlan` and prints the stages, the
forecast per-task costs, and the chosen worker assignment — without
training anything (fit plans stop after the schedule stage).

``scaling`` runs the backend-scaling benchmark (sequential vs threads vs
shared-memory processes, across worker counts) and can emit its rows as
machine-readable JSON — the format committed as ``BENCH_pr3.json`` and
uploaded by the CI ``bench-smoke`` job, so the perf trajectory
accumulates over PRs.

``schedulers`` lists the registered scheduling policies and ablates
every one of them: single-batch makespans on noisy forecasts (A3) plus
the multi-batch static-vs-adaptive trajectory on the virtual-clock
simulated backend — the behavioural check that the ``adaptive``
policy's telemetry feedback actually closes the forecast gap. Its JSON
output is committed as ``BENCH_pr4.json`` and uploaded by CI.

``kernels`` microbenchmarks every vectorised compute kernel of
:mod:`repro.kernels` against its frozen pre-refactor reference path
(per-row KD-tree heap search, per-tree forest loops, per-feature split
search, per-query ABOD angles) and verifies the outputs bitwise. Exits
non-zero if any kernel's parity check fails — the gate CI bench-smoke
enforces. Its JSON output is committed as ``BENCH_pr5.json``.

``sharing`` benchmarks the shared-computation plane: the same pool of
neighbor detectors fitted with the ``share`` stage folding every
KD-tree build and query into one producer per ``(space, metric)`` key,
and again with every detector building privately. Gates on bitwise
score parity between the two modes and on the build-count invariant
(one KD-tree per distinct key); the speedup rides along. Exits
non-zero if either gate fails. Its JSON output is committed as
``BENCH_pr9.json`` and uploaded by CI bench-smoke.

``approx`` benchmarks PSA on the parallel plane: the heterogeneous
pool fitted with 1 and with 2 ``shm_processes`` workers, reporting the
``approximate`` stage's wall, its (model × tree-block) ledger, the
speedup and each worker's busy share. Gates on the fitted ensemble
being bitwise-identical serial vs parallel (train scores, threshold,
held-out scores, every approximator tree); exits non-zero otherwise.
Its JSON output is committed as ``BENCH_pr15.json`` and uploaded by CI
bench-smoke.

``memory`` benchmarks the memory plane: fresh worker processes
cold-start the same fitted ensemble from its memmap-served arena
artifact and from the inline rebuild baseline, comparing time-to-first-
score and per-process resident-set growth, and gates on the parity
contract (memmap and out-of-core scores bitwise-identical to in-RAM
float64; float32 serving within its pinned tolerance). Exits non-zero
if any parity check fails. Its JSON output is committed as
``BENCH_pr7.json`` and uploaded by CI bench-smoke.

``serve`` runs the online scoring service: a long-lived asyncio socket
server (:mod:`repro.serving`) around a saved v2 ensemble artifact,
coalescing concurrent requests into cost-model-sized micro-batches with
per-tenant admission control. It prints a ``REPRO-SERVE READY`` line
once listening and drains cleanly on SIGTERM/SIGINT.

``service`` benchmarks that serving plane: it boots real server
processes (micro-batched and per-request), drives concurrent
mixed-tenant clients — one deliberately past its rate limit — and
reports throughput/p50/p99 alongside the gates CI enforces: returned
scores bitwise-identical to offline ``decision_function`` calls,
rate limiting observable, SIGTERM drain clean. Its JSON output is
committed as ``BENCH_pr8.json`` and uploaded by the CI
``service-smoke`` job.

``bench-all`` drives every registered benchmark suite (scaling,
schedulers, kernels, sharing, approx, memory, service) through one command, writing
``bench_<name>.json`` per suite into ``--json-dir`` — the single CI
bench-smoke step, so new subsystems are picked up by registration
instead of workflow edits.

``analyze`` runs the :mod:`repro.analysis` static checkers over the
source tree (bitwise-parity hazards, shm lifecycle, payload
concurrency, repo contracts, frozen-reference pin) and exits non-zero
on any new finding — the blocking CI ``analyze`` job.

Experiments honour the same REPRO_* environment variables as the
benchmark suite; CLI flags override them.

Bad input (a missing or corrupt artifact, an unwritable ``--json``
target) is an operator mistake, not a crash: every subcommand reports
it as a one-line ``error: …`` on stderr and exits with status 2,
reserving status 1 for genuine gate failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.bench import format_table, get_config
from repro.bench.ablations import (
    run_approximator_ablation,
    run_cost_predictor_validation,
    run_jl_distortion,
    run_scheduler_ablation,
)
from repro.bench.runners import (
    run_backend_scaling,
    run_claims_case,
    run_fig3_decision_surface,
    run_plan_overhead,
    run_psa_comparison,
    run_table1_projection,
    run_table4_bps,
    run_table5_full_system,
)

EXPERIMENTS = {
    "table1": (run_table1_projection, "Table 1 — data compression methods"),
    "table2": (run_psa_comparison, "Tables 2 & 3 — PSA prediction quality"),
    "table4": (run_table4_bps, "Table 4 — Generic vs BPS scheduling"),
    "table5": (run_table5_full_system, "Table 5 — full system vs baseline"),
    "fig3": (run_fig3_decision_surface, "Figure 3 — decision surfaces"),
    "claims": (run_claims_case, "§4.5 — claims fraud case"),
    "stages": (run_plan_overhead, "Plan stage telemetry — per-stage wall times"),
    "jl": (run_jl_distortion, "A1 — JL distortion ablation"),
    "cost": (run_cost_predictor_validation, "A2 — cost predictor validation"),
    # 'schedulers' is dispatched as a richer subcommand (registry listing
    # + multi-batch trajectory, --quick/--json); this entry keeps the A3
    # single-batch ablation inside 'python -m repro all'.
    "schedulers": (run_scheduler_ablation, "A3 — scheduler ablation"),
    "approximators": (run_approximator_ablation, "A4 — approximator ablation"),
}

_BACKENDS = ("sequential", "threads", "shm_processes", "simulated")


class CLIError(Exception):
    """Operator-facing bad input: one line on stderr, exit status 2.

    Distinct from exit 1, which every benchmark subcommand reserves for
    a real gate failure (parity mismatch, no adaptive improvement …).
    """


def _emit_json(payload: dict, json_path: str) -> None:
    """Write a JSON payload to a file or stdout (``'-'``)."""
    if json_path == "-":
        print(json.dumps(payload, indent=2))
        return
    try:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CLIError(f"cannot write JSON to {json_path!r}: {exc}") from exc
    print(f"wrote {json_path}")


def _load_serving_artifact(path: str):
    """Load a v2 ensemble artifact, mapping failures onto :class:`CLIError`."""
    import pickle

    from repro.utils.persistence import load_ensemble

    try:
        return load_ensemble(path)
    except FileNotFoundError as exc:
        raise CLIError(f"artifact {path!r} does not exist") from exc
    except IsADirectoryError as exc:
        raise CLIError(
            f"artifact {path!r} is a directory, expected a v2 ensemble file"
        ) from exc
    except (ValueError, pickle.UnpicklingError, EOFError, OSError) as exc:
        raise CLIError(f"cannot load ensemble artifact {path!r}: {exc}") from exc


def _task_labels(plan, estimators) -> list[str]:
    """Human label per scheduled task (family, plus rows for chunks)."""
    from repro.detectors.registry import family_of

    families = [family_of(est) for est in estimators]
    owners = plan.context.get("owners")
    if owners is None:
        return families
    return [f"{families[i]}[{sl.start}:{sl.stop}]" for i, sl in owners]


def _print_plan(kind: str, plan, estimators, max_rows: int = 48) -> None:
    meta = plan.meta
    print(
        f"\n=== {kind} plan — backend={meta['backend']} n_jobs={meta['n_jobs']} "
        f"grain={meta['grain']} tasks={meta['n_tasks']} ==="
    )
    print(
        format_table(
            plan.describe(),
            columns=["stage", "status", "wall_s", "detail"],
            title="Stages",
        )
    )
    rows = plan.assignment_rows(labels=_task_labels(plan, estimators))
    if rows:
        shown = rows[:max_rows]
        print(
            format_table(
                shown,
                columns=list(shown[0].keys()),
                title="\nForecast costs and assignment",
            )
        )
        if len(rows) > max_rows:
            print(f"... ({len(rows) - max_rows} more tasks)")
        print(format_table(plan.worker_rows(), title="\nPlanned per-worker load"))
    else:
        print("(no assignment yet — run the schedule stage)")


def run_plan_command(argv=None) -> int:
    """``python -m repro plan``: render fit/predict plans for a pool."""
    from repro.core.suod import SUOD
    from repro.data import make_outlier_dataset
    from repro.detectors import sample_model_pool
    from repro.pipeline import PlanRunner

    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description=(
            "Compile a SUOD fit/predict pass into an ExecutionPlan and "
            "print its stages, forecast costs, and worker assignment "
            "(table or JSON). Fit plans stop after the schedule stage, "
            "so nothing is trained unless --phase includes predict."
        ),
    )
    parser.add_argument("--phase", choices=("fit", "predict", "both"), default="fit")
    parser.add_argument(
        "--format", dest="fmt", choices=("table", "json"), default="table"
    )
    parser.add_argument("--models", type=int, default=8, help="pool size m")
    parser.add_argument("--n", type=int, default=600, help="synthetic rows")
    parser.add_argument("--d", type=int, default=12, help="synthetic features")
    parser.add_argument("--n-jobs", type=int, default=4, help="worker count t")
    parser.add_argument("--backend", choices=_BACKENDS, default="threads")
    parser.add_argument(
        "--batch-size", type=int, default=None, help="row-chunk scoring grain"
    )
    parser.add_argument(
        "--no-bps", action="store_true", help="use the generic contiguous split"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    X, _ = make_outlier_dataset(
        n_samples=args.n,
        n_features=args.d,
        contamination=0.1,
        random_state=args.seed,
    )
    pool = sample_model_pool(
        args.models,
        max_n_neighbors=max(2, min(50, args.n // 4)),
        random_state=args.seed,
    )
    clf = SUOD(
        pool,
        n_jobs=args.n_jobs,
        backend=args.backend,
        batch_size=args.batch_size,
        bps_flag=not args.no_bps,
        random_state=args.seed,
    )
    runner = PlanRunner()
    plans: dict[str, object] = {}
    if args.phase in ("fit", "both"):
        fit_plan = clf.build_fit_plan(X)
        runner.run(fit_plan, until="schedule")
        plans["fit"] = fit_plan
    if args.phase in ("predict", "both"):
        if "fit" in plans:
            runner.run(plans["fit"])  # resume the partial plan to completion
        else:
            clf.fit(X)
        predict_plan = clf.build_predict_plan(X)
        runner.run(predict_plan, until="schedule")
        plans["predict"] = predict_plan

    if args.fmt == "json":
        print(
            json.dumps(
                {kind: plan.to_dict() for kind, plan in plans.items()},
                indent=2,
            )
        )
        return 0
    for kind, plan in plans.items():
        estimators = (
            clf.base_estimators_ if kind == "predict" else clf.base_estimators
        )
        _print_plan(kind, plan, estimators)
    return 0


def run_scaling_command(argv=None) -> int:
    """``python -m repro scaling``: the backend-scaling benchmark."""
    parser = argparse.ArgumentParser(
        prog="python -m repro scaling",
        description=(
            "Time a fixed fit+predict workload through every execution "
            "backend across worker counts, verify bitwise-identical "
            "scores, and optionally write the rows as JSON (the format "
            "of BENCH_pr3.json and of the CI bench-smoke artifact)."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller data, worker counts (1, 2, 4), 5 repeats",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts, e.g. 1,2,4",
    )
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--n-test", type=int, default=None)
    parser.add_argument("--models", type=int, default=None, help="pool size m")
    parser.add_argument(
        "--batch-size", type=int, default=None, help="row-chunk scoring grain"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--predict-batches",
        type=int,
        default=None,
        help="serve the test set in this many consecutive batches",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed, "batch_size": args.batch_size}
    if args.quick:
        kwargs.update(
            worker_counts=(1, 2, 4),
            n_train=3000,
            n_test=16000,
            n_models=8,
            repeats=5,
        )
    if args.workers is not None:
        kwargs["worker_counts"] = tuple(
            int(w) for w in args.workers.split(",") if w.strip()
        )
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    if args.n_test is not None:
        kwargs["n_test"] = args.n_test
    if args.models is not None:
        kwargs["n_models"] = args.models
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.predict_batches is not None:
        kwargs["predict_batches"] = args.predict_batches

    t0 = time.perf_counter()
    rows, meta = run_backend_scaling(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        print(
            format_table(
                rows,
                columns=[
                    "backend",
                    "n_workers",
                    "fit_s",
                    "predict_s",
                    "total_s",
                    "speedup_vs_sequential",
                    "identical",
                ],
                title="\nBackend scaling — fit + predict wall clock",
            )
        )
        print(f"scores identical across backends: {meta['scores_identical']}")
        print(f"[scaling done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["scores_identical"] else 1


def run_schedulers_command(argv=None) -> int:
    """``python -m repro schedulers``: list + ablate registered policies."""
    from repro.bench.ablations import run_scheduler_trajectory
    from repro.scheduling import get_scheduler_class, list_schedulers

    parser = argparse.ArgumentParser(
        prog="python -m repro schedulers",
        description=(
            "List the registered scheduling policies and ablate all of "
            "them: single-batch makespans under noisy forecasts (A3) and "
            "the multi-batch static-vs-adaptive trajectory on the "
            "virtual-clock simulated backend. Exits non-zero if the "
            "adaptive policy fails to improve on its first batch."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller pool for the single-batch ablation",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write policies + rows as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--list", action="store_true", help="only list registered policies"
    )
    parser.add_argument("--models", type=int, default=None, help="pool size m")
    parser.add_argument("--workers", type=int, default=None, help="worker count t")
    parser.add_argument(
        "--batches",
        type=int,
        default=5,
        help="consecutive batches to replay (>= 3: the gate reads batch 3)",
    )
    args = parser.parse_args(argv)
    if args.batches < 3:
        parser.error("--batches must be >= 3 (the improvement gate reads batch 3)")

    policies = [
        {
            "name": name,
            "class": get_scheduler_class(name).__name__,
            "uses_costs": bool(get_scheduler_class(name).uses_costs),
            "adaptive": bool(get_scheduler_class(name).adaptive),
        }
        for name in list_schedulers()
    ]
    if args.list:
        if args.json_path:
            _emit_json({"policies": policies}, args.json_path)
        else:
            print(format_table(policies, title="Registered scheduling policies"))
        return 0

    cfg = get_config()
    t0 = time.perf_counter()
    abl_kwargs = {"m": 60, "t": 4} if args.quick else {}
    traj_kwargs = {"batches": args.batches}
    if args.models is not None:
        abl_kwargs["m"] = traj_kwargs["m"] = args.models
    if args.workers is not None:
        abl_kwargs["t"] = traj_kwargs["t"] = args.workers
    abl_rows, abl_meta = run_scheduler_ablation(cfg, **abl_kwargs)
    traj_rows, traj_meta = run_scheduler_trajectory(cfg, **traj_kwargs)
    elapsed = time.perf_counter() - t0

    improved = (
        traj_meta["adaptive_batch3"] is not None
        and traj_meta["adaptive_batch3"] < traj_meta["adaptive_batch1"]
    )
    payload = {
        "meta": {
            "ablation": abl_meta,
            "trajectory": traj_meta,
            "adaptive_improved_by_batch3": improved,
        },
        "policies": policies,
        "ablation": abl_rows,
        "trajectory": traj_rows,
    }
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(format_table(policies, title="Registered scheduling policies"))
        print(
            format_table(
                abl_rows,
                columns=["distribution", "policy", "makespan", "vs_lower_bound"],
                title=(
                    f"\nA3 — single-batch makespans "
                    f"(m={abl_meta['m']}, t={abl_meta['t']}; noisy forecasts)"
                ),
            )
        )
        print(
            format_table(
                traj_rows,
                columns=["policy", "batch", "makespan", "vs_lower_bound"],
                title=(
                    f"\nStatic vs adaptive over {traj_meta['batches']} batches "
                    f"(m={traj_meta['m']}, t={traj_meta['t']}, "
                    f"virtual-clock replay)"
                ),
            )
        )
        print(
            f"\nadaptive makespan: batch 1 = {traj_meta['adaptive_batch1']:.2f}, "
            f"batch 3 = {traj_meta['adaptive_batch3']:.2f}, "
            f"lower bound = {traj_meta['lower_bound']:.2f} "
            f"({'improved' if improved else 'NO IMPROVEMENT'})"
        )
        print(f"[schedulers done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if improved else 1


def run_kernels_command(argv=None) -> int:
    """``python -m repro kernels``: compute-kernel microbenchmarks."""
    from repro.bench.runners import run_kernel_benchmarks

    parser = argparse.ArgumentParser(
        prog="python -m repro kernels",
        description=(
            "Time every vectorised compute kernel (batched KD-tree "
            "query, LOF scoring, flat iForest/forest/GBM traversal, "
            "one-pass CART split search, chunked ABOD angles) against "
            "its frozen pre-refactor reference implementation and check "
            "the outputs bitwise. Exits non-zero if any parity check "
            "fails; timings are informational on shared hosts. The JSON "
            "rows are the format of BENCH_pr5.json and of the CI "
            "bench-smoke artifact."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller query/serving workloads, 3 repeats",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-index", type=int, default=None, help="index size n")
    parser.add_argument("--n-query", type=int, default=None, help="query rows q")
    parser.add_argument("--trees", type=int, default=None, help="forest size")
    parser.add_argument(
        "--serve-batch", type=int, default=None, help="rows per serving batch"
    )
    parser.add_argument(
        "--serve-batches", type=int, default=None, help="consecutive batches"
    )
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs.update(
            n_index=4000,
            n_query=1500,
            iforest_train=2048,
            serve_batch=256,
            serve_batches=16,
            ensemble_train=1000,
            split_rows=2500,
            abod_queries=1500,
            repeats=3,
        )
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.n_index is not None:
        kwargs["n_index"] = args.n_index
    if args.n_query is not None:
        kwargs["n_query"] = args.n_query
        kwargs.setdefault("abod_queries", args.n_query)
    if args.trees is not None:
        kwargs["n_trees"] = args.trees
    if args.serve_batch is not None:
        kwargs["serve_batch"] = args.serve_batch
    if args.serve_batches is not None:
        kwargs["serve_batches"] = args.serve_batches

    t0 = time.perf_counter()
    rows, meta = run_kernel_benchmarks(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        print(
            format_table(
                rows,
                columns=[
                    "kernel",
                    "reference_s",
                    "vectorized_s",
                    "speedup",
                    "identical",
                ],
                title="\nCompute kernels — frozen reference vs vectorized",
            )
        )
        print(
            f"\nknn_query: {meta['knn_query_speedup']:.2f}x, "
            f"iforest_scoring: {meta['iforest_speedup']:.2f}x "
            f"(serving batches of {meta['serve_batch']} rows)"
        )
        print(f"all kernels bitwise-identical: {meta['all_identical']}")
        print(f"[kernels done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["all_identical"] else 1


def run_memory_command(argv=None) -> int:
    """``python -m repro memory``: memory-plane cold-start benchmark."""
    from repro.bench.runners import run_memory_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro memory",
        description=(
            "Benchmark memmap-served arena artifacts against the inline "
            "rebuild baseline: fresh spawn-context workers cold-start "
            "the same fitted ensemble from each artifact and report "
            "load wall, time-to-first-score, and resident-set growth. "
            "Also gates the memory-plane parity contract: memmap, "
            "multi-worker, and out-of-core scores must be bitwise-"
            "identical to in-RAM float64, and float32 serving must stay "
            "inside its pinned tolerance. Exits non-zero on any parity "
            "failure; the JSON rows are the format of BENCH_pr7.json "
            "and of the CI bench-smoke artifact."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller pool and training set, 2 repeats",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="concurrent cold-start workers"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--forests", type=int, default=None, help="iForests in pool")
    parser.add_argument("--trees", type=int, default=None, help="trees per forest")
    parser.add_argument(
        "--first-rows", type=int, default=None, help="rows in the first request"
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="keep the saved artifacts in this directory instead of a tempdir",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.artifact_dir is not None and not os.path.isdir(args.artifact_dir):
        raise CLIError(
            f"--artifact-dir {args.artifact_dir!r} is not an existing directory"
        )

    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs.update(
            n_train=3000,
            n_test=1500,
            n_forests=2,
            n_trees=60,
            forest_subsample=1024,
            repeats=2,
        )
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    if args.forests is not None:
        kwargs["n_forests"] = args.forests
    if args.trees is not None:
        kwargs["n_trees"] = args.trees
    if args.first_rows is not None:
        kwargs["first_rows"] = args.first_rows
    if args.artifact_dir is not None:
        kwargs["artifact_dir"] = args.artifact_dir

    t0 = time.perf_counter()
    rows, meta = run_memory_benchmark(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        shown = [
            {
                **row,
                "artifact_mb": round(row["artifact_bytes"] / 1e6, 1),
                "rss_delta_mb": round(row["serving_rss_delta_bytes"] / 1e6, 1),
            }
            for row in rows
        ]
        print(
            format_table(
                shown,
                columns=[
                    "mode",
                    "workers",
                    "load_s",
                    "first_score_s",
                    "cold_total_s",
                    "artifact_mb",
                    "rss_delta_mb",
                    "identical",
                ],
                title="\nMemory plane — memmap arenas vs inline rebuild",
            )
        )
        print(
            f"\ncold start: {meta['cold_start_speedup']:.2f}x faster via memmap "
            f"({meta['arena_count']} arenas, "
            f"{meta['arena_bytes'] / 1e6:.1f} MB served in place); "
            f"serving RSS growth {meta['serving_rss_delta_ratio']:.2f}x lower"
        )
        print(
            f"float32 serving: max |diff| = {meta['float32_max_abs_diff']:.2e} "
            f"(tolerance {meta['float32_tolerance']}), "
            f"restore bitwise = {meta['float32_restore_bitwise']}"
        )
        print(
            "parity (memmap/workers/out-of-core bitwise, float32 in-tolerance): "
            f"{meta['parity_ok']}"
        )
        print(f"[memory done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["parity_ok"] else 1


def run_sharing_command(argv=None) -> int:
    """``python -m repro sharing``: shared-computation plane benchmark."""
    from repro.bench.runners import run_sharing_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro sharing",
        description=(
            "Benchmark the shared-computation plane: fit the same pool "
            "of neighbor detectors with the share stage on (one KD-tree "
            "build and one fused max-k query per distinct (space, "
            "metric) key) and off (every detector builds and queries "
            "privately), and report fit/predict walls per backend. "
            "Gates the prefix-slice parity contract — every score must "
            "be bitwise-identical between the two modes — and the build "
            "count (shared fit builds exactly one tree per distinct "
            "key). Exits non-zero on any parity or build-count failure; "
            "the JSON rows are the format of BENCH_pr9.json and of the "
            "CI bench-smoke artifact."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller train/test sets, 2 repeats",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--n-test", type=int, default=None)
    parser.add_argument("--d", type=int, default=None, help="feature count")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--n-jobs", type=int, default=None, help="workers for the threads rows"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs.update(n_train=2000, n_test=1000, repeats=2)
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    if args.n_test is not None:
        kwargs["n_test"] = args.n_test
    if args.d is not None:
        kwargs["n_features"] = args.d
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    if args.n_jobs is not None:
        kwargs["n_jobs"] = args.n_jobs

    t0 = time.perf_counter()
    rows, meta = run_sharing_benchmark(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        print(
            format_table(
                rows,
                columns=[
                    "backend",
                    "n_jobs",
                    "mode",
                    "fit_s",
                    "predict_s",
                    "total_s",
                ],
                title="\nShared-computation plane — fused producers vs redundant",
            )
        )
        sharing = meta["sharing"] or {}
        print(
            f"\nfit: {meta['fit_speedup']:.2f}x faster shared "
            f"(total {meta['total_speedup']:.2f}x); "
            f"{meta['kdtree_builds_shared']} KD-tree build(s) for "
            f"{meta['n_detectors']} detectors vs "
            f"{meta['kdtree_builds_redundant']} redundant "
            f"({meta['distinct_keys']} distinct key(s))"
        )
        print(
            f"share stage: {sharing.get('n_tasks_before')} -> "
            f"{sharing.get('n_tasks_after')} tasks, "
            f"{sharing.get('queries_fused')} queries fused, "
            f"{sharing.get('bytes_published')} bytes published"
        )
        print(
            f"parity (shared vs redundant bitwise, all backends): "
            f"{meta['parity_ok']}"
        )
        print(f"[sharing done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["gates_ok"] else 1


def run_approx_command(argv=None) -> int:
    """``python -m repro approx``: PSA-on-the-parallel-plane benchmark."""
    from repro.bench.runners import run_approx_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro approx",
        description=(
            "Benchmark the PSA wave: fit the 16-model heterogeneous pool "
            "with n_jobs 1 and 2 (shm_processes) and report the "
            "approximate stage's wall, its (model x tree-block) ledger, "
            "the speedup and per-worker busy share. Gates the parity "
            "contract - train scores, threshold, held-out scores and "
            "every approximator tree bitwise-identical serial vs "
            "parallel - and exits non-zero if it fails; the JSON rows "
            "are the format of BENCH_pr15.json and of the CI bench-smoke "
            "artifact."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: 400x40 train set, 1 repeat",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--d", type=int, default=None, help="feature count")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs.update(n_train=400, n_test=400, n_features=40, repeats=1)
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    if args.d is not None:
        kwargs["n_features"] = args.d
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats

    t0 = time.perf_counter()
    rows, meta = run_approx_benchmark(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        print(
            format_table(
                rows,
                columns=[
                    "n_jobs",
                    "approximate_s",
                    "approximate_speedup",
                    "fit_s",
                    "tasks",
                    "blocks_per_model",
                    "tasks_per_worker",
                    "busy_share",
                ],
                title="\nPSA wave - approximate-stage wall per worker count",
            )
        )
        print(
            f"\napproximate: {meta['approximate_speedup']:.2f}x faster on "
            f"{rows[-1]['n_jobs']} workers (fit {meta['fit_speedup']:.2f}x), "
            f"{meta['n_approximated']} forests"
        )
        print(f"parity (serial vs parallel bitwise): {meta['parity_ok']}")
        print(f"[approx done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["gates_ok"] else 1


def _parse_tenant_limits(specs) -> dict[str, tuple[float, float]]:
    """``name=rate`` / ``name=rate:burst`` CLI specs into a limits dict."""
    limits: dict[str, tuple[float, float]] = {}
    for spec in specs or []:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise CLIError(
                f"--tenant-limit {spec!r} is malformed; expected "
                "name=rate or name=rate:burst"
            )
        rate_s, _, burst_s = value.partition(":")
        try:
            rate = float(rate_s)
            burst = float(burst_s) if burst_s else rate
        except ValueError as exc:
            raise CLIError(
                f"--tenant-limit {spec!r} has a non-numeric rate/burst"
            ) from exc
        if rate <= 0 or burst <= 0:
            raise CLIError(f"--tenant-limit {spec!r} must be > 0")
        limits[name] = (rate, burst)
    return limits


def run_serve_command(argv=None) -> int:
    """``python -m repro serve``: the online micro-batching scoring server."""
    import asyncio

    from repro.serving import ScoringServer, ServerConfig

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve a saved v2 ensemble artifact over a length-prefixed "
            "JSON/npy socket protocol, coalescing concurrent requests "
            "into cost-model-sized micro-batches with per-tenant "
            "admission control. Prints a 'REPRO-SERVE READY' line once "
            "listening and drains cleanly on SIGTERM/SIGINT (every "
            "accepted request is answered before exit)."
        ),
    )
    parser.add_argument(
        "--artifact",
        required=True,
        help="path to a v2 ensemble artifact (save_ensemble output)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (see READY line)"
    )
    parser.add_argument(
        "--batch-max-rows",
        type=int,
        default=4096,
        help="hard ceiling on micro-batch size (rows)",
    )
    parser.add_argument(
        "--batch-wait-ms",
        type=float,
        default=5.0,
        help="longest a batch stays open after its first request",
    )
    parser.add_argument(
        "--target-latency-ms",
        type=float,
        default=50.0,
        help="execution-time budget the batch-size forecast targets",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        help="default per-tenant admission rate (requests/s)",
    )
    parser.add_argument(
        "--burst", type=float, default=2000.0, help="default per-tenant burst"
    )
    parser.add_argument(
        "--tenant-limit",
        action="append",
        metavar="NAME=RATE[:BURST]",
        help="per-tenant rate override (repeatable)",
    )
    parser.add_argument(
        "--max-queue-rows",
        type=int,
        default=65536,
        help="shed new requests once this many rows are queued",
    )
    parser.add_argument(
        "--max-payload-mb",
        type=float,
        default=64.0,
        help="reject request frames with larger payloads (413)",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline budget applied to requests that carry none",
    )
    args = parser.parse_args(argv)

    tenant_limits = _parse_tenant_limits(args.tenant_limit)
    model = _load_serving_artifact(args.artifact)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        batch_max_rows=args.batch_max_rows,
        batch_wait_ms=args.batch_wait_ms,
        target_latency_ms=args.target_latency_ms,
        rate=args.rate,
        burst=args.burst,
        tenant_limits=tenant_limits,
        max_queue_rows=args.max_queue_rows,
        max_payload_bytes=int(args.max_payload_mb * (1 << 20)),
        default_deadline_ms=args.default_deadline_ms,
    )
    server = ScoringServer(model, config)

    def announce(srv) -> None:
        print(
            f"REPRO-SERVE READY host={args.host} port={srv.port} "
            f"pid={os.getpid()} n_features={srv.n_features}",
            flush=True,
        )

    asyncio.run(server.run_until_shutdown(announce=announce))
    st = server.stats
    print(
        f"REPRO-SERVE DRAINED served_ok={st.served_ok} "
        f"rejected={st.rejected} errors={st.errors} "
        f"dropped_responses={st.dropped_responses}",
        flush=True,
    )
    return 0


def run_service_command(argv=None) -> int:
    """``python -m repro service``: the serving-plane benchmark + gate."""
    from repro.bench.runners import run_service_benchmark

    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description=(
            "Benchmark the online scoring service: boot real server "
            "processes from a saved v2 artifact (micro-batched and "
            "per-request), drive concurrent mixed-tenant clients (one "
            "deliberately past its rate limit), and compare request "
            "throughput and latency percentiles. Exits non-zero if any "
            "gate fails: served scores must be bitwise-identical to "
            "offline decision_function calls, the limited tenant must "
            "see 429s while others see none, and SIGTERM must drain "
            "each server cleanly. Timings are informational on shared "
            "hosts; the JSON rows are the format of BENCH_pr8.json and "
            "of the CI service-smoke artifact."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller pool, fewer requests and clients",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write rows + meta as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument(
        "--rows", type=int, default=None, help="rows per scoring request"
    )
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--n-train", type=int, default=None)
    parser.add_argument("--models", type=int, default=None, help="pool size m")
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="keep the saved artifact in this directory instead of a tempdir",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.artifact_dir is not None and not os.path.isdir(args.artifact_dir):
        raise CLIError(
            f"--artifact-dir {args.artifact_dir!r} is not an existing directory"
        )

    kwargs = {"seed": args.seed}
    if args.quick:
        kwargs.update(
            n_train=800,
            n_models=4,
            requests=480,
            rows_per_request=1,
            clients=16,
        )
    if args.requests is not None:
        kwargs["requests"] = args.requests
    if args.rows is not None:
        kwargs["rows_per_request"] = args.rows
    if args.clients is not None:
        kwargs["clients"] = args.clients
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    if args.models is not None:
        kwargs["n_models"] = args.models
    if args.artifact_dir is not None:
        kwargs["artifact_dir"] = args.artifact_dir

    t0 = time.perf_counter()
    rows, meta = run_service_benchmark(get_config(), **kwargs)
    elapsed = time.perf_counter() - t0

    payload = {"meta": meta, "rows": rows}
    if args.json_path == "-":
        _emit_json(payload, "-")
    else:
        print(meta["config"])
        print(
            format_table(
                rows,
                columns=[
                    "mode",
                    "requests_ok",
                    "rejected",
                    "wall_s",
                    "requests_per_s",
                    "p50_ms",
                    "p99_ms",
                    "batch_rows_mean",
                    "identical",
                ],
                title="\nScoring service — micro-batched vs per-request",
            )
        )
        print(
            f"\nthroughput: {meta['throughput_speedup']:.2f}x via micro-batching "
            f"({meta['requests']} requests x {meta['rows_per_request']} rows, "
            f"{meta['clients']} concurrent clients)"
        )
        print(
            f"rate limiting: limited tenant saw "
            f"{meta['limited_tenant_rejections']} rejection(s), "
            f"measured tenants saw {meta['measured_tenant_rejections']}"
        )
        print(
            "parity (served scores bitwise vs offline decision_function): "
            f"{meta['parity_ok']}; clean SIGTERM drain: {meta['clean_shutdown']}"
        )
        print(f"[service done in {elapsed:.1f}s]")
    if args.json_path and args.json_path != "-":
        _emit_json(payload, args.json_path)
    return 0 if meta["gates_ok"] else 1


def run_bench_all_command(argv=None) -> int:
    """``python -m repro bench-all``: every registered bench suite, one gate."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-all",
        description=(
            "Run every registered benchmark suite "
            f"({', '.join(BENCH_SUITES)}) and write bench_<name>.json "
            "per suite into --json-dir. One failing suite fails the "
            "whole run (after the remaining suites have still been "
            "executed) — the single CI bench-smoke step, so a new "
            "subsystem's benchmark is picked up by registering it here "
            "instead of editing the workflow."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="pass --quick through to every suite"
    )
    parser.add_argument(
        "--json-dir",
        default=".",
        metavar="DIR",
        help="directory receiving one bench_<name>.json per suite",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of suites to run",
    )
    parser.add_argument(
        "--skip",
        default=None,
        metavar="NAMES",
        help="comma-separated suites to leave out",
    )
    parser.add_argument(
        "--list", action="store_true", help="only list registered suites"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in BENCH_SUITES:
            print(name)
        return 0
    selected = list(BENCH_SUITES)
    for flag, value in (("--only", args.only), ("--skip", args.skip)):
        if value is None:
            continue
        names = [n.strip() for n in value.split(",") if n.strip()]
        unknown = sorted(set(names) - set(BENCH_SUITES))
        if unknown:
            raise CLIError(
                f"{flag} names unknown suite(s) {', '.join(unknown)}; "
                f"registered: {', '.join(BENCH_SUITES)}"
            )
        if flag == "--only":
            selected = [n for n in selected if n in names]
        else:
            selected = [n for n in selected if n not in names]
    if not selected:
        raise CLIError("no suites left to run after --only/--skip")
    try:
        os.makedirs(args.json_dir, exist_ok=True)
    except OSError as exc:
        raise CLIError(f"cannot create --json-dir {args.json_dir!r}: {exc}") from exc

    results = []
    for name in selected:
        json_path = os.path.join(args.json_dir, f"bench_{name}.json")
        cmd_argv = (["--quick"] if args.quick else []) + ["--json", json_path]
        print(f"=== bench-all: {name} ===", flush=True)
        t0 = time.perf_counter()
        code = BENCH_SUITES[name](cmd_argv)
        results.append(
            {
                "suite": name,
                "exit_code": code,
                "json": json_path,
                "wall_s": round(time.perf_counter() - t0, 2),
            }
        )
    print(
        format_table(
            results,
            columns=["suite", "exit_code", "wall_s", "json"],
            title="\nbench-all summary",
        )
    )
    failed = [r["suite"] for r in results if r["exit_code"] != 0]
    if failed:
        print(f"bench-all: FAILED suites: {', '.join(failed)}")
        return 1
    print(f"bench-all: all {len(results)} suites passed")
    return 0


def _print_experiment(name: str, cfg) -> None:
    runner, title = EXPERIMENTS[name]
    print(f"\n=== {title} ===")
    t0 = time.perf_counter()
    rows, meta = runner(cfg)
    elapsed = time.perf_counter() - t0
    print(meta.get("config", ""))
    print(format_table(rows))
    if "surfaces" in meta:
        for label, surface in meta["surfaces"].items():
            print(f"\n{label}:")
            print(surface)
    print(f"[{name} done in {elapsed:.1f}s]")


def _run_analyze_command(argv=None) -> int:
    from repro.analysis.cli import run_analyze_command

    return run_analyze_command(argv)


#: Benchmark suites ``bench-all`` fans out over. Each value is a command
#: function accepting ``["--quick", "--json", PATH]``-style argv and
#: returning an exit code; registering a new subsystem's benchmark here
#: is what puts it in CI's bench-smoke job.
BENCH_SUITES = {
    "scaling": run_scaling_command,
    "schedulers": run_schedulers_command,
    "kernels": run_kernels_command,
    "sharing": run_sharing_command,
    "approx": run_approx_command,
    "memory": run_memory_command,
    "service": run_service_command,
}

#: First-positional-argument dispatch: ``python -m repro <name> ...``.
SUBCOMMANDS = {
    "plan": run_plan_command,
    "scaling": run_scaling_command,
    "schedulers": run_schedulers_command,
    "kernels": run_kernels_command,
    "sharing": run_sharing_command,
    "approx": run_approx_command,
    "memory": run_memory_command,
    "serve": run_serve_command,
    "service": run_service_command,
    "bench-all": run_bench_all_command,
    "analyze": _run_analyze_command,
}

#: One-line per-subcommand summaries for ``python -m repro list``.
_SUBCOMMAND_HELP = {
    "plan": "Inspect a fit/predict ExecutionPlan",
    "scaling": "Backend scaling benchmark",
    "schedulers": "Scheduler registry listing + ablation",
    "kernels": "Compute-kernel microbenchmarks + parity gate",
    "sharing": "Shared-computation plane benchmark + parity gate",
    "approx": "PSA parallel-wave benchmark + parity gate",
    "memory": "Memory-plane benchmark + parity gate",
    "serve": "Online micro-batching scoring server",
    "service": "Serving-plane benchmark + parity gate",
    "bench-all": "Run every benchmark suite, one JSON per suite",
    "analyze": "Static invariant checks (parity/lifecycle/concurrency)",
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            return SUBCOMMANDS[argv[0]](argv[1:])
        return _run_experiments(argv)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_experiments(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the SUOD paper's tables and figures; "
            "'plan' inspects fit/predict execution plans; 'scaling' "
            "benchmarks the execution backends."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help=(
            "experiment id ('list' to enumerate, 'all' to run everything; "
            "see also the 'plan', 'scaling', and 'kernels' subcommands)"
        ),
    )
    parser.add_argument("--scale", type=float, help="dataset scale in (0, 1]")
    parser.add_argument("--max-n", type=int, help="sample cap per dataset")
    parser.add_argument("--trials", type=int, help="trials to average")
    parser.add_argument("--models", type=int, help="pool size for table5")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, title) in sorted(EXPERIMENTS.items()):
            print(f"{name:14s} {title}")
        for name in SUBCOMMANDS:
            print(
                f"{name:14s} {_SUBCOMMAND_HELP[name]} "
                f"(python -m repro {name} --help)"
            )
        return 0

    cfg = get_config()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.max_n is not None:
        overrides["max_n"] = args.max_n
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.models is not None:
        overrides["n_models"] = args.models
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in targets:
        _print_experiment(name, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
