"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro table1 [--scale 0.12] [--trials 2]
    python -m repro table4 --scale 0.2
    python -m repro fig3
    python -m repro all --scale 0.05
    python -m repro plan [--phase fit|predict|both] [--format table|json]
    python -m repro schedulers [--quick] [--json out.json]
    python -m repro serve --artifact ensemble.repro [--port 9000]
    python -m repro analyze [paths ...] [--json out.json]

``plan`` is not an experiment: it compiles a SUOD fit/predict pass into
its :class:`~repro.pipeline.ExecutionPlan` and prints the stages, the
forecast per-task costs, and the chosen worker assignment — without
training anything (fit plans stop after the schedule stage).

``schedulers`` lists the registered scheduling policies and ablates
every one of them: single-batch makespans on noisy forecasts (A3) plus
the multi-batch static-vs-adaptive trajectory on the virtual-clock
simulated backend — the behavioural check that the ``adaptive``
policy's telemetry feedback actually closes the forecast gap. Exits
non-zero if the adaptive policy stops improving by batch 3.

``serve`` runs the online scoring service: a long-lived asyncio socket
server (:mod:`repro.serving`) around a saved v2 ensemble artifact,
coalescing concurrent requests into cost-model-sized micro-batches with
per-tenant admission control. It prints a ``REPRO-SERVE READY`` line
once listening and drains cleanly on SIGTERM/SIGINT.

``analyze`` runs the :mod:`repro.analysis` static checkers over the
source tree (bitwise-parity hazards, shm lifecycle, payload
concurrency, repo contracts, frozen-reference pin) and exits non-zero
on any finding — the blocking CI ``analyze`` job.

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

    Distinct from exit 1, which ``schedulers`` and ``analyze`` reserve
    for a real gate failure (no adaptive improvement, an analysis finding).
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


def _print_plan(kind: str, plan, estimators, max_rows: int = 48) -> None:
    from repro.detectors.registry import family_of

    meta = plan.meta
    print(
        f"\n=== {kind} plan — backend={meta['backend']} n_jobs={meta['n_jobs']} "
        f"tasks={meta['n_tasks']} ==="
    )
    print(
        format_table(
            plan.describe(),
            columns=["stage", "status", "wall_s", "detail"],
            title="Stages",
        )
    )
    rows = plan.assignment_rows(labels=[family_of(est) for est in estimators])
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


#: First-positional-argument dispatch: ``python -m repro <name> ...``.
SUBCOMMANDS = {
    "plan": run_plan_command,
    "schedulers": run_schedulers_command,
    "serve": run_serve_command,
    "analyze": _run_analyze_command,
}

#: One-line per-subcommand summaries for ``python -m repro list``.
_SUBCOMMAND_HELP = {
    "plan": "Inspect a fit/predict ExecutionPlan",
    "schedulers": "Scheduler registry listing + ablation",
    "serve": "Online micro-batching scoring server",
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
            "'plan' inspects fit/predict execution plans; 'serve' runs "
            "the online scoring server."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all"],
        help=(
            "experiment id ('list' to enumerate, 'all' to run everything; "
            "see also the 'plan', 'schedulers', 'serve' and 'analyze' "
            "subcommands)"
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
