"""Plan stage telemetry: per-stage wall times of a planned fit + predict.

Every fit/predict pass flows through an ExecutionPlan, and each stage
leaves a StageReport. The per-stage wall times are printed, and the plan
machinery's own cost (phase wall minus summed stage walls) must stay
within 5% of the execute stage's makespan — i.e. the planner adds no
measurable scheduling overhead over direct backend dispatch.
"""

from conftest import run_once
from repro.bench import format_table
from repro.bench.runners import run_plan_overhead


def test_plan_stage_timings(benchmark, cfg):
    rows, meta = run_once(benchmark, run_plan_overhead, cfg)
    print()
    print(
        meta["config"],
        f"(n={meta['n']}, m={meta['m']}, t={meta['n_jobs']}, "
        f"backend={meta['backend']})",
    )
    print(
        format_table(
            rows,
            columns=["phase", "stage", "wall_s", "share_pct", "overhead_pct"],
            title="\nPer-stage wall times of a planned fit + predict pass",
        )
    )
    print(f"combined telemetry: wall {meta['combined_wall']:.3f}s")

    # Every stage of both plans reported, in pipeline order.
    stages = {r["phase"]: [] for r in rows}
    for r in rows:
        stages[r["phase"]].append(r["stage"])
    assert stages["fit"][:7] == [
        "project",
        "forecast",
        "share",
        "schedule",
        "execute",
        "approximate",
        "combine",
    ]
    assert stages["predict"][:6] == [
        "project",
        "forecast",
        "share",
        "schedule",
        "execute",
        "combine",
    ]

    # The refactor contract: plan machinery costs < 5% of the makespan
    # it orchestrates, for both phases.
    overhead = {r["phase"]: r["overhead_pct"] for r in rows if "overhead_pct" in r}
    assert set(overhead) == {"fit", "predict"}
    for phase, pct in overhead.items():
        assert pct < 5.0, f"{phase} plan overhead {pct:.2f}% of makespan"
