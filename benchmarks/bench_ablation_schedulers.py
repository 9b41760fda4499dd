"""Ablation A3: scheduling policy comparison.

Makespans of every *registered* scheduling policy (plus the oracle-LPT
reference) on three cost distributions under noisy forecasts, normalised
by the theoretical lower bound — newly registered policies join the
table automatically. A second benchmark replays consecutive batches to
show the adaptive policy's telemetry feedback closing the forecast gap.
"""

import numpy as np

from conftest import run_once
from repro.bench import format_table
from repro.bench.ablations import run_scheduler_ablation, run_scheduler_trajectory
from repro.scheduling import list_schedulers


def test_scheduler_ablation(benchmark, cfg):
    rows, meta = run_once(benchmark, run_scheduler_ablation, cfg)
    print()
    print(meta["config"], f"(m={meta['m']}, t={meta['t']})")
    print(
        format_table(
            rows,
            columns=["distribution", "policy", "makespan", "vs_lower_bound"],
            title="\nA3 — scheduler makespans (lower is better; 1.0 = lower bound)",
        )
    )

    # Registry-driven coverage: every registered policy is ablated, plus
    # the reference variants — no hard-coded policy list to fall behind.
    assert {r["policy"] for r in rows} == set(list_schedulers()) | {
        "bps_rank",
        "oracle_lpt",
    }

    def mean_ratio(policy):
        return np.mean([r["vs_lower_bound"] for r in rows if r["policy"] == policy])

    # BPS (noisy forecasts) beats generic everywhere and approaches the
    # oracle; shuffle sits in between.
    assert mean_ratio("bps-lpt") < mean_ratio("generic")
    assert mean_ratio("bps-kk") < mean_ratio("generic")
    assert mean_ratio("bps_rank") < mean_ratio("generic")
    assert mean_ratio("oracle_lpt") <= mean_ratio("bps-lpt") + 0.05
    # Oracle-LPT respects the 4/3 guarantee.
    assert mean_ratio("oracle_lpt") <= 4.0 / 3.0 + 1e-6


def test_scheduler_trajectory(benchmark, cfg):
    rows, meta = run_once(benchmark, run_scheduler_trajectory, cfg)
    print()
    print(meta["config"], f"(m={meta['m']}, t={meta['t']}, batches={meta['batches']})")
    print(
        format_table(
            rows,
            columns=["policy", "batch", "makespan", "vs_lower_bound"],
            title="\nStatic vs adaptive makespan per batch (virtual clock)",
        )
    )
    # Batch 1 the adaptive policy is indistinguishable from static BPS;
    # by batch 3 measured costs have replaced the wrong forecast.
    assert meta["adaptive_batch1"] == meta["static_final"]
    assert meta["adaptive_batch3"] < meta["adaptive_batch1"]
    assert meta["adaptive_final"] <= meta["adaptive_batch3"]
