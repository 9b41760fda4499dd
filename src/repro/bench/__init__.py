"""Experiment harness shared by the ``benchmarks/`` suite.

Each paper table/figure has a runner here that generates the workload,
executes the experiment, and returns structured rows; the ``benchmarks/``
files wrap the runners with pytest-benchmark and print paper-style
tables. Scaling knobs come from the environment (see
:mod:`repro.bench.config`) so the same code runs laptop-sized by default
and paper-sized when asked.
"""

from repro.bench.config import BenchConfig, get_config
from repro.bench.tables import format_table
from repro.bench.runners import (
    run_table1_projection,
    run_psa_comparison,
    run_table4_bps,
    run_table5_full_system,
    run_fig3_decision_surface,
    run_claims_case,
)

__all__ = [
    "BenchConfig",
    "get_config",
    "format_table",
    "run_table1_projection",
    "run_psa_comparison",
    "run_table4_bps",
    "run_table5_full_system",
    "run_fig3_decision_surface",
    "run_claims_case",
]
