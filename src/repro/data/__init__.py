"""Datasets: synthetic replicas of the paper's benchmarks.

The ODDS/DAMI benchmark files are not redistributable/downloadable in
this environment, so :mod:`repro.data.benchmark` generates synthetic
replicas matched on (n, d, outlier count) from the paper's Table A.1,
built from the configurable generator in :mod:`repro.data.synthetic`.
:mod:`repro.data.toy` reproduces the Fig. 3 two-dimensional set, and
:mod:`repro.data.claims` the IQVIA-like pharmacy-claims workload (§4.5).
See the substitution table in docs/architecture.md.
"""

from repro.data.synthetic import make_outlier_dataset
from repro.data.benchmark import (
    TABLE_A1,
    benchmark_names,
    benchmark_info,
    load_benchmark,
    train_test_split,
)
from repro.data.toy import make_fig3_toy
from repro.data.claims import make_claims_dataset

__all__ = [
    "make_outlier_dataset",
    "TABLE_A1",
    "benchmark_names",
    "benchmark_info",
    "load_benchmark",
    "train_test_split",
    "make_fig3_toy",
    "make_claims_dataset",
]
