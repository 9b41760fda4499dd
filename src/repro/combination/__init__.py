"""Outlier-score combination methods (Aggarwal & Sathe, 2017).

The paper evaluates the full system with simple averaging (``Avg``) and
maximum-of-average (``MOA``) over the standardised base-model scores
(Table 5). AOM (average-of-maximum) and a weighted average are included
for completeness.
"""

from repro.combination.methods import (
    zscore_standardise,
    ecdf_standardise,
    mean_over_models,
    average,
    maximization,
    aom,
    moa,
    weighted_average,
)
from repro.combination.lscp import LSCP

__all__ = [
    "LSCP",
    "zscore_standardise",
    "ecdf_standardise",
    "mean_over_models",
    "average",
    "maximization",
    "aom",
    "moa",
    "weighted_average",
]
