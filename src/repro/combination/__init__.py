"""Outlier-score combination methods (Aggarwal & Sathe, 2017).

The paper evaluates the full system with simple averaging (``Avg``) and
maximum-of-average (``MOA``) over the standardised base-model scores
(Table 5); these and maximization are SUOD's three combiners. LSCP is
the paper's future-work dynamic selection over the same pool.
"""

from repro.combination.methods import (
    zscore_standardise,
    ecdf_standardise,
    mean_over_models,
    average,
    maximization,
    moa,
)
from repro.combination.lscp import LSCP

__all__ = [
    "LSCP",
    "zscore_standardise",
    "ecdf_standardise",
    "mean_over_models",
    "average",
    "maximization",
    "moa",
]
