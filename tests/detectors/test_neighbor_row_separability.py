"""Neighbour detectors are row-separable in high dimensions.

A served row must score exactly as it does offline, whatever batch it
arrives in. Every neighbour query, under every metric, runs the KD-tree
kernel, whose answer is a pure function of the data, so KNN, LOF, LoOP
and ABOD at d = 40 — the regime RP leaves them in — score each row
identically alone, in pairs and in the full batch; so do KNN and LOF
under the paper grid's other metrics.
"""

import numpy as np
import pytest

from repro.detectors import ABOD, KNN, LOF, AvgKNN, LoOP

D = 40


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(40)
    return rng.standard_normal((400, D)), rng.standard_normal((64, D))


@pytest.mark.parametrize(
    "make",
    [
        lambda: KNN(n_neighbors=10),
        lambda: AvgKNN(n_neighbors=15),
        lambda: LOF(n_neighbors=20),
        lambda: LoOP(n_neighbors=20),
        lambda: ABOD(n_neighbors=10),
        lambda: KNN(n_neighbors=10, metric="manhattan"),
        lambda: KNN(n_neighbors=10, metric="chebyshev"),
        lambda: KNN(n_neighbors=10, metric="minkowski"),
        lambda: LOF(n_neighbors=20, metric="manhattan"),
        lambda: LOF(n_neighbors=20, metric="chebyshev"),
        lambda: LOF(n_neighbors=20, metric="minkowski", p=3.0),
    ],
    ids=[
        "KNN",
        "AvgKNN",
        "LOF",
        "LoOP",
        "ABOD",
        "KNN-manhattan",
        "KNN-chebyshev",
        "KNN-minkowski",
        "LOF-manhattan",
        "LOF-chebyshev",
        "LOF-minkowski-p3",
    ],
)
def test_rows_score_alone_in_pairs_and_in_the_batch(data, make):
    X, Q = data
    det = make().fit(X)
    full = det.decision_function(Q)
    for width in (1, 2):
        for lo in range(0, len(Q), width):
            part = det.decision_function(Q[lo : lo + width])
            np.testing.assert_array_equal(part, full[lo : lo + width])
