import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.utils.distances import pairwise_distances


@pytest.fixture
def XY(rng):
    return rng.standard_normal((20, 6)), rng.standard_normal((15, 6))


class TestPairwiseDistances:
    @pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean"])
    def test_matches_scipy(self, XY, metric):
        X, Y = XY
        ours = pairwise_distances(X, Y, metric=metric)
        ref = cdist(X, Y, metric=metric)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_self_distance_zero_diagonal(self, rng):
        X = rng.standard_normal((10, 4))
        D = pairwise_distances(X)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-7)

    def test_symmetry(self, rng):
        X = rng.standard_normal((10, 4))
        D = pairwise_distances(X)
        np.testing.assert_allclose(D, D.T, atol=1e-9)

    def test_no_negative_from_rounding(self):
        # Near-duplicate points can go negative via the dot-product trick.
        X = np.full((5, 3), 1e8)
        X[0, 0] += 1e-4
        D = pairwise_distances(X, metric="sqeuclidean")
        assert (D >= 0).all()

    @pytest.mark.parametrize("metric", ["cosine", "manhattan", "minkowski"])
    def test_unknown_metric(self, XY, metric):
        # k-NN distances of other metrics are the KD-tree kernel's own.
        with pytest.raises(ValueError, match="Unknown metric"):
            pairwise_distances(*XY, metric=metric)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="Dimension mismatch"):
            pairwise_distances(rng.random((3, 2)), rng.random((3, 3)))
