import numpy as np
import pytest

from repro.kernels.reference import brute_force_kneighbors
from repro.neighbors import NearestNeighbors
from repro.utils.validation import NotFittedError


class TestNearestNeighbors:
    def test_distances_match_brute_force(self, rng):
        X = rng.standard_normal((400, 5))
        Q = rng.standard_normal((30, 5))
        d_t, _ = NearestNeighbors(5).fit(X).kneighbors(Q)
        d_b, _ = brute_force_kneighbors(X, Q, 5)
        np.testing.assert_allclose(d_b, d_t, rtol=1e-7, atol=1e-7)

    def test_algorithm_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            NearestNeighbors(3, algorithm="brute")

    def test_self_query_excludes_self(self, rng):
        X = rng.standard_normal((40, 3))
        _, i = NearestNeighbors(2).fit(X).kneighbors()
        assert not (i == np.arange(40)[:, None]).any()

    def test_n_neighbors_override(self, rng):
        X = rng.standard_normal((40, 3))
        d, _ = NearestNeighbors(2).fit(X).kneighbors(X[:3], n_neighbors=7)
        assert d.shape == (3, 7)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            NearestNeighbors().kneighbors(np.ones((2, 2)))

    def test_feature_mismatch(self, rng):
        nn = NearestNeighbors(2).fit(rng.standard_normal((10, 3)))
        with pytest.raises(ValueError, match="features"):
            nn.kneighbors(rng.standard_normal((2, 4)))
