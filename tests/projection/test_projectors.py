import numpy as np
import pytest

from repro.projection import (
    JL_FAMILIES,
    PROJECTION_METHODS,
    JLProjector,
    NoProjection,
    PCAProjector,
    RandomFeatureSelector,
    jl_target_dim,
    make_projector,
)
from repro.projection.jl import _draw_matrix, jl_min_dim
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(2)
    return rng.standard_normal((150, 30))


class TestJLProjector:
    @pytest.mark.parametrize("family", JL_FAMILIES)
    def test_output_shape(self, X, family):
        Z = JLProjector(10, family=family, random_state=0).fit_transform(X)
        assert Z.shape == (150, 10)

    @pytest.mark.parametrize("family", JL_FAMILIES)
    def test_deterministic(self, X, family):
        a = JLProjector(8, family=family, random_state=4).fit(X)
        b = JLProjector(8, family=family, random_state=4).fit(X)
        np.testing.assert_allclose(a.W_, b.W_)

    @pytest.mark.parametrize("family", JL_FAMILIES)
    def test_distance_preservation_statistical(self, X, family):
        # With k close to d, average pairwise distance distortion is small.
        k = 24
        Z = JLProjector(k, family=family, random_state=0).fit_transform(X)
        from repro.utils.distances import pairwise_distances

        D0 = pairwise_distances(X)
        D1 = pairwise_distances(Z)
        mask = ~np.eye(150, dtype=bool)
        ratio = D1[mask] / D0[mask]
        assert abs(np.median(ratio) - 1.0) < 0.25

    def test_transform_is_linear(self, X):
        p = JLProjector(5, random_state=0).fit(X)
        np.testing.assert_allclose(
            p.transform(X[:3] + X[3:6]),
            p.transform(X[:3]) + p.transform(X[3:6]),
            atol=1e-9,
        )

    def test_circulant_rows_are_rotations(self, X):
        p = JLProjector(6, family="circulant", random_state=0).fit(X)
        P = p.W_.T  # (k, d)
        np.testing.assert_allclose(P[1], np.roll(P[0], 1))

    def test_toeplitz_constant_diagonals(self, X):
        p = JLProjector(6, family="toeplitz", random_state=0).fit(X)
        P = p.W_.T  # (k, d)
        assert P[0, 0] == P[1, 1] == P[2, 2]
        assert P[0, 1] == P[1, 2] == P[2, 3]

    @pytest.mark.parametrize("d,k", [(1, 1), (3, 5), (5, 3), (120, 80)])
    def test_toeplitz_matches_scipy_bytes_and_strides(self, d, k):
        # SciPy is the oracle only: the same draws through
        # scipy.linalg.toeplitz give the same bytes in the same F-ordered
        # (d, k) layout, so X @ W_ takes the same BLAS path.
        from scipy.linalg import toeplitz

        W = _draw_matrix("toeplitz", d, k, np.random.default_rng(d * 1000 + k))
        rng = np.random.default_rng(d * 1000 + k)
        col = rng.standard_normal(k)
        row = rng.standard_normal(d)
        row[0] = col[0]
        ref = toeplitz(col, row).T
        assert W.shape == ref.shape == (d, k)
        assert W.strides == ref.strides
        assert W.flags.f_contiguous and ref.flags.f_contiguous
        assert W.tobytes(order="A") == ref.tobytes(order="A")

    def test_discrete_entries_pm_one(self, X):
        p = JLProjector(4, family="discrete", random_state=0).fit(X)
        assert set(np.unique(p.W_)) <= {-1.0, 1.0}

    def test_same_matrix_for_new_samples(self, X):
        p = JLProjector(5, random_state=0).fit(X)
        Z1 = p.transform(X[:10])
        Z2 = p.transform(X[:10])
        np.testing.assert_array_equal(Z1, Z2)

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            JLProjector(5, family="gaussian")

    def test_invalid_k(self, X):
        with pytest.raises(ValueError):
            JLProjector(0).fit(X)

    def test_unfitted(self, X):
        with pytest.raises(NotFittedError):
            JLProjector(5).transform(X)

    def test_feature_mismatch(self, X):
        p = JLProjector(5, random_state=0).fit(X)
        with pytest.raises(ValueError, match="features"):
            p.transform(X[:, :10])


class TestJLMinDim:
    def test_formula(self):
        assert jl_min_dim(1000, 0.3) == int(np.ceil(6 * np.log(1000) / 0.09))

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            jl_min_dim(10, 1.5)


class TestPCAProjector:
    def test_orthonormal_components(self, X):
        p = PCAProjector(5).fit(X)
        G = p.components_ @ p.components_.T
        np.testing.assert_allclose(G, np.eye(5), atol=1e-9)

    def test_variance_ratios_descending(self, X):
        p = PCAProjector(10).fit(X)
        assert (np.diff(p.explained_variance_ratio_) <= 1e-12).all()
        assert p.explained_variance_ratio_.sum() <= 1.0 + 1e-9

    def test_deterministic(self, X):
        a = PCAProjector(4).fit(X).transform(X)
        b = PCAProjector(4).fit(X).transform(X)
        np.testing.assert_allclose(a, b)

    def test_reconstruction_better_with_more_components(self, X):
        def recon_error(k):
            p = PCAProjector(k).fit(X)
            Z = p.transform(X)
            Xr = Z @ p.components_ + X.mean(axis=0)
            return ((X - Xr) ** 2).sum()

        assert recon_error(20) < recon_error(5)

    def test_k_bounds(self, X):
        with pytest.raises(ValueError):
            PCAProjector(31).fit(X)


class TestRandomFeatureSelector:
    def test_selects_original_columns(self, X):
        p = RandomFeatureSelector(7, random_state=0).fit(X)
        Z = p.transform(X)
        np.testing.assert_array_equal(Z, X[:, p.selected_features_])

    def test_sorted_unique(self, X):
        p = RandomFeatureSelector(12, random_state=1).fit(X)
        f = p.selected_features_
        assert (np.diff(f) > 0).all()

    def test_k_equals_d_keeps_all(self, X):
        p = RandomFeatureSelector(30, random_state=0).fit(X)
        np.testing.assert_array_equal(p.selected_features_, np.arange(30))


class TestNoProjectionAndFactory:
    def test_identity(self, X):
        p = NoProjection().fit(X)
        np.testing.assert_array_equal(p.transform(X), X)

    def test_jl_target_dim(self):
        assert jl_target_dim(30) == 20  # 2/3 default of Table 1
        assert jl_target_dim(3) == 2
        assert jl_target_dim(1) == 1

    @pytest.mark.parametrize("method", PROJECTION_METHODS)
    def test_factory_builds_every_method(self, X, method):
        p = make_projector(method, 10, random_state=0)
        Z = p.fit(X).transform(X)
        expected_k = 30 if method == "original" else 10
        assert Z.shape == (150, expected_k)

    def test_factory_unknown(self):
        with pytest.raises(ValueError, match="Unknown projection"):
            make_projector("umap", 5)
