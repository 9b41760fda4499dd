import numpy as np
import pytest

from repro.combination import (
    aom,
    average,
    ecdf_standardise,
    maximization,
    mean_over_models,
    moa,
    weighted_average,
    zscore_standardise,
)


@pytest.fixture
def scores(rng):
    # 4 models with very different scales.
    base = rng.random((4, 50))
    return base * np.array([1.0, 100.0, 0.01, 10.0])[:, None]


class TestZscore:
    def test_rows_zero_mean_unit_std(self, scores):
        Z = zscore_standardise(scores)
        np.testing.assert_allclose(Z.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=1), 1.0, atol=1e-9)

    def test_constant_row_handled(self):
        Z = zscore_standardise(np.ones((1, 5)))
        np.testing.assert_allclose(Z, 0.0)

    def test_ref_statistics_used(self, scores):
        ref = scores + 5.0
        Z = zscore_standardise(scores, ref=ref)
        # using ref's mean shifts everything down
        assert (Z.mean(axis=1) < 0).all()

    def test_ref_shape_mismatch(self, scores):
        with pytest.raises(ValueError):
            zscore_standardise(scores, ref=scores[:2])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            zscore_standardise(np.array([[np.nan, 1.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            zscore_standardise(np.arange(5))


class TestEcdf:
    def test_bounded_unit_interval(self, scores):
        U = ecdf_standardise(scores)
        assert (U >= 0).all() and (U <= 1).all()

    def test_self_reference_is_uniformish(self, rng):
        S = rng.random((1, 100))
        U = ecdf_standardise(S)
        assert abs(U.mean() - 0.5) < 0.02

    def test_monotone(self, rng):
        ref = rng.random((1, 50))
        q = np.sort(rng.random((1, 20)))
        U = ecdf_standardise(q, ref=ref)
        assert (np.diff(U[0]) >= 0).all()

    def test_robust_to_heavy_tail(self):
        # A single extreme train score cannot push test values beyond 1.
        ref = np.array([[0.0, 0.1, 0.2, 1e9]])
        U = ecdf_standardise(np.array([[1e12]]), ref=ref)
        assert U[0, 0] == 1.0

    def test_below_all_ref_is_zero(self):
        ref = np.array([[1.0, 2.0, 3.0]])
        assert ecdf_standardise(np.array([[0.0]]), ref=ref)[0, 0] == 0.0

    def test_tie_midpoint(self):
        ref = np.array([[1.0, 2.0, 2.0, 3.0]])
        # value 2.0: left=1, right=3 -> 0.5*(1+3)/4 = 0.5
        assert ecdf_standardise(np.array([[2.0]]), ref=ref)[0, 0] == 0.5


class TestCombiners:
    def test_average_scale_invariant_after_standardisation(self, scores):
        a = average(scores)
        b = average(scores * 7.0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_average_without_standardise(self, scores):
        np.testing.assert_allclose(
            average(scores, standardise=False), scores.mean(axis=0)
        )

    def test_maximization(self, scores):
        Z = zscore_standardise(scores)
        np.testing.assert_allclose(maximization(scores), Z.max(axis=0))

    def test_aom_moa_between_avg_and_max(self, scores):
        Z = zscore_standardise(scores)
        avg, mx = Z.mean(axis=0), Z.max(axis=0)
        a = aom(scores, n_buckets=2, random_state=0)
        m = moa(scores, n_buckets=2, random_state=0)
        assert (a >= avg - 1e-9).all() and (a <= mx + 1e-9).all()
        assert (m >= avg - 1e-9).all() and (m <= mx + 1e-9).all()

    def test_moa_single_bucket_is_average(self, scores):
        np.testing.assert_allclose(
            moa(scores, n_buckets=1, random_state=0), average(scores)
        )

    def test_aom_single_bucket_is_max(self, scores):
        np.testing.assert_allclose(
            aom(scores, n_buckets=1, random_state=0), maximization(scores)
        )

    def test_bucket_bounds(self, scores):
        with pytest.raises(ValueError):
            moa(scores, n_buckets=5, random_state=0)

    def test_weighted_average(self, scores):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        Z = zscore_standardise(scores)
        np.testing.assert_allclose(weighted_average(scores, w), Z[0])

    def test_weighted_average_validation(self, scores):
        with pytest.raises(ValueError):
            weighted_average(scores, [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_average(scores, [-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_average(scores, [0.0, 0.0, 0.0, 0.0])


class TestRowSeparableMean:
    """A row combined alone gets the bits it gets inside a batch."""

    @pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 16, 45])
    def test_one_column_equals_its_batch_column(self, rng, m):
        S = rng.random((m, 64))
        batch = mean_over_models(S)
        alone = np.array([mean_over_models(S[:, j : j + 1])[0] for j in range(64)])
        np.testing.assert_array_equal(alone, batch)
        # ... and the batch keeps numpy's own row-by-row bits.
        np.testing.assert_array_equal(batch, S.mean(axis=0))
        np.testing.assert_array_equal(average(S, standardise=False), batch)

    def test_memory_layout_does_not_change_the_bits(self, rng):
        S = rng.random((12, 30))
        np.testing.assert_array_equal(
            mean_over_models(np.asfortranarray(S)), mean_over_models(S)
        )

    def test_input_is_not_modified(self, rng):
        S = rng.random((9, 5))
        before = S.copy()
        mean_over_models(S)
        np.testing.assert_array_equal(S, before)

    def test_moa_buckets_of_eight_or_more_models(self, rng):
        S = rng.random((45, 40))  # 5 buckets of 9
        batch = moa(S, standardise=False, random_state=0)
        alone = np.array(
            [
                moa(S[:, j : j + 1], standardise=False, random_state=0)[0]
                for j in range(40)
            ]
        )
        np.testing.assert_array_equal(alone, batch)
