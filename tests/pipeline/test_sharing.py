"""Shared-computation plane: derivation, bitwise parity, shm hygiene.

The contract under test: with ``share_flag=True`` the ``share`` stage
folds every KD-tree build and neighbor query with the same
``(space, metric)`` resource key into one producer task, and every
score the ensemble emits — train scores, combined scores, predict
matrices, chunked or not, on any backend — is **bitwise identical** to
the fully redundant ``share_flag=False`` run. The parity matrix here
sweeps backends × heterogeneous k × distinct spaces; the shm tests pin
that published producer results never outlive their plan, on happy and
failing paths alike.
"""

import os

import numpy as np
import pytest

from repro import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import ABOD, HBOS, KNN, LOF, AvgKNN, LoOP
from repro.neighbors import kdtree_build_count
from repro.pipeline.sharing import derive_fit_sharing
from repro.supervised import RandomForestRegressor

# n >= 256 so the auto engine resolves to kd_tree (the sharable regime).
N_TRAIN, N_TEST, D = 320, 96, 6


def neighbor_pool():
    """Heterogeneous k across four neighbor families, plus a histogram
    detector that must pass through the share stage untouched."""
    return [
        KNN(n_neighbors=5),
        AvgKNN(n_neighbors=12),
        LOF(n_neighbors=9),
        LoOP(n_neighbors=7),
        ABOD(n_neighbors=10),
        HBOS(n_bins=12),
    ]


@pytest.fixture(scope="module")
def data():
    Xtr, _ = make_outlier_dataset(
        n_samples=N_TRAIN, n_features=D, contamination=0.1, random_state=5
    )
    Xte, _ = make_outlier_dataset(
        n_samples=N_TEST, n_features=D, contamination=0.1, random_state=6
    )
    return Xtr, Xte


def fit_predict(Xtr, Xte, *, share, backend="sequential", n_jobs=1, **kw):
    clf = SUOD(
        neighbor_pool(),
        share_flag=share,
        backend=backend,
        n_jobs=n_jobs,
        rp_flag_global=False,
        approx_flag_global=False,
        contamination=0.1,
        random_state=0,
        **kw,
    ).fit(Xtr)
    matrix = clf.decision_function_matrix(Xte)
    scores = clf.decision_function(Xte)
    return clf, matrix, scores


def assert_bitwise_equal(shared_run, redundant_run):
    clf_s, matrix_s, scores_s = shared_run
    clf_r, matrix_r, scores_r = redundant_run
    assert np.array_equal(clf_s.train_score_matrix_, clf_r.train_score_matrix_)
    assert np.array_equal(clf_s.decision_scores_, clf_r.decision_scores_)
    assert np.array_equal(matrix_s, matrix_r)
    assert np.array_equal(scores_s, scores_r)


def shm_segments() -> set:
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro_shm")}


# ---------------------------------------------------------------------------
# Derivation: resource keys, folding, and space isolation
# ---------------------------------------------------------------------------
class TestDerivation:
    def test_same_space_folds_to_one_query(self, data):
        Xtr, _ = data
        models = neighbor_pool()
        spaces = [Xtr] * len(models)
        plan = derive_fit_sharing(models, spaces)
        assert plan.active
        assert len(plan.queries) == 1
        query = plan.queries[0]
        assert sorted(query.consumers) == [0, 1, 2, 3, 4]  # HBOS excluded
        assert sorted(query.ks) == [5, 7, 9, 10, 12]
        # Fit queries self-exclude, so the fused width carries slack.
        assert query.width == max(query.ks) + 1
        assert plan.consumer_of == {i: 0 for i in range(5)}
        summary = plan.summary()
        assert summary["n_tasks_before"] == 6
        assert summary["n_tasks_after"] == 7
        assert summary["structures_built"] == 1
        assert summary["queries_fused"] == 5
        assert summary["bytes_published"] == query.result_bytes > 0

    def test_equal_values_distinct_objects_never_cross(self, data):
        # Per-space keying is object identity: two spaces with EQUAL
        # contents but distinct identities (feature-bagged / projected
        # subspaces) must form separate groups — a fused query may never
        # serve rows from another space.
        Xtr, _ = data
        space_a = Xtr.copy()
        space_b = Xtr.copy()
        assert np.array_equal(space_a, space_b)
        models = [KNN(5), AvgKNN(12), LOF(9), LoOP(7)]
        spaces = [space_a, space_a, space_b, space_b]
        plan = derive_fit_sharing(models, spaces)
        assert len(plan.queries) == 2
        groups = [sorted(q.consumers) for q in plan.queries]
        assert sorted(groups) == [[0, 1], [2, 3]]
        for query in plan.queries:
            assert len({id(spaces[i]) for i in query.consumers}) == 1

    def test_single_consumer_groups_are_dropped(self, data):
        Xtr, _ = data
        plan = derive_fit_sharing([KNN(5), HBOS()], [Xtr, Xtr])
        assert not plan.active
        assert plan.summary()["structures_built"] == 0

    def test_brute_regime_is_not_shared(self):
        # Below the KD-tree row floor argpartition tie order is
        # k-dependent, so the prefix-slice contract does not hold and
        # derivation must refuse to fuse.
        X = np.random.default_rng(0).normal(size=(120, 4))
        plan = derive_fit_sharing([KNN(5), AvgKNN(8)], [X, X])
        assert not plan.active


# ---------------------------------------------------------------------------
# Bitwise parity: shared vs redundant across the backend matrix
# ---------------------------------------------------------------------------
class TestParityMatrix:
    @pytest.fixture(scope="class")
    def redundant(self, data):
        Xtr, Xte = data
        return fit_predict(Xtr, Xte, share=False)

    def test_sequential_parity_and_build_count(self, data, redundant):
        Xtr, Xte = data
        before = kdtree_build_count()
        shared = fit_predict(Xtr, Xte, share=True)
        clf = shared[0]
        # Exactly one build per distinct (space, metric) key — here 1 —
        # across fit AND both predict calls (the injected index serves
        # every later query).
        assert kdtree_build_count() - before == 1
        assert clf.sharing_fit_info_["structures_built"] == 1
        assert clf.sharing_fit_info_["queries_fused"] == 5
        assert clf.sharing_predict_info_["structures_built"] == 1
        assert_bitwise_equal(shared, redundant)

    @pytest.mark.parametrize("backend", ["threads", "shm_processes"])
    def test_parallel_backend_parity(self, data, redundant, backend):
        Xtr, Xte = data
        shared = fit_predict(Xtr, Xte, share=True, backend=backend, n_jobs=3)
        try:
            assert_bitwise_equal(shared, redundant)
        finally:
            shared[0].close()

    @pytest.mark.parametrize("backend", ["threads", "shm_processes"])
    def test_chunked_predict_parity(self, data, redundant, backend):
        # batch_size forces (model x chunk) grain: shared consumers run
        # through score_task's row-slice path.
        Xtr, Xte = data
        shared = fit_predict(
            Xtr, Xte, share=True, backend=backend, n_jobs=2, batch_size=40
        )
        try:
            assert_bitwise_equal(shared, redundant)
        finally:
            shared[0].close()

    def test_projected_spaces_stay_private_but_bitwise_equal(self):
        # RP gives every neighbor model its own space object, so no
        # group reaches two consumers: sharing derives to inactive and
        # scores still match the redundant run bitwise.
        Xtr, _ = make_outlier_dataset(
            n_samples=300, n_features=12, contamination=0.1, random_state=7
        )
        Xte, _ = make_outlier_dataset(
            n_samples=80, n_features=12, contamination=0.1, random_state=8
        )

        def run(share):
            clf = SUOD(
                [KNN(5), AvgKNN(12), LOF(9), LoOP(7)],
                share_flag=share,
                rp_flag_global=True,
                approx_flag_global=False,
                random_state=3,
            ).fit(Xtr)
            return clf, clf.decision_function_matrix(Xte)

        clf_s, matrix_s = run(True)
        clf_r, matrix_r = run(False)
        assert clf_s.sharing_fit_info_["structures_built"] == 0
        assert np.array_equal(clf_s.decision_scores_, clf_r.decision_scores_)
        assert np.array_equal(matrix_s, matrix_r)

    def test_share_flag_off_reports_disabled(self, redundant):
        assert redundant[0].sharing_fit_info_ == {"sharing": "disabled"}


# ---------------------------------------------------------------------------
# /dev/shm hygiene: published producer results die with their plan
# ---------------------------------------------------------------------------
class Saboteur(KNN):
    """A sharing-group member that raises where ``explode_in`` says.

    The switch is instance state, so it travels with the pickled task
    to process workers and can be flipped between calls.
    """

    explode_in = None

    def _fit(self, X):
        if self.explode_in == "fit":
            raise RuntimeError("detector fit exploded")
        return super()._fit(X)

    def _score(self, X):
        if self.explode_in == "score":
            raise RuntimeError("score task exploded")
        return super()._score(X)


class ExplodingForest(RandomForestRegressor):
    """Approximator prototype whose tree blocks fail while ``armed``."""

    armed = True

    def fit_block(self, X, y, seeds):
        if self.armed:
            raise RuntimeError("PSA block exploded")
        return super().fit_block(X, y, seeds)


def exploding_index_build(X, metric="euclidean"):
    raise RuntimeError("fit producer exploded")


#: wave -> (plan that fails, last stage that completed, error pattern)
FAILING_WAVES = {
    "fit producer": ("fit", "schedule", "fit producer exploded"),
    "predict producer": ("predict", "schedule", "NoneType"),
    "detector fit": ("fit", "schedule", "detector fit exploded"),
    "score task": ("predict", "schedule", "score task exploded"),
    "score chunk": ("predict", "schedule", "score task exploded"),
    "PSA block": ("fit", "execute", "PSA block exploded"),
}


class TestShmHygiene:
    def test_happy_path_leaves_no_segments(self, data):
        Xtr, Xte = data
        before = shm_segments()
        clf, _, _ = fit_predict(
            Xtr, Xte, share=True, backend="shm_processes", n_jobs=2
        )
        clf.close()
        assert shm_segments() == before

    @pytest.mark.parametrize("backend", ["sequential", "threads", "shm_processes"])
    @pytest.mark.parametrize("wave", list(FAILING_WAVES))
    def test_failing_task_surfaces_and_leaves_no_segments(
        self, data, monkeypatch, wave, backend
    ):
        # Every wave goes through the one runner: whichever task fails,
        # on whichever backend, its own exception surfaces, the plan's
        # arena (spaces + published neighbour pairs) is torn down with
        # it, and the estimator stays usable.
        Xtr, Xte = data
        kind, last_done, message = FAILING_WAVES[wave]
        before = shm_segments()
        saboteur, forest = Saboteur(9), ExplodingForest(n_estimators=4, random_state=0)
        clf = SUOD(
            [KNN(5), AvgKNN(12), saboteur],
            backend=backend,
            n_jobs=1 if backend == "sequential" else 2,
            rp_flag_global=False,
            approx_flag_global=wave == "PSA block",
            approx_clf=forest,
            batch_size=40 if wave == "score chunk" else None,
            random_state=0,
        )
        forest.armed = wave == "PSA block"
        if wave == "detector fit":
            saboteur.explode_in = "fit"
        with monkeypatch.context() as patch:
            if wave == "fit producer":
                patch.setattr(
                    "repro.pipeline.sharing.build_shared_index", exploding_index_build
                )
            if kind == "predict":
                clf.fit(Xtr)
                if wave == "predict producer":
                    patch.setattr(clf.shared_index_[0], "_tree", None)
                else:
                    # The fitted copy: process workers hand back new objects.
                    clf.base_estimators_[2].explode_in = "score"
            with pytest.raises((RuntimeError, AttributeError), match=message):
                clf.fit(Xtr) if kind == "fit" else clf.decision_function(Xte)
        plan = clf.fit_plan_ if kind == "fit" else clf.predict_plan_
        assert plan.completed[-1] == last_done  # the failing stage left no report
        assert plan.context.get("arena") is None
        assert plan.context.get("shared_spaces") is None
        if kind == "fit":
            assert not hasattr(clf, "decision_scores_")
        clf.close()
        assert shm_segments() == before
        # Disarmed, the same estimator fits and scores.
        saboteur.explode_in, forest.armed = None, False
        try:
            assert np.isfinite(clf.fit(Xtr).decision_function(Xte)).all()
        finally:
            clf.close()
        assert shm_segments() == before
