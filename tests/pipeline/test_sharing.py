"""Shared-computation plane: derivation, bitwise parity, shm hygiene.

The contract under test: the ``share`` stage folds every KD-tree build
and neighbor query with the same ``(space, order)`` resource key into
one producer task, and every raw score the ensemble emits — train and
predict matrices, on any backend, in any dimension — is
**bitwise identical** to each detector fitted standalone on the same
space (with RP off every model sees ``X`` itself; with RP on, its own
projection); combined scores agree across backends. The parity matrix
here sweeps backends × heterogeneous k × distinct spaces; the shm tests
pin that published producer results never outlive their plan, on happy
and failing paths alike.
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


def metric_pool():
    """Two groups of non-Euclidean LOFs, and the paper grid's
    ``KNN(metric='minkowski')`` (p = 2) beside a Euclidean KNN: three
    distinct (space, order) keys on one space."""
    return [
        LOF(n_neighbors=9, metric="manhattan"),
        LOF(n_neighbors=5, metric="manhattan"),
        LOF(n_neighbors=12, metric="minkowski", p=3.0),
        LOF(n_neighbors=7, metric="minkowski", p=3.0),
        KNN(n_neighbors=6, metric="minkowski"),
        KNN(n_neighbors=8),
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


def fit_predict(Xtr, Xte, *, pool=neighbor_pool, **kw):
    options = dict(rp_flag_global=False, approx_flag_global=False, random_state=0)
    clf = SUOD(pool(), contamination=0.1, **{**options, **kw}).fit(Xtr)
    matrix = clf.decision_function_matrix(Xte)
    scores = clf.decision_function(Xte)
    return clf, matrix, scores


def standalone_matrices(pool, Xtr, Xte, spaces=None):
    """The parity oracle: each detector fitted on its own, on the space
    the ensemble gives it (``spaces`` maps a model index and rows to
    that space; ``X`` itself by default), stacked as raw score rows."""
    spaces = spaces or (lambda i, X: X)
    dets = [det.fit(spaces(i, Xtr)) for i, det in enumerate(pool())]
    train = np.stack([det.decision_scores_ for det in dets])
    test = np.stack(
        [det.decision_function(spaces(i, Xte)) for i, det in enumerate(dets)]
    )
    return train, test


def assert_matches_standalone(run, standalone):
    clf, matrix, _ = run
    train, test = standalone
    assert np.array_equal(clf.train_score_matrix_, train)
    assert np.array_equal(matrix, test)


def assert_same_ensemble(run_a, run_b):
    assert np.array_equal(run_a[0].decision_scores_, run_b[0].decision_scores_)
    assert np.array_equal(run_a[2], run_b[2])


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

    def test_groups_key_on_the_minkowski_order(self, data):
        # Metric names that spell one order fold into one group.
        Xtr, _ = data
        models = metric_pool() + [LOF(4, metric="minkowski", p=1.0)]
        plan = derive_fit_sharing(models, [Xtr] * len(models))
        groups = {q.order: sorted(q.consumers) for q in plan.queries}
        assert groups == {1.0: [0, 1, 6], 3.0: [2, 3], 2.0: [4, 5]}


# ---------------------------------------------------------------------------
# Bitwise parity: shared vs standalone across the backend matrix
# ---------------------------------------------------------------------------
class TestParityMatrix:
    @pytest.fixture(scope="class")
    def standalone(self, data):
        return standalone_matrices(neighbor_pool, *data)

    @pytest.fixture(scope="class")
    def sequential(self, data):
        return fit_predict(*data)

    def test_sequential_parity_and_build_count(self, data, standalone):
        Xtr, Xte = data
        before = kdtree_build_count()
        shared = fit_predict(Xtr, Xte)
        clf = shared[0]
        # Exactly one build per distinct (space, order) key — here 1 —
        # across fit AND both predict calls (the injected index serves
        # every later query).
        assert kdtree_build_count() - before == 1
        assert clf.sharing_fit_info_["structures_built"] == 1
        assert clf.sharing_fit_info_["queries_fused"] == 5
        assert clf.sharing_predict_info_["structures_built"] == 1
        assert_matches_standalone(shared, standalone)

    @pytest.mark.parametrize("backend", ["threads", "shm_processes"])
    def test_parallel_backend_parity(self, data, standalone, sequential, backend):
        Xtr, Xte = data
        shared = fit_predict(Xtr, Xte, backend=backend, n_jobs=3)
        try:
            assert_matches_standalone(shared, standalone)
            assert_same_ensemble(shared, sequential)
        finally:
            shared[0].close()

    @pytest.mark.parametrize("backend", ["sequential", "threads", "shm_processes"])
    def test_every_metric_shares_bitwise(self, data, backend):
        # One build per distinct (space, order) key across fit and
        # predict (process-pool builds are invisible to this counter),
        # and every raw score is the standalone detector's.
        Xtr, Xte = data
        before = kdtree_build_count()
        n_jobs = 1 if backend == "sequential" else 3
        run = fit_predict(Xtr, Xte, pool=metric_pool, backend=backend, n_jobs=n_jobs)
        try:
            if backend != "shm_processes":
                assert kdtree_build_count() - before == 3
            for info in (run[0].sharing_fit_info_, run[0].sharing_predict_info_):
                assert info["structures_built"] == 3
                assert info["queries_fused"] == 6
            assert_matches_standalone(run, standalone_matrices(metric_pool, *data))
        finally:
            run[0].close()

    def test_projected_spaces_stay_private_but_bitwise_equal(self):
        # RP gives every neighbor model its own space object, so no
        # group reaches two consumers: sharing derives to inactive and
        # each model scores as it does standalone on its projection.
        Xtr, _ = make_outlier_dataset(
            n_samples=300, n_features=12, contamination=0.1, random_state=7
        )
        Xte, _ = make_outlier_dataset(
            n_samples=80, n_features=12, contamination=0.1, random_state=8
        )

        def pool():
            return [KNN(5), AvgKNN(12), LOF(9), LoOP(7)]

        run = fit_predict(Xtr, Xte, pool=pool, rp_flag_global=True, random_state=3)
        clf = run[0]
        assert clf.rp_flags_.all()
        assert clf.sharing_fit_info_["structures_built"] == 0
        projected = standalone_matrices(
            pool, Xtr, Xte, lambda i, X: clf.projectors_[i].transform(X)
        )
        assert_matches_standalone(run, projected)

    def test_high_d_pool_folds_into_one_producer(self):
        # d = 40 with RP off: every neighbor detector reads the same
        # space, so fit and predict each fold into one producer — and
        # every raw score is still the standalone detector's.
        rng = np.random.default_rng(40)
        Xtr, Xte = rng.standard_normal((300, 40)), rng.standard_normal((60, 40))
        before = kdtree_build_count()
        run = fit_predict(Xtr, Xte)
        assert kdtree_build_count() - before == 1
        for info in (run[0].sharing_fit_info_, run[0].sharing_predict_info_):
            assert info["structures_built"] == 1
            assert info["queries_fused"] == 5
        assert_matches_standalone(run, standalone_matrices(neighbor_pool, Xtr, Xte))


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


def exploding_index_build(X, order=2.0):
    raise RuntimeError("fit producer exploded")


#: wave -> (plan that fails, last stage that completed, error pattern)
FAILING_WAVES = {
    "fit producer": ("fit", "schedule", "fit producer exploded"),
    "predict producer": ("predict", "schedule", "'str' object has no attribute"),
    "detector fit": ("fit", "schedule", "detector fit exploded"),
    "score task": ("predict", "schedule", "score task exploded"),
    "PSA block": ("fit", "execute", "PSA block exploded"),
}


class TestShmHygiene:
    def test_happy_path_leaves_no_segments(self, data):
        Xtr, Xte = data
        before = shm_segments()
        clf, _, _ = fit_predict(Xtr, Xte, backend="shm_processes", n_jobs=2)
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
                    # Breaks the producer: its index's query raises.
                    patch.setattr(clf.shared_index_[0], "_tree", "no tree")
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
