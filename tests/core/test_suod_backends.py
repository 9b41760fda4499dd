"""Cross-backend equivalence and shared-memory hygiene through SUOD.

Three contracts:

1. **Bitwise equality matrix** — every execution backend reproduces
   the sequential reference's ``decision_scores_``, score matrix, and
   test scores exactly. The engine may move bytes differently; it must
   never change them.
2. **Segment hygiene** — a fit/predict pass through the shm data plane
   leaves no ``shared_memory`` segment behind, on the happy path, when a
   stage raises mid-plan and when a pool worker is killed between calls.
3. **Removed names** — an unknown or removed backend name fails at
   construction, whatever ``n_jobs`` says, and the error names the four.
"""

import multiprocessing
import os
import pickle
import signal
import time
import warnings

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import HBOS, KNN, LOF, IsolationForest
from repro.detectors.base import BaseDetector
from repro.parallel import get_backend
from repro.pipeline import PlanRunner

SHM_DIR = "/dev/shm"
PARALLEL_BACKENDS = ["threads", "shm_processes"]
REGISTERED = ("sequential", "shm_processes", "simulated", "threads")
needs_shm_fs = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def shm_segments() -> set:
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_shm_")}


@pytest.fixture(scope="module")
def data():
    from repro.data import make_outlier_dataset, train_test_split

    X, y = make_outlier_dataset(400, 12, contamination=0.1, random_state=7)
    return train_test_split(X, y, random_state=0)


def fresh_pool():
    # KNN/LOF get JL-projected (their own spaces); HBOS/iForest are
    # RP-exempt and share the unprojected X — so the shm plane must
    # handle both distinct segments and the dedup path.
    return [
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        HBOS(n_bins=15),
        IsolationForest(n_estimators=20, random_state=0),
    ]


@pytest.fixture(scope="module")
def reference(data):
    Xtr, Xte, ytr, yte = data
    clf = SUOD(fresh_pool(), random_state=3).fit(Xtr)
    return (
        clf.decision_scores_,
        clf.decision_function_matrix(Xte),
        clf.decision_function(Xte),
    )


class FailingDetector(BaseDetector):
    """Fit always raises — drives the execute stage's exception path."""

    def _fit(self, X):
        raise RuntimeError("deliberate fit failure")

    def _score(self, X):  # pragma: no cover - never fitted
        raise AssertionError("unreachable")


class TestBitwiseEqualityMatrix:
    @pytest.mark.parametrize(
        "backend,n_jobs",
        [(b, 2) for b in (*PARALLEL_BACKENDS, "simulated")]
        # Codeblock 1's call: workers requested from the one-worker
        # default backend.
        + [("sequential", 4)],
    )
    def test_backend_matches_sequential(self, data, reference, backend, n_jobs):
        Xtr, Xte, ytr, yte = data
        ref_train, M0, s0 = reference
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clf = SUOD(
                fresh_pool(),
                random_state=3,
                n_jobs=n_jobs,
                backend=backend,
            ).fit(Xtr)
            try:
                np.testing.assert_array_equal(clf.decision_scores_, ref_train)
                np.testing.assert_array_equal(clf.decision_function_matrix(Xte), M0)
                np.testing.assert_array_equal(clf.decision_function(Xte), s0)
            finally:
                clf.close()
        ignored = [w for w in caught if "n_workers=4 is ignored" in str(w.message)]
        assert len(ignored) == (backend == "sequential")
        if backend == "sequential":
            # One worker, told once; nothing scheduled.
            assert not clf.fit_assignment_.any()
            assert clf.fit_plan_.meta["scheduler"] == "single-worker"
            assert clf.predict_plan_.report_for("schedule").info == {
                "policy": "single-worker",
                "n_tasks": clf.predict_plan_.meta["n_tasks"],
                "tasks_per_worker": [clf.predict_plan_.meta["n_tasks"]],
            }

    def test_shm_three_workers_generic_split(self, data, reference):
        Xtr, Xte, ytr, yte = data
        _, M0, s0 = reference
        clf = SUOD(
            fresh_pool(),
            random_state=3,
            n_jobs=3,
            backend="shm_processes",
            bps_flag=False,
        ).fit(Xtr)
        try:
            np.testing.assert_array_equal(clf.decision_function_matrix(Xte), M0)
            np.testing.assert_array_equal(clf.decision_function(Xte), s0)
        finally:
            clf.close()


class TestSharedMemoryHygiene:
    @needs_shm_fs
    def test_no_leaked_segments_after_fit_predict(self, data):
        Xtr, Xte, ytr, yte = data
        before = shm_segments()
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        clf.decision_function(Xte)
        clf.predict(Xte)
        clf.close()
        assert shm_segments() == before

    @needs_shm_fs
    def test_no_leaked_segments_when_fit_raises(self, data):
        Xtr, *_ = data
        before = shm_segments()
        pool = fresh_pool()[:3] + [FailingDetector()]
        clf = SUOD(pool, random_state=3, n_jobs=2, backend="shm_processes")
        with pytest.raises(RuntimeError, match="deliberate fit failure"):
            clf.fit(Xtr)
        clf.close()
        assert shm_segments() == before
        # The failed plan's arena is gone, not merely forgotten.
        assert clf.fit_plan_.context.get("arena") is None

    @needs_shm_fs
    def test_no_leaked_segments_when_predict_raises(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(),
            random_state=3,
            n_jobs=2,
            backend="shm_processes",
            approx_flag_global=False,
        ).fit(Xtr)
        before = shm_segments()
        # Sabotage one fitted detector so its scoring tasks raise.
        clf.approximators_[0].detector.decision_function = None
        with pytest.raises(TypeError):
            clf.decision_function(Xte)
        clf.close()
        assert shm_segments() == before

    @needs_shm_fs
    def test_killed_worker_is_replaced_and_leaves_nothing(self, data, reference):
        # A worker dying between calls (OOM kill, hard crash) breaks the
        # persistent pool; the next call rebuilds it and scores bitwise.
        Xtr, Xte, ytr, yte = data
        before = set(os.listdir(SHM_DIR))
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        try:
            np.testing.assert_array_equal(clf.decision_function(Xte), reference[2])
            backend = clf._backend_instance_
            old_pool = backend._workers.executor
            old = dict(old_pool._processes)
            victim = next(iter(old))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while old[victim].is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not old[victim].is_alive()
            np.testing.assert_array_equal(clf.decision_function(Xte), reference[2])
            pool = backend._workers.executor
            assert pool is not None and pool is not old_pool
            new = set(pool._processes)
            assert new and not new & set(old)
        finally:
            clf.close()
        live = {p.pid for p in multiprocessing.active_children()}
        assert not live & (set(old) | new)
        assert set(os.listdir(SHM_DIR)) - before == set()

    @needs_shm_fs
    def test_partial_plan_release_disposes_arena(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        before = shm_segments()
        plan = clf.build_predict_plan(Xte)
        PlanRunner().run(plan, until="execute")
        # Stopped before combine: the arena is still alive for resumption.
        assert plan.context.get("arena") is not None
        assert shm_segments() != before
        plan.release_data()
        assert plan.context.get("arena") is None
        assert shm_segments() == before
        clf.close()


class TestPlanShmLifecycle:
    def test_schedule_preview_builds_no_arena(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes")
        plan = clf.build_fit_plan(Xtr)
        assert plan.shm_keys == ("spaces",)
        assert plan.meta["shm"] is True
        PlanRunner().run(plan, until="schedule")
        assert plan.context.get("arena") is None
        plan.release_data()

    def test_completed_plan_disposes_arena_and_reports_segments(self, data):
        Xtr, *_ = data
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        plan = clf.fit_plan_
        assert plan.context.get("arena") is None
        assert plan.context.get("shared_spaces") is None
        shm_info = plan.report_for("execute").info["shm"]
        # KNN + LOF spaces are distinct; HBOS + iForest share X: 3 segments.
        assert shm_info["segments"] == 3
        assert shm_info["bytes"] > 0
        clf.close()

    def test_in_memory_backends_have_no_shm_keys(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), random_state=3, n_jobs=2, backend="threads")
        plan = clf.build_fit_plan(Xtr)
        assert plan.shm_keys == ()
        assert plan.meta["shm"] is False

    def test_backend_instance_reused_across_fit_and_predict(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        backend = clf._backend_instance_
        pool = backend._workers.executor
        assert pool is not None
        clf.decision_function(Xte)
        assert clf._backend_instance_ is backend
        assert backend._workers.executor is pool
        clf.close()
        assert clf._backend_instance_ is None

    def test_pickle_drops_live_pool_but_scores_survive(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(), random_state=3, n_jobs=2, backend="shm_processes"
        ).fit(Xtr)
        s0 = clf.decision_function(Xte)
        blob = pickle.dumps(clf)
        clf.close()
        clone = pickle.loads(blob)
        assert getattr(clone, "_backend_instance_", None) is None
        np.testing.assert_array_equal(clone.decision_function(Xte), s0)
        clone.close()


class TestBackendNames:
    @pytest.mark.parametrize("name", ["processes", "work_stealing"])
    def test_removed_backend_names_raise_naming_the_four(self, name):
        for make in (
            lambda: get_backend(name, 2),
            lambda: SUOD(fresh_pool(), n_jobs=2, backend=name),
        ):
            with pytest.raises(ValueError, match=f"Unknown backend {name!r}") as exc:
                make()
            for kept in REGISTERED:
                assert repr(kept) in str(exc.value)

    def test_unknown_backend_rejected_at_one_worker(self):
        # n_jobs=1 never looks the backend up while fitting; the
        # constructor must, or a typo fits and scores silently.
        with pytest.raises(ValueError, match="Unknown backend 'nonsense'"):
            SUOD(fresh_pool(), backend="nonsense")
