"""Both block engines vs the frozen best-first oracle, bitwise.

The answer of a KD-tree query is "the k lexicographically smallest
(distance, index) pairs under the elementwise distance" — a pure
function of the data. The filter–refine scan and the pruned sweep are
two ways of finding candidates for the one exact selection, so each must
agree with the per-query oracle (``repro.kernels.reference``) to the
last bit: on tie-heavy inputs where every selection boundary is
degenerate, on inputs built to break the GEMM form of the filter
(cancellation, scaling, under- and overflow), for every batch shape, in
float64 and on ``cast(float32)`` trees.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import KNN, LOF
from repro.kernels import neighbors as kn
from repro.kernels.reference import kdtree_query_best_first, kdtree_query_heap
from repro.memory.arena import release_mappings
from repro.neighbors import KDTree, brute_force_kneighbors
from repro.utils.persistence import load_ensemble, read_ensemble_header, save_ensemble

ENGINES = kn._BLOCK_ENGINES


def _assert_identical(pair_a, pair_b):
    np.testing.assert_array_equal(pair_a[0], pair_b[0])
    np.testing.assert_array_equal(pair_a[1], pair_b[1])


def _check(tree, Q, k, *, exclude_self=False, block_rows=1024):
    """Oracle, both forced engines and the public entry agree bitwise."""
    Q = np.asarray(Q, dtype=tree._data.dtype)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # Overflowing squares warn inside the (frozen) oracle's scan.
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = kdtree_query_best_first(tree, Q, k, exclude_self=exclude_self)
        for run in ENGINES.values():
            got = kn._query_blocks(run, tree, Q, k, exclude_self, block_rows)
            assert got[0].dtype == tree._data.dtype
            _assert_identical(got, ref)
        _assert_identical(tree.query(Q, k, exclude_self=exclude_self), ref)
    return ref


def _trees(X, leaf_size):
    """The float64 tree and its float32 serving cast."""
    tree = KDTree(X, leaf_size=leaf_size)
    with np.errstate(over="ignore"):
        return [tree, tree.cast(np.float32)]


class TestEnginesMatchOracle:
    @pytest.mark.parametrize(
        "n,d,k,leaf",
        [(300, 3, 5, 16), (1000, 6, 10, 40), (64, 2, 2, 1), (700, 12, 16, 40)],
    )
    def test_random_data(self, rng, n, d, k, leaf):
        X = rng.standard_normal((n, d))
        Q = rng.standard_normal((53, d))
        for tree in _trees(X, leaf):
            _check(tree, Q, k)

    def test_exclude_self(self, rng):
        X = rng.standard_normal((200, 4))
        for tree in _trees(X, 8):
            _, idx = _check(tree, X, 6, exclude_self=True)
            assert not (idx == np.arange(200)[:, None]).any()

    def test_block_boundaries(self, rng):
        # Query counts that do not divide the block size, and a block
        # size smaller than the query count, must not change answers.
        X = rng.standard_normal((400, 3))
        tree = KDTree(X, leaf_size=16)
        Q = rng.standard_normal((45, 3))
        for block in (1, 7, 44, 45, 46, 1024):
            _check(tree, Q, 7, block_rows=block)

    def test_exclude_self_across_blocks(self, rng):
        # Self-indices are global row numbers; a block offset must not
        # shift them.
        X = rng.standard_normal((150, 3))
        _check(KDTree(X, leaf_size=8), X, 4, exclude_self=True, block_rows=31)

    def test_scan_slab_boundaries(self, rng, monkeypatch):
        # The scan filters a block in slabs of _SCAN_BLOCK cells; slab
        # edges (block +- 1 rows) must not show, nor shift self columns.
        X = rng.standard_normal((300, 4))
        tree = KDTree(X, leaf_size=16)
        monkeypatch.setattr(kn, "_SCAN_BLOCK", 16 * 300)
        for q in (1, 2, 15, 16, 17, 31, 32, 33):
            _check(tree, rng.standard_normal((q, 4)), 9)
        _check(tree, X, 9, exclude_self=True)
        # Every cell survives an overflowing filter: the survivors are
        # refined slab by slab instead of all at once.
        huge = KDTree(1e155 * X, leaf_size=16)
        _check(huge, 1e155 * X[:40] * 1.01, 9)
        _check(huge, 1e155 * X, 9, exclude_self=True)

    def test_k_against_leaf_occupancy(self, rng):
        # Median splits of 200 rows at leaf_size 16 give 12-13 rows per
        # leaf: k just under, at and over the home leaf's occupancy
        # moves the sweep's seed node one level up.
        X = rng.standard_normal((200, 3))
        for tree in _trees(X, 16):
            for k in (1, 11, 12, 13, 14, 26):
                _check(tree, X[:40] + 0.01, k)
                _check(tree, X, k, exclude_self=True)

    def test_k_extremes(self, rng):
        X = rng.standard_normal((40, 3))
        for tree in _trees(X, 4):
            _check(tree, rng.standard_normal((20, 3)), 40)
            _check(tree, X, 39, exclude_self=True)

    def test_one_dimensional(self, rng):
        X = rng.standard_normal((500, 1))
        _check(KDTree(X, leaf_size=8), X[:60], 5)

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0]]))
        _check(tree, np.array([[0.0, 0.0], [1.0, 2.0]]), 1)

    def test_mode_spellings(self, rng):
        # 'auto' and 'batched' are one code path; 'single' moved to
        # repro.kernels.reference.
        tree = KDTree(rng.standard_normal((300, 3)), leaf_size=16)
        Q = rng.standard_normal((20, 3))
        _assert_identical(tree.query(Q, 5), tree.query(Q, 5, mode="batched"))
        for mode in ("single", "heap"):
            with pytest.raises(ValueError, match="mode"):
                tree.query(Q, 2, mode=mode)

    def test_row_separable(self, rng):
        # Every query row scored alone, in pairs and in the full batch
        # returns identical bytes (ROADMAP: row separability, stated
        # for this layer).
        X = rng.standard_normal((500, 8))
        Q = rng.standard_normal((24, 8))
        tree = KDTree(X)
        for run in ENGINES.values():
            full = kn._query_blocks(run, tree, Q, 12, False, 1024)
            for width in (1, 2):
                for lo in range(0, len(Q), width):
                    rows = slice(lo, lo + width)
                    part = kn._query_blocks(run, tree, Q[rows], 12, False, 1024)
                    _assert_identical(part, (full[0][rows], full[1][rows]))

    def test_randomized_shapes(self):
        # Seeded sweep over (n, d, k, leaf): shapes no hand-written case
        # names.
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(2, 400))
            d = int(rng.integers(1, 13))
            leaf = int(rng.choice([1, 3, 8, 40]))
            X = rng.standard_normal((n, d))
            if rng.random() < 0.3:
                X = np.round(X)  # ties
            tree = KDTree(X, leaf_size=leaf)
            if rng.random() < 0.3:
                tree = tree.cast(np.float32)
            k = int(rng.integers(1, n + 1))
            _check(tree, rng.standard_normal((int(rng.integers(1, 40)), d)), k)
            if n > 1:
                _check(tree, X, min(k, n - 1), exclude_self=True, block_rows=17)


class TestDistanceTies:
    """Degenerate inputs where every k-th boundary is a tie."""

    def test_duplicate_groups(self, rng):
        base = rng.standard_normal((15, 2))
        X = np.repeat(base, 6, axis=0)
        for tree in _trees(X, 4):
            _, idx = _check(tree, X[:40], 8, block_rows=9)
            # Canonical rule: the six zero-distance duplicates of each
            # query are returned smallest-index-first.
            np.testing.assert_array_equal(idx[0, :6], np.arange(6))
            _check(tree, X, 7, exclude_self=True, block_rows=13)

    @pytest.mark.parametrize("k", [1, 4, 12, 37])
    def test_integer_lattice_with_tenfold_duplicates(self, k):
        # A lattice makes split-plane bounds exactly equal true
        # distances (the non-strict pruning boundary) and makes the
        # filter's k-th value a many-way tie.
        g = np.stack(
            np.meshgrid(np.arange(6.0), np.arange(6.0), np.arange(3.0)),
            axis=-1,
        ).reshape(-1, 3)
        X = np.concatenate([g] * 10)
        for tree in _trees(X, 5):
            _check(tree, g, k, block_rows=11)
            _check(tree, X[:300], k)
        _check(KDTree(X, leaf_size=5), X, k, exclude_self=True)

    @pytest.mark.parametrize("cloud", ["half_integer_lattice", "offset"])
    def test_low_d_bound_ties_in_float32(self, cloud):
        # d=2, float32: a subtree's split-plane bound ties the k-th
        # distance only if it rounds as the distance does — a float64
        # bound sits a hair above a float32 distance that rounded down
        # and prunes the tied smaller-index row.
        rng = np.random.default_rng(5)
        for n, k in ((334, 15), (200, 6), (480, 30)):
            if cloud == "offset":
                # float32 spacing at 1e6 is 1/16: a cast cloud is a lattice
                X = 1e6 + rng.standard_normal((n, 2))
            else:
                X = np.round(rng.standard_normal((n, 2)) * 4) / 2
            for tree in _trees(X, 8):
                _check(tree, X, k, exclude_self=True)

    def test_all_identical_points(self):
        X = np.ones((40, 3))
        for tree in _trees(X, 8):
            dist, idx = _check(tree, X[:10], 5)
            np.testing.assert_array_equal(dist, 0.0)
            np.testing.assert_array_equal(idx, np.arange(5)[None, :].repeat(10, 0))


class TestAdversarialScales:
    """Inputs built against the GEMM form ``|q|^2 + |x|^2 - 2 q.x``."""

    def test_far_offset_clouds(self, rng):
        # Uncentred, the three terms are ~1e16 and their sum ~1: every
        # digit of the filter value would be rounding noise.
        for offset, spread in ((1e8, 1.0), (1e6, 1e-3)):
            X = offset + spread * rng.standard_normal((500, 4))
            for tree in _trees(X, 16):
                _check(tree, X[:40] + 0.1 * spread, 7)
                _check(tree, X, 7, exclude_self=True)

    def test_one_coordinate_scaled(self, rng):
        X = rng.standard_normal((500, 4))
        X[:, 2] *= 1e12
        for tree in _trees(X, 16):
            _check(tree, X[:40] * 1.01, 7)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_squares_underflow(self, rng, dtype):
        # Squares land in the subnormal range: the filter's relative
        # bound is zero and only its absolute floor keeps it safe.
        scale = 1e-160 if dtype is np.float64 else 1e-21
        X = scale * rng.standard_normal((300, 4))
        tree = KDTree(X, leaf_size=16).cast(dtype)
        _check(tree, X[:40] * 1.01, 7)
        _check(tree, X, 7, exclude_self=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_squares_overflow(self, rng, dtype):
        # Some, then all, squared gaps overflow: the filter sees
        # inf - inf, its threshold is not finite, and the rows fall back
        # to every candidate; inf distances tie and order by index.
        for scale in (1e150, 1e155) if dtype is np.float64 else (1e18, 1e20):
            X = scale * rng.standard_normal((300, 4))
            tree = KDTree(X, leaf_size=16).cast(dtype)
            _check(tree, X[:40] * 1.01, 7)
            _check(tree, X, 7, exclude_self=True)

    def test_one_overflowing_row(self, rng):
        X = rng.standard_normal((300, 4))
        X[5] = 1e155
        tree = KDTree(X, leaf_size=16)
        _check(tree, X[:40] * 1.01, 7)
        _check(tree, X, 7, exclude_self=True)


class TestEngineRule:
    """One derived rule, shared with the share producers' forecast."""

    @pytest.mark.parametrize(
        "q,n,d,k,engine",
        [
            # the regime table of kernels/neighbors.py
            (512, 100_000, 2, 11, "sweep"),
            (512, 20_000, 3, 41, "sweep"),
            (512, 100_000, 5, 11, "sweep"),
            (512, 6000, 5, 11, "scan"),
            (512, 100_000, 8, 11, "scan"),
            (512, 500, 2, 11, "scan"),
            # the benchmark's KD-tree traffic
            (500, 6000, 8, 41, "scan"),
            (6000, 6000, 8, 41, "scan"),
            (256, 2000, 12, 16, "scan"),
            (1, 2000, 12, 16, "scan"),
            (1024, 1500, 120, 40, "scan"),
            # one row never amortises the sweep's per-level arrays
            (1, 6000, 2, 11, "scan"),
            (1, 20_000, 3, 5, "scan"),
        ],
    )
    def test_regimes(self, q, n, d, k, engine):
        assert kn.choose_block_engine(q, n, d, k) == engine

    def test_expected_scanned(self):
        assert kn.expected_scanned(6000, 8, 41) == 6000.0  # 8-d: no pruning
        assert kn.expected_scanned(100_000, 2, 11) == pytest.approx(93.0, abs=1.0)
        assert kn.expected_scanned(10**6, 3, 5, leaf_size=8) < kn.expected_scanned(
            10**6, 3, 5, leaf_size=64
        )

    def test_public_entry_follows_the_rule(self, rng, monkeypatch):
        calls = []
        for name, run in list(ENGINES.items()):
            monkeypatch.setitem(
                kn._BLOCK_ENGINES,
                name,
                lambda *a, _run=run, _name=name: calls.append(_name) or _run(*a),
            )
        KDTree(rng.standard_normal((3000, 2))).query(rng.standard_normal((600, 2)), 5)
        KDTree(rng.standard_normal((300, 8))).query(rng.standard_normal((60, 8)), 5)
        assert calls == ["sweep", "scan"]


class TestSweepSeeding:
    def test_k_past_the_home_leaf_does_not_expand_every_leaf(self, rng, monkeypatch):
        # d=3, n=20000 leaves hold 19-20 rows. The sweep seeds each
        # query from the deepest node on its path with >= k rows, so kth
        # is finite before the sweep for k=25 and k=41 alike; seeded
        # from the home leaf alone, kth stayed inf and phase 2a expanded
        # all 1024 leaves for every query.
        X = rng.standard_normal((20_000, 3))
        Q = rng.standard_normal((64, 3))
        tree = KDTree(X)
        scanned = {}
        original = kn._scan_leaves

        def counting(state, lq, ln):
            scanned[k] += int((tree._end[ln] - tree._start[ln]).sum())
            original(state, lq, ln)

        monkeypatch.setattr(kn, "_scan_leaves", counting)
        for k in (25, 41):
            scanned[k] = 0
            kn._query_blocks(kn._sweep_block, tree, Q, k, False, 1024)
        assert scanned[41] <= 3 * scanned[25]
        assert scanned[41] < 0.1 * len(Q) * len(X)


class TestScanOperands:
    def test_cache_is_lazy_private_and_dropped_by_cast(self, rng):
        tree = KDTree(rng.standard_normal((300, 8)))
        assert "_scan_cache" not in tree.__dict__
        tree.query(rng.standard_normal((4, 8)), 3)
        assert "_scan_cache" in tree.__dict__
        assert "_scan_cache" not in pickle.loads(pickle.dumps(tree)).__dict__
        assert "_scan_cache" not in tree.cast(np.float32).__dict__

    def test_served_artifact_tree(self, rng, tmp_path):
        # A loaded v2 artifact serves the tree's _data as a read-only
        # memmap: the scan must answer from it bitwise, never write to
        # it, and a tree that has built its operands saves the same
        # artifact as one that has not.
        X = rng.standard_normal((400, 6))
        model = SUOD(
            [KNN(n_neighbors=8), LOF(n_neighbors=10)],
            approx_flag_global=False,
            rp_flag_global=False,
            random_state=0,
        ).fit(X)
        release_mappings()
        try:
            path = save_ensemble(model, tmp_path / "ens.repro")
            loaded = load_ensemble(path)
            tree = loaded.base_estimators_[0]._nn._tree
            assert not tree._data.flags.writeable
            before = tree._data.copy()
            ref = _check(tree, X[:50] + 0.01, 9)
            own = model.base_estimators_[0]._nn._tree
            _assert_identical(ref, _check(own, X[:50] + 0.01, 9))
            np.testing.assert_array_equal(tree._data, before)
            assert "_scan_cache" in own.__dict__
            again = save_ensemble(model, tmp_path / "again.repro")
            first, second = read_ensemble_header(path), read_ensemble_header(again)
            assert second["arenas"] == first["arenas"]
            assert again.stat().st_size == path.stat().st_size
        finally:
            release_mappings()


class TestAgainstFrozenHeapReference:
    """On tie-free data the pre-refactor heap path must match bitwise
    (with ties its selection depended on traversal order; the canonical
    order only fixes which equal-distance index is reported)."""

    def test_query_mode(self, rng):
        X = rng.standard_normal((800, 5))
        Q = rng.standard_normal((120, 5))
        tree = KDTree(X, leaf_size=24)
        _assert_identical(
            tree.query(Q, 9, mode="batched"), kdtree_query_heap(tree, Q, 9)
        )

    def test_exclude_self(self, rng):
        X = rng.standard_normal((300, 4))
        tree = KDTree(X, leaf_size=16)
        _assert_identical(
            tree.query(X, 11, exclude_self=True, mode="batched"),
            kdtree_query_heap(tree, X, 11, exclude_self=True),
        )


class TestAgainstBruteForce:
    def test_distances_match(self, rng):
        X = rng.standard_normal((500, 4))
        Q = rng.standard_normal((80, 4))
        tree = KDTree(X, leaf_size=16)
        td, _ = tree.query(Q, 8, mode="batched")
        bd, _ = brute_force_kneighbors(X, Q, 8)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)
