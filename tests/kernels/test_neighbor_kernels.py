"""Both block engines vs the frozen best-first oracle, bitwise.

The answer of a KD-tree query is "the k lexicographically smallest
(distance, index) pairs under the elementwise distance" — a pure
function of the data. The filter–refine scan and the pruned sweep are
two ways of finding candidates for the one exact selection, so each must
agree with the per-query oracle (``repro.kernels.reference``) to the
last bit: on tie-heavy inputs where every selection boundary is
degenerate, on inputs built to break the GEMM form of the filter
(cancellation, scaling, under- and overflow), for every batch shape.
Every other Minkowski order runs the exact scan, pinned against the
frozen brute force it replaced (distances bitwise; indices in the
canonical order where distances tie).
"""

import pickle
import warnings

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import KNN, LOF
from repro.kernels import neighbors as kn
from repro.kernels.reference import (
    brute_force_kneighbors,
    kdtree_query_best_first,
    kdtree_query_heap,
)
from repro.memory.arena import release_mappings
from repro.neighbors import KDTree, NearestNeighbors
from repro.neighbors.shared import build_shared_index, fused_neighbor_query
from repro.utils.persistence import load_ensemble, read_ensemble_header, save_ensemble

ENGINES = kn._BLOCK_ENGINES


def _assert_identical(pair_a, pair_b):
    np.testing.assert_array_equal(pair_a[0], pair_b[0])
    np.testing.assert_array_equal(pair_a[1], pair_b[1])


def _check(tree, Q, k, *, exclude_self=False, block_rows=1024):
    """Oracle, both forced engines and the public entry agree bitwise."""
    Q = np.asarray(Q, dtype=np.float64)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # Overflowing squares warn inside the (frozen) oracle's scan.
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = kdtree_query_best_first(tree, Q, k, exclude_self=exclude_self)
        for run in ENGINES.values():
            got = kn._query_blocks(run, tree, Q, k, exclude_self, block_rows)
            assert got[0].dtype == np.float64
            _assert_identical(got, ref)
        _assert_identical(tree.query(Q, k, exclude_self=exclude_self), ref)
    return ref


def _n_leaves(tree) -> int:
    return int((tree._split_dim == kn._LEAF).sum())


def _split_tree(X, leaf_size):
    """A tree the sweep has something to prune in: the one-leaf rule
    must not collapse it (pass a smaller ``leaf_size`` if it does)."""
    tree = KDTree(X, leaf_size=leaf_size)
    assert _n_leaves(tree) > 1
    return tree


class TestEnginesMatchOracle:
    @pytest.mark.parametrize(
        "n,d,k,leaf",
        [
            (300, 3, 5, 2),
            (1500, 6, 10, 1),
            (120, 2, 2, 1),
            (1200, 5, 16, 1),
            # the sweep in 8-d: a split tree needs n > 20 * 2**8 at leaf 1
            (5500, 8, 16, 1),
        ],
    )
    def test_random_data(self, rng, n, d, k, leaf):
        X = rng.standard_normal((n, d))
        Q = rng.standard_normal((53, d))
        _check(_split_tree(X, leaf), Q, k)

    @pytest.mark.parametrize("n,d,k", [(300, 4, 5), (700, 12, 16)])
    def test_one_leaf_tree(self, rng, n, d, k):
        # Where the sweep can never win the tree is one leaf over the
        # rows as given; both engines still answer canonically.
        X = rng.standard_normal((n, d))
        tree = KDTree(X)
        assert _n_leaves(tree) == 1
        np.testing.assert_array_equal(tree._data, X)
        _check(tree, rng.standard_normal((53, d)), k)
        _check(tree, X, k, exclude_self=True)

    def test_exclude_self(self, rng):
        X = rng.standard_normal((400, 3))
        _, idx = _check(_split_tree(X, 4), X, 6, exclude_self=True)
        assert not (idx == np.arange(400)[:, None]).any()

    def test_block_boundaries(self, rng):
        # Query counts that do not divide the block size, and a block
        # size smaller than the query count, must not change answers.
        X = rng.standard_normal((400, 3))
        tree = _split_tree(X, 4)
        Q = rng.standard_normal((45, 3))
        for block in (1, 7, 44, 45, 46, 1024):
            _check(tree, Q, 7, block_rows=block)

    def test_exclude_self_across_blocks(self, rng):
        # Self-indices are global row numbers; a block offset must not
        # shift them.
        X = rng.standard_normal((300, 3))
        _check(_split_tree(X, 2), X, 4, exclude_self=True, block_rows=31)

    def test_scan_slab_boundaries(self, rng, monkeypatch):
        # The scan filters a block in slabs of _SCAN_BLOCK cells; slab
        # edges (block +- 1 rows) must not show, nor shift self columns
        # of a permuted tree.
        X = rng.standard_normal((300, 3))
        tree = _split_tree(X, 2)
        monkeypatch.setattr(kn, "_SCAN_BLOCK", 16 * 300)
        for q in (1, 2, 15, 16, 17, 31, 32, 33):
            _check(tree, rng.standard_normal((q, 3)), 9)
        _check(tree, X, 9, exclude_self=True)
        # Every cell survives an overflowing filter: the survivors are
        # refined slab by slab instead of all at once.
        huge = _split_tree(1e155 * X, 2)
        _check(huge, 1e155 * X[:40] * 1.01, 9)
        _check(huge, 1e155 * X, 9, exclude_self=True)

    def test_k_against_leaf_occupancy(self, rng):
        # Median splits of 400 rows at leaf_size 4 give 3-4 rows per
        # leaf: k just under, at and over the home leaf's occupancy
        # moves the sweep's seed node one level up.
        X = rng.standard_normal((400, 3))
        tree = _split_tree(X, 4)
        leaves = tree._split_dim == kn._LEAF
        assert set(tree._end[leaves] - tree._start[leaves]) == {3, 4}
        for k in (1, 3, 4, 5, 7, 14):
            _check(tree, X[:40] + 0.01, k)
            _check(tree, X, k, exclude_self=True)

    def test_k_extremes(self, rng):
        X = rng.standard_normal((100, 2))
        tree = _split_tree(X, 1)
        _check(tree, rng.standard_normal((20, 2)), 100)
        _check(tree, X, 99, exclude_self=True)

    def test_one_dimensional(self, rng):
        X = rng.standard_normal((500, 1))
        _check(_split_tree(X, 8), X[:60], 5)

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

    @pytest.mark.parametrize("n,d,leaf", [(2000, 3, 8), (6000, 8, 1)])
    def test_row_separable(self, rng, n, d, leaf):
        # Every query row scored alone, in pairs and in the full batch
        # returns identical bytes (ROADMAP: row separability, stated
        # for this layer), also on a tree the sweep prunes.
        X = rng.standard_normal((n, d))
        Q = rng.standard_normal((24, d))
        tree = _split_tree(X, leaf)
        for run in ENGINES.values():
            full = kn._query_blocks(run, tree, Q, 12, False, 1024)
            for width in (1, 2):
                for lo in range(0, len(Q), width):
                    rows = slice(lo, lo + width)
                    part = kn._query_blocks(run, tree, Q[rows], 12, False, 1024)
                    _assert_identical(part, (full[0][rows], full[1][rows]))

    def test_randomized_shapes(self):
        # Seeded sweep over (n, d, k, leaf): shapes no hand-written case
        # names, each drawn just past the size where the tree splits
        # (one-leaf trees: test_one_leaf_tree, TestHighDimensional; split
        # trees in d >= 4 have their own cases — the oracle's self-query
        # of every row of one costs seconds).
        rng = np.random.default_rng(1234)
        for _ in range(16):
            d = int(rng.integers(1, 4))
            leaf = int(rng.choice([1, 3, 8]))
            splits_above = kn.SWEEP_ROW_COST * kn.expected_scanned(10**9, d, 1, leaf)
            n = int(splits_above) + int(rng.integers(1, 100))
            X = rng.standard_normal((n, d))
            if rng.random() < 0.3:
                X = np.round(X)  # ties
            # float64 spacing at 2**50 is 1/4: an offset cloud is a lattice
            offset = 2.0**50 if rng.random() < 0.3 else 0.0
            X = offset + X
            tree = _split_tree(X, leaf)
            # k mostly within a few leaves, sometimes up to every row
            k = int(rng.integers(1, n + 1 if rng.random() < 0.2 else 40))
            _check(tree, offset + rng.standard_normal((int(rng.integers(1, 40)), d)), k)
            _check(tree, X, min(k, n - 1), exclude_self=True, block_rows=17)


class TestDistanceTies:
    """Degenerate inputs where every k-th boundary is a tie."""

    def test_duplicate_groups(self, rng):
        base = rng.standard_normal((15, 2))
        X = np.repeat(base, 6, axis=0)
        tree = _split_tree(X, 1)
        _, idx = _check(tree, X[:40], 8, block_rows=9)
        # Canonical rule: the six zero-distance duplicates of each query
        # are returned smallest-index-first.
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
        tree = _split_tree(X, 5)
        _check(tree, g, k, block_rows=11)
        _check(tree, X[:300], k)
        _check(tree, X, k, exclude_self=True)

    @pytest.mark.parametrize("cloud", ["half_integer_lattice", "offset"])
    def test_low_d_bound_ties(self, cloud):
        # d=2: a subtree's split-plane bound ties the k-th distance only
        # if it rounds as the distance does; a bound a hair above a
        # distance that rounded down onto a tie would prune the tied
        # smaller-index row.
        rng = np.random.default_rng(5)
        for n, k in ((334, 15), (300, 6), (480, 30)):
            if cloud == "offset":
                # float64 spacing at 2**50 is 1/4: the cloud is a lattice
                X = 2.0**50 + rng.standard_normal((n, 2))
            else:
                X = np.round(rng.standard_normal((n, 2)) * 4) / 2
            _check(_split_tree(X, 8), X, k, exclude_self=True)

    def test_all_identical_points(self):
        X = np.ones((40, 3))
        tree = KDTree(X, leaf_size=1)  # zero spread: always one leaf
        dist, idx = _check(tree, X[:10], 5)
        np.testing.assert_array_equal(dist, 0.0)
        np.testing.assert_array_equal(idx, np.arange(5)[None, :].repeat(10, 0))


class TestAdversarialScales:
    """Inputs built against the GEMM form ``|q|^2 + |x|^2 - 2 q.x``."""

    def test_far_offset_clouds(self, rng):
        # Uncentred, the three terms are ~1e16 and their sum ~1: every
        # digit of the filter value would be rounding noise.
        for offset, spread in ((1e8, 1.0), (1e6, 1e-3)):
            X = offset + spread * rng.standard_normal((500, 3))
            tree = _split_tree(X, 4)
            _check(tree, X[:40] + 0.1 * spread, 7)
            _check(tree, X, 7, exclude_self=True)

    def test_one_coordinate_scaled(self, rng):
        X = rng.standard_normal((500, 3))
        X[:, 2] *= 1e12
        _check(_split_tree(X, 4), X[:40] * 1.01, 7)

    def test_squares_underflow(self, rng):
        # Squares land in the subnormal range: the filter's relative
        # bound is zero and only its absolute floor keeps it safe.
        X = 1e-160 * rng.standard_normal((300, 3))
        tree = _split_tree(X, 2)
        _check(tree, X[:40] * 1.01, 7)
        _check(tree, X, 7, exclude_self=True)

    def test_squares_overflow(self, rng):
        # Some, then all, squared gaps overflow: the filter sees
        # inf - inf, its threshold is not finite, and the rows fall back
        # to every candidate; inf distances tie and order by index.
        for scale in (1e150, 1e155):
            X = scale * rng.standard_normal((300, 3))
            tree = _split_tree(X, 2)
            _check(tree, X[:40] * 1.01, 7)
            _check(tree, X, 7, exclude_self=True)

    def test_one_overflowing_row(self, rng):
        X = rng.standard_normal((300, 3))
        X[5] = 1e155
        tree = _split_tree(X, 2)
        _check(tree, X[:40] * 1.01, 7)
        _check(tree, X, 7, exclude_self=True)


def _high_d_data(kind, d):
    """300 rows in ``d`` dimensions: tie-free Gaussian, or 60 binary
    lattice points repeated 5x (many-way ties at every boundary)."""
    rng = np.random.default_rng(d)
    if kind == "tie_free":
        return rng.standard_normal((300, d)), rng.standard_normal((40, d))
    base = rng.integers(0, 2, size=(60, d)).astype(np.float64)
    return np.repeat(base, 5, axis=0), rng.integers(0, 2, size=(40, d)) * 1.0


class TestHighDimensional:
    """Every Euclidean index answers with the oracle's bytes, in the
    dimensions RP leaves the paper's proximity detectors in."""

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 51])
    @pytest.mark.parametrize("kind", ["tie_free", "lattice"])
    @pytest.mark.parametrize("d", [16, 40, 80])
    def test_nearest_neighbors_match_oracle(self, d, kind, k, exclude_self):
        X, Q = _high_d_data(kind, d)
        nn = NearestNeighbors(k).fit(X)
        if exclude_self:
            got, Q = nn.kneighbors(), X
        else:
            got = nn.kneighbors(Q)
        ref = kdtree_query_best_first(nn._tree, Q, k, exclude_self=exclude_self)
        _assert_identical(got, ref)

    def test_refine_stays_within_the_scan_block(self, rng, monkeypatch):
        # d=80, k=51: ~77k filter survivors per 1024-row block. Every
        # exact selection holds at most _SCAN_BLOCK (pair, coordinate)
        # terms — also when one far row makes the filter keep every
        # cell — and the answer is the oracle's.
        X = rng.standard_normal((1500, 80))
        Q = rng.standard_normal((300, 80))
        far = X.copy()
        far[5] = 1e8
        held = []
        original = kn._select_exact

        def recording(state, elem_q, data_row):
            held.append(elem_q.size * state[1].shape[1])
            original(state, elem_q, data_row)

        monkeypatch.setattr(kn, "_select_exact", recording)
        for data in (X, far):
            tree = KDTree(data)
            before = len(held)
            _assert_identical(tree.query(Q, 51), kdtree_query_best_first(tree, Q, 51))
            assert len(held) > before
        assert max(held) <= kn._SCAN_BLOCK
        # Smaller budgets cut the refine finer, never the answer.
        expected = tree.query(Q, 51)
        monkeypatch.setattr(kn, "_SCAN_BLOCK", 80 * 97)
        del held[:]
        _assert_identical(tree.query(Q, 51), expected)
        assert len(held) > 300 and max(held) <= 80 * 97


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

    @pytest.mark.parametrize("leaf", [1, 8, 40])
    def test_tree_splits_iff_some_batch_can_sweep(self, leaf):
        # The sweep is cheapest per query at k=1 and wins, if ever, for
        # large q: the one-leaf rule is exactly "no batch sweeps".
        for d in (1, 2, 3, 5, 8, 12, 20, 80):
            for n in (50, 500, 1100, 2000, 6000, 40_000, 100_000):
                picks = {
                    kn.choose_block_engine(q, n, d, k, leaf)
                    for q in (1, 512, 10**7)
                    for k in (1, 5, 41)
                }
                assert ("sweep" in picks) == kn.can_pick_sweep(n, d, leaf)
                tree_splits = n > leaf and kn.can_pick_sweep(n, d, leaf)
                if n <= 2000:
                    X = np.random.default_rng(n).standard_normal((n, d))
                    assert (_n_leaves(KDTree(X, leaf_size=leaf)) > 1) == tree_splits

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
        tree = _split_tree(X, 40)
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
    def test_cache_is_lazy_and_not_pickled(self, rng):
        tree = KDTree(rng.standard_normal((300, 8)))
        assert "_scan_cache" not in tree.__dict__
        tree.query(rng.standard_normal((4, 8)), 3)
        assert "_scan_cache" in tree.__dict__
        assert "_scan_cache" not in pickle.loads(pickle.dumps(tree)).__dict__

    def test_fit_time_self_queries_leave_no_operands(self, rng):
        # The operands are a second (n, d + 1) copy of the rows: a fitted
        # model holds its rows once until it scores.
        X = rng.standard_normal((300, 40))
        knn = KNN(n_neighbors=5).fit(X)
        tree = knn._nn._tree
        assert tree._data is knn._nn._X
        assert "_scan_cache" not in tree.__dict__
        knn.decision_function(X[:4] + 0.1)
        assert "_scan_cache" in tree.__dict__
        # The sharing producer's fused self-covering query, likewise.
        nn = build_shared_index(X)
        fused_neighbor_query(nn, X, [5, 9], cover_self=True)
        assert "_scan_cache" not in nn._tree.__dict__
        fused_neighbor_query(nn, X[:4] + 0.1, [5, 9])
        assert "_scan_cache" in nn._tree.__dict__

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
        X = rng.standard_normal((2000, 3))
        Q = rng.standard_normal((120, 3))
        tree = _split_tree(X, 8)
        _assert_identical(
            tree.query(Q, 9, mode="batched"), kdtree_query_heap(tree, Q, 9)
        )

    def test_exclude_self(self, rng):
        X = rng.standard_normal((2000, 3))
        tree = _split_tree(X, 8)
        assert kn.choose_block_engine(2000, 2000, 3, 11, 8) == "sweep"
        _assert_identical(
            tree.query(X, 11, exclude_self=True, mode="batched"),
            kdtree_query_heap(tree, X, 11, exclude_self=True),
        )

    def test_lof_scores(self, rng):
        from repro.detectors.lof import _EPS

        X = rng.standard_normal((3000, 3))
        Q = rng.standard_normal((150, 3))
        lof = LOF(n_neighbors=10).fit(X)
        assert _n_leaves(lof._nn._tree) > 1
        dist, idx = kdtree_query_heap(lof._nn._tree, Q, 10)
        reach = np.maximum(dist, lof._kdist[idx])
        lrd_q = 1.0 / (reach.mean(axis=1) + _EPS)
        np.testing.assert_array_equal(
            lof.decision_function(Q), lof._lrd[idx].mean(axis=1) / lrd_q
        )


class TestAgainstBruteForce:
    def test_distances_match(self, rng):
        X = rng.standard_normal((500, 4))
        Q = rng.standard_normal((80, 4))
        tree = _split_tree(X, 1)
        td, _ = tree.query(Q, 8, mode="batched")
        bd, _ = brute_force_kneighbors(X, Q, 8)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)


# (metric, p) pairs of every non-Euclidean order, and what they resolve to.
ORDERS = [
    ("manhattan", 2.0),
    ("chebyshev", 2.0),
    ("minkowski", 1.0),
    ("minkowski", 1.5),
    ("minkowski", 3.0),
]
ORDER_IDS = ["manhattan", "chebyshev", "minkowski-p1", "minkowski-p1.5", "minkowski-p3"]


def _order_data(kind):
    """(X, new queries) for the every-order grid: continuous rows,
    an integer lattice (every k-th boundary a tie under every order), or
    continuous rows each present six times."""
    rng = np.random.default_rng(30)
    if kind == "continuous":
        return rng.standard_normal((240, 5)), rng.standard_normal((300, 5))
    if kind == "lattice":
        return (
            rng.integers(0, 5, size=(240, 3)).astype(np.float64),
            rng.integers(0, 5, size=(300, 3)).astype(np.float64),
        )
    base = rng.standard_normal((40, 5))
    X = np.repeat(base, 6, axis=0)
    return X, np.concatenate([base, rng.standard_normal((260, 5))])


def _canonical_brute(X, Q, k, metric, p, exclude_self):
    """The frozen brute force's full rows in (distance, index) order,
    cut at k: the canonical answer where distances tie."""
    width = len(X) - 1 if exclude_self else len(X)
    dist, idx = brute_force_kneighbors(
        X, Q, width, metric=metric, p=p, exclude_self=exclude_self
    )
    order = np.lexsort((idx, dist))[:, :k]
    return (
        np.take_along_axis(dist, order, axis=1),
        np.take_along_axis(idx, order, axis=1),
    )


class TestEveryOrderMatchesFrozenBruteForce:
    """Every metric is a KD-tree of its Minkowski order, answered by the
    exact scan: distances are the replaced brute force's bit for bit,
    indices its own where no distance ties and the canonical (distance,
    index) order where they do."""

    @pytest.mark.parametrize("query", ["exclude_self", "q1", "q300"])
    @pytest.mark.parametrize("kind", ["continuous", "lattice", "duplicates"])
    @pytest.mark.parametrize("metric,p", ORDERS, ids=ORDER_IDS)
    def test_parity_grid(self, metric, p, kind, query):
        X, Q = _order_data(kind)
        k = 10
        nn = NearestNeighbors(k, metric=metric, p=p).fit(X)
        exclude_self = query == "exclude_self"
        if exclude_self:
            got, Q = nn.kneighbors(), X
        else:
            Q = Q[:1] if query == "q1" else Q
            got = nn.kneighbors(Q)
        brute = brute_force_kneighbors(
            X, Q, k, metric=metric, p=p, exclude_self=exclude_self
        )
        np.testing.assert_array_equal(got[0], brute[0])
        if kind == "continuous":
            np.testing.assert_array_equal(got[1], brute[1])
        else:
            _assert_identical(got, _canonical_brute(X, Q, k, metric, p, exclude_self))

    @pytest.mark.parametrize("metric,p", ORDERS, ids=ORDER_IDS)
    def test_lattice_answers_are_prefixes(self, metric, p):
        X, Q = _order_data("lattice")
        nn = NearestNeighbors(metric=metric, p=p).fit(X)
        for query in (None, Q):
            d5, i5 = nn.kneighbors(query, n_neighbors=5)
            d10, i10 = nn.kneighbors(query, n_neighbors=10)
            _assert_identical((d5, i5), (d10[:, :5], i10[:, :5]))

    @pytest.mark.parametrize("metric,p", ORDERS, ids=ORDER_IDS)
    def test_k_extremes(self, metric, p):
        X, Q = _order_data("lattice")
        nn = NearestNeighbors(metric=metric, p=p).fit(X)
        n = len(X)
        for k in (1, n - 1, n):
            ref = _canonical_brute(X, Q[:20], k, metric, p, False)
            _assert_identical(nn.kneighbors(Q[:20], n_neighbors=k), ref)
        for k in (1, n - 1):
            ref = _canonical_brute(X, X, k, metric, p, True)
            _assert_identical(nn.kneighbors(n_neighbors=k), ref)

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 80, 200])
    @pytest.mark.parametrize("metric,p", [("manhattan", 2.0), ("minkowski", 3.0)])
    def test_reduction_lengths(self, rng, metric, p, d):
        # Scan and refine reduce each distance over a contiguous axis of
        # length d, as brute force did: the same bits at every unroll
        # and pairwise-block boundary of the summation.
        X = rng.standard_normal((300, d))
        Q = rng.standard_normal((40, d))
        nn = NearestNeighbors(7, metric=metric, p=p).fit(X)
        _assert_identical(
            nn.kneighbors(Q), brute_force_kneighbors(X, Q, 7, metric=metric, p=p)
        )
        _assert_identical(
            nn.kneighbors(),
            brute_force_kneighbors(X, X, 7, metric=metric, p=p, exclude_self=True),
        )

    def test_slab_and_refine_boundaries(self, rng, monkeypatch):
        # Slabs of one query row up to whole blocks, refines of one pair
        # up to many rows: only the working set changes, never the answer.
        X = rng.integers(0, 4, size=(150, 3)).astype(np.float64)
        Q = rng.integers(0, 4, size=(45, 3)).astype(np.float64)
        tree = KDTree(X, p=1.0)
        expected = _canonical_brute(X, Q, 9, "manhattan", 2.0, False)
        expected_self = _canonical_brute(X, X, 9, "manhattan", 2.0, True)
        for budget in (1, 3 * 7, 150 * 3, 150 * 3 * 5 + 1, 1 << 18):
            monkeypatch.setattr(kn, "_SCAN_BLOCK", budget)
            for block in (1, 16, 1024):
                _assert_identical(tree.query(Q, 9, block_rows=block), expected)
                _assert_identical(
                    tree.query(X, 9, exclude_self=True, block_rows=block),
                    expected_self,
                )

    def test_minkowski_two_is_the_euclidean_tree(self, rng):
        for n, d in ((2000, 2), (300, 8), (300, 80)):
            X = rng.standard_normal((n, d))
            Q = rng.standard_normal((30, d))
            nn = NearestNeighbors(6, metric="minkowski", p=2.0).fit(X)
            euclid = NearestNeighbors(6).fit(X)
            assert nn._tree.p == 2.0
            ref = kdtree_query_best_first(euclid._tree, Q, 6)
            _assert_identical(nn.kneighbors(Q), ref)
            _assert_identical(euclid.kneighbors(Q), ref)

    def test_exact_scan_at_order_two_is_canonical(self, rng):
        # The exact scan is order-agnostic: on a one-leaf Euclidean tree
        # it returns the best-first oracle's bytes too.
        X = rng.standard_normal((400, 6))
        tree = KDTree(X)
        assert _n_leaves(tree) == 1
        for Q, self_q in ((rng.standard_normal((50, 6)), False), (X, True)):
            got = kn._query_blocks(kn._exact_scan_block, tree, Q, 8, self_q, 1024)
            ref = kdtree_query_best_first(tree, Q, 8, exclude_self=self_q)
            _assert_identical(got, ref)

    @pytest.mark.parametrize(
        "p,scipy_metric,kwargs",
        [
            (2.0, "euclidean", {}),
            (1.0, "cityblock", {}),
            (np.inf, "chebyshev", {}),
            (3.0, "minkowski", {"p": 3}),
            (1.5, "minkowski", {"p": 1.5}),
        ],
    )
    def test_distance_expression_matches_scipy(self, rng, p, scipy_metric, kwargs):
        from scipy.spatial.distance import cdist

        X, Y = rng.standard_normal((20, 6)), rng.standard_normal((15, 6))
        ours = kn._minkowski(Y[None, :, :] - X[:, None, :], p)
        ref = cdist(X, Y, metric=scipy_metric, **kwargs)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_other_orders_never_build_scan_operands(self, rng):
        tree = KDTree(rng.standard_normal((300, 8)), p=1.0)
        tree.query(rng.standard_normal((4, 8)), 3)
        assert "_scan_cache" not in tree.__dict__

    def test_self_query_memory_is_bounded(self, rng):
        # Brute force broadcast (1024, n, d) differences here: a 610 MB
        # traced peak. The exact scan holds max(_SCAN_BLOCK, n d) terms
        # per slab.
        import tracemalloc

        X = rng.standard_normal((1000, 40))
        tracemalloc.start()
        try:
            NearestNeighbors(10, metric="manhattan").fit(X).kneighbors()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
