"""Batched exact KD-tree k-NN: two block engines, one canonical answer.

The answer of a query is *defined*, not computed by a particular
traversal: the ``k`` lexicographically smallest ``(distance, index)``
pairs, where ``distance`` is the elementwise expression
``sqrt(((x - q) ** 2).sum())`` evaluated in the tree's dtype and
``index`` the row's original position. That is a pure function of the
data — independent of ``k``'s neighbours in a batch, of block shapes, of
BLAS builds and thread counts — and the per-query best-first search
frozen in :func:`repro.kernels.reference.kdtree_query_best_first` is its
oracle. Two block engines find *candidates* for that answer; one helper
(:func:`_select_exact`) computes every exact distance and makes every
selection, so the engines cannot disagree on a bit they both reach.

Filter–refine scan (``_scan_block``)
------------------------------------
For a slab of query rows sized so that ``rows x n`` stays cache-scale
(``_SCAN_BLOCK``), one GEMM evaluates an approximate squared distance
to every indexed row; each row's k-th smallest approximate value
(``np.partition``), widened by a proven rounding bound, is a threshold
no true neighbour can exceed; the few cells under it (``>= k`` per row
by construction, ``~k`` in practice) are refined exactly.

*The filter value.* With ``c`` the (approximate) mean of the data,
``a = fl(q - c)`` and ``b = fl(x - c)`` the stored centred vectors, the
cached operand row ``[-2 b | B]`` (``B = fl(|b|^2)``) and the query row
``[a | 1]`` give ``A = fl(B - 2 a.b)`` in a single ``d + 1`` term dot
product. ``|a|^2`` is never added: a per-row constant cannot change
which cells pass. Centring keeps ``|a|, |b|`` at the scale of the
cloud's spread, so a cloud offset by 1e8 filters as tightly as one at
the origin.

*The bound.* Write ``u = eps / 2``, ``M = |a|^2 + max_x |b|^2`` and
``S`` for the float sum of squares the exact expression computes before
its ``sqrt``. Up to factors ``1 + O(d u)``:

- dot product of ``d + 1`` terms, any summation order, with or without
  FMA: ``|A - (|b|^2 - 2 a.b)| <= (d + 1) u (2 |a||b| + |b|^2) + d u
  |b|^2 <= (3 d + 2) u M``;
- centring rounds each coordinate once, so ``| |a - b| - |q - x| | <=
  u (|a| + |b|)`` and ``| |a - b|^2 - |q - x|^2 | <= 4 u M``;
- the exact expression: ``d`` roundings of the differences, ``d``
  squarings, ``d - 1`` additions give ``|S - |q - x|^2| <= (d + 2) u
  |q - x|^2 <= (2 d + 4) u M``.

So ``|A + |a|^2 - S| <= (5 d + 10) u M =: e0`` for every cell of the
row. Let ``t`` be the row's k-th smallest ``A``: ``k`` cells have ``S
<= t + |a|^2 + e0``, hence so has the k-th smallest ``S``. A pair of
the canonical answer has ``sqrt(S)`` not above the k-th smallest
*rounded* root, which lets its ``S`` exceed the k-th smallest ``S`` by
at most a factor ``1 + 4 u`` (``<= 8 u M``), hence ``A <= t + 2 e0 + 8
u M = t + (5 d + 14) eps M``. The code keeps ``A <= t + 2 e`` with ``e
= 3 (d + 4) (eps M + tiny)``, i.e. ``(6 d + 24) eps M``: the ``(d +
10) eps M`` to spare covers the dropped second-order factors, the
rounding of ``M`` and of the threshold itself, and ``tiny`` (the
smallest normal) covers the absolute error of squares that underflow,
gradually or flushed. The margin is derived, not tuned; its price is a
threshold ~1e-14 of the cloud's squared spread wider than ideal.

*Why GEMM rounding cannot show.* Conservativeness means the survivor
set always contains the canonical answer; which *extra* cells survive
depends on how the BLAS build sums, but extras are exactly-refined and
rejected by the same selection. The output is the canonical answer for
every batch shape, BLAS build and thread count.

*Non-finite rows.* Squares that overflow make ``M``, hence the
threshold, non-finite (``inf - inf`` cells are NaN): such a row keeps
every cell and is scanned exactly — slow and still canonical.

*When the filter cannot discriminate.* ``e`` scales with the farthest
indexed row. A few rows beyond ~1e7 times the cloud's spread (float64;
a few hundred times for a float32 cast) push ``2 e`` past the cloud's
own squared distances: most cells survive and the scan degrades toward
an exact scan of every row — canonical, in bounded memory (survivors
are refined at most ~``_SCAN_BLOCK`` at a time), at about the cost of
the sweep in high ``d``. A per-cell bound (``|b_j|^2`` in place of the
maximum) would remove the cliff; it is left as a follow-up.

Pruned sweep (``_sweep_block``)
-------------------------------
1. **Seeding.** Every query descends near-child-only to the deepest
   node that still holds ``>= k`` rows (its home leaf when ``k`` fits
   in one) in one level-synchronous gather loop, and that node's slice
   is scanned — so every kth bound is finite before the search starts,
   whatever ``k`` is relative to the leaf occupancy.
2. **Pruned breadth-first sweep.** A frontier of ``(query, node,
   bound)`` states starts at the root and advances one tree level per
   Python iteration. Far children are generated only while their lower
   bound is within the query's current kth distance; reached leaves are
   collected and scanned in bound-ascending chunks, stale entries
   re-filtered against the (monotonically shrinking) kth bound.

Pruning is *non-strict* — a subtree whose lower bound exactly ties the
current kth distance is still visited — so every candidate tied at the
kth distance is scanned. The sweep tracks the per-dimension offsets
accumulated along each root-to-node path and prunes on
``sqrt(sum(offsets ** 2))``. The offsets are kept in the tree's dtype
and their squares reduced with the same row-wise sum as the distance
computation itself; every operation is monotone and every term
elementwise dominated, so the bound is a true lower bound of the
*computed* distance of any point in the subtree — float rounding
included — which keeps non-strict pruning exact. (A float64 bound over
a float32 tree is not: it can exceed a distance that rounded down onto
a tie with kth. Both the sweep's and the oracle's bounds assume a
squared gap does not flush to zero: with coordinates closer than
``sqrt(tiny)`` only the scan is canonical.)

Which engine runs
-----------------
:func:`choose_block_engine` compares two estimates in units of one
scanned row of the scan: ``q n`` for the scan against ``20 q s + 8000
log2(n / leaf_size)`` for the sweep, with ``s`` =
:func:`expected_scanned`. The two constants come from 225 timed cells,
``d`` in {2, 3, 5, 8, 12} x ``n`` in {500, 2k, 6k, 20k, 100k} x ``k`` in
{5, 11, 41} x ``q`` in {1, 16, 512}, one BLAS thread;
``benchmarks/fit_knn_engine_rule.py`` re-times the grid, re-fits the
pair and prints the regret of the committed one (last run: mean regret
0.7 %, worst cell 1.44x; the best pair on the search grid, (19, 19 500),
reaches 0.5 % / 1.43x — the optimum is flat, so the round numbers
stay). Sweep time / scan time at ``q = 512, k = 11`` (``>1``: the scan
wins; ``*`` marks cells the rule gives to the sweep):

====  =====  =====  ======  ======  =======
d     n=500  2000   6000    20000   100000
====  =====  =====  ======  ======  =======
2     1.3    0.66*  0.33*   0.13*   0.02*
3     1.9    1.1    0.59*   0.24*   0.05*
5     6.2    2.9    2.5     1.05*   0.20*
8     9.7    10     9.3     4.6     1.7
12    11     14     21      15      9.5
====  =====  =====  ======  ======  =======

(base numbers, ms: d=2/n=100k scan 208, sweep 4.8; d=8/n=6000 scan
10.7, sweep 99; d=12/n=6000 scan 10.8, sweep 232). At ``q = 1`` the
sweep's per-level arrays amortise over nothing and the scan wins 2.6-8x
up to ``n = 20 000`` in every ``d`` (0.09-0.3 ms against 0.3-1.8 ms).
The repo benchmark (``perfbench/``) has no workload on the sweep side of
the rule: the starred cells rest on this micro-benchmark and the tier-1
regime test alone until a low-``d`` workload is added.

Prefix-slice contract (the basis of the shared-computation plane)
-----------------------------------------------------------------
The canonical order makes a fused query *prefix-sliceable*: the output
for ``k`` is exactly the first ``k`` columns of the output for any
``K >= k`` over the same data, because both are prefixes of the same
total ``(distance, index)`` ordering — a pure function of the data,
independent of ``k``. Self-exclusion composes with slicing: a query at
``K = max(k_i) + 1`` with ``exclude_self=False`` contains, after
dropping each row's own index, the first ``max(k_i)`` self-excluded
neighbors — if self sat inside the prefix it is removed and the
remaining ``K - 1 >= max(k_i)`` entries are the smallest non-self
pairs; if it did not, the prefix already was the smallest non-self
pairs. Either way every sliced distance was computed by the same
elementwise expression, so the result is bitwise-identical to a direct
``exclude_self`` query at ``k_i``. :func:`kdtree_query_maxk` issues the
fused query and :func:`slice_neighbor_prefix` applies the contract per
consumer. (Brute force has no such contract: its tie order follows
``argpartition`` and depends on ``k``.)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SWEEP_ROW_COST",
    "choose_block_engine",
    "expected_scanned",
    "kdtree_query_batched",
    "kdtree_query_maxk",
    "shared_query_width",
    "slice_neighbor_prefix",
]

_LEAF = -1

# Approximate distances (query rows x indexed rows) one scan block may
# hold: 2 MB of float64, so the GEMM output, its partition copy and the
# threshold mask stay cache-scale whatever n is (32 MB blocks measured
# +26 MB peak RSS on the 6000x8 workload for no speed).
_SCAN_BLOCK = 1 << 18
# Engine rule constants, in units of one scanned row of the scan engine
# (measured; regime table in the module docstring). The row cost is
# public: the share producers' forecast weighs sweep rows by it too.
SWEEP_ROW_COST = 20.0
_SWEEP_LEVEL_COST = 8000.0


def expected_scanned(
    n_samples: int, n_features: int, k: int, leaf_size: int = 40
) -> float:
    """Rows the pruned sweep is expected to scan for one query.

    The k-neighbor ball of a query holds ``k`` rows, so in units where
    one row occupies unit volume its side is ``k ** (1/d)``; every leaf
    cell the ball touches is scanned whole, which dilates the side by
    one leaf cell, ``leaf_size ** (1/d)``. The sweep cannot scan more
    than all ``n_samples`` rows. One formula, two readers: the engine
    rule (:func:`choose_block_engine`) and the share producers' cost
    forecast
    (:func:`repro.scheduling.forecast_shared_query`), so what the
    scheduler ranks cannot drift from what the kernel does.
    ``leaf_size`` defaults to :class:`~repro.neighbors.KDTree`'s.
    """
    inv_d = 1.0 / max(int(n_features), 1)
    side = float(k) ** inv_d + float(leaf_size) ** inv_d
    return min(float(n_samples), side ** max(int(n_features), 1))


def choose_block_engine(
    n_queries: int, n_samples: int, n_features: int, k: int, leaf_size: int = 40
) -> str:
    """``'scan'`` or ``'sweep'``: the engine estimated cheaper for one
    query batch — derived from what the call can observe, never a
    parameter.

    In units of one row of the scan: the scan touches every row once
    per query through a GEMM; the sweep touches :func:`expected_scanned`
    rows per query through elementwise distances and merge passes
    (``SWEEP_ROW_COST`` scan rows each) and pays ``_SWEEP_LEVEL_COST``
    scan rows per tree level however few rows share them. Constants and
    the regime table they were measured on are in the module docstring.
    """
    depth = np.log2(max(n_samples / leaf_size, 2.0))
    scanned = expected_scanned(n_samples, n_features, k, leaf_size)
    scan = float(n_queries) * float(n_samples)
    sweep = SWEEP_ROW_COST * n_queries * scanned + _SWEEP_LEVEL_COST * depth
    return "scan" if scan <= sweep else "sweep"


def kdtree_query_batched(
    tree,
    X_query: np.ndarray,
    k: int,
    *,
    exclude_self: bool = False,
    block_rows: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors of every query row, block-batched.

    ``tree`` is a built :class:`repro.neighbors.KDTree`; inputs are
    assumed validated by the caller (:meth:`KDTree.query`). The engine
    is chosen by :func:`choose_block_engine`; queries are processed in
    blocks of at most ``block_rows`` (inside a block the scan filters in
    slabs of ``_SCAN_BLOCK`` approximate distances) to bound the working
    set.
    Returns ``(distances, indices)`` sorted ascending per row by
    ``(distance, index)`` — the same bytes from either engine.
    """
    engine = choose_block_engine(
        X_query.shape[0], tree.n_samples_, tree.n_features_, k, tree.leaf_size
    )
    return _query_blocks(
        _BLOCK_ENGINES[engine], tree, X_query, k, exclude_self, block_rows
    )


def _query_blocks(run, tree, X_query, k, exclude_self, block_rows):
    """Run block engine ``run`` over ``X_query`` (the tests' engine hook)."""
    q = X_query.shape[0]
    # Block-local query ids are sorted as 16-bit keys (_select_exact).
    block_rows = min(block_rows, 1 << 16)
    # Distances come back in the tree's serving dtype (float64 default;
    # float32 when the tree was cast). Internal selection state stays
    # float64 either way — promotion is exact, so the float64 path is
    # bitwise-unchanged and the float32 path loses nothing in merges.
    out_d = np.empty((q, k), dtype=tree._data.dtype)
    out_i = np.empty((q, k), dtype=np.int64)
    for start in range(0, q, block_rows):
        stop = min(start + block_rows, q)
        d, i = run(tree, X_query[start:stop], k, start if exclude_self else None)
        out_d[start:stop] = d
        out_i[start:stop] = i
    return out_d, out_i


def shared_query_width(ks, n_samples: int, *, cover_self: bool = False) -> int:
    """Fused query width serving every consumer ``k`` in ``ks``.

    ``max(ks)`` columns answer every consumer directly; ``cover_self``
    adds one slack column so each row can drop its own index at slice
    time and still keep ``max(ks)`` neighbors. Clamped to ``n_samples``
    (a row whose self falls outside a full-width prefix needs no slack:
    the prefix already holds every other point).
    """
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must be non-empty positive ints, got {ks!r}")
    width = max(ks) + (1 if cover_self else 0)
    return min(width, int(n_samples))


def kdtree_query_maxk(
    tree,
    X_query: np.ndarray,
    ks,
    *,
    cover_self: bool = False,
    block_rows: int = 1024,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One fused query at the shared width — the producer entry point.

    Runs a single ``exclude_self=False`` query at
    :func:`shared_query_width` and returns ``(distances, indices, K)``.
    Every consumer obtains its own answer from the result via
    :func:`slice_neighbor_prefix` — bitwise-identical to querying at its
    own ``k`` (prefix-slice contract, module docstring).
    """
    width = shared_query_width(ks, tree.n_samples_, cover_self=cover_self)
    dist, idx = tree.query(X_query, width, exclude_self=False, block_rows=block_rows)
    return dist, idx, width


def slice_neighbor_prefix(
    dist: np.ndarray,
    idx: np.ndarray,
    k: int,
    *,
    self_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A consumer's ``k``-neighbor answer from a fused max-k query.

    ``dist``/``idx`` are the ``(q, K)`` output of a canonical-order
    query with ``exclude_self=False``. Without ``self_rows`` the first
    ``k`` columns are returned (as views — no copy). With ``self_rows``
    (each query row's own index in the indexed data) the row's self
    entry is dropped before taking the first ``k`` — the fit-time form
    of the prefix-slice contract.
    """
    q, width = dist.shape
    if self_rows is None:
        if k > width:
            raise ValueError(f"k={k} exceeds fused query width {width}")
        return dist[:, :k], idx[:, :k]
    is_self = idx == np.asarray(self_rows).reshape(-1, 1)
    # repro: allow[contiguous-reduction] -- boolean count to an exact integer; summation order cannot change the value
    avail = width - is_self.sum(axis=1).max()
    if k > avail:
        raise ValueError(
            f"k={k} exceeds the {avail} non-self columns of a width-{width} query"
        )
    # Stable argsort on the self mask pushes each row's self entry past
    # the end while preserving the canonical order of everything else.
    order = np.argsort(is_self, axis=1, kind="stable")[:, :k]
    return (
        np.take_along_axis(dist, order, axis=1),
        np.take_along_axis(idx, order, axis=1),
    )


def _sweep_block(tree, Xq: np.ndarray, k: int, self_start: int | None):
    """Pruned-sweep engine for one block of queries (module docstring)."""
    split_dim, split_val = tree._split_dim, tree._split_val
    left, right = tree._left, tree._right
    m = Xq.shape[0]
    state = _new_state(tree, Xq, k, self_start)
    best_d, best_i, kth = state[3:6]

    # Phase 1: near-child-only descent of every query, stopping at the
    # deepest node that still holds enough rows to fill the answer (node
    # sizes only shrink along a path). Scanning that node's slice makes
    # every kth finite before the sweep starts, whatever k is relative
    # to the leaf occupancy; for k within a leaf it is the home leaf.
    need = k if self_start is None else k + 1
    size = tree._end - tree._start
    seed = np.zeros(m, dtype=np.int64)
    active = np.nonzero(split_dim[seed] != _LEAF)[0]
    while active.size:
        nodes = seed[active]
        dim = split_dim[nodes]
        go_right = Xq[active, dim] - split_val[nodes] >= 0.0
        nxt = np.where(go_right, right[nodes], left[nodes])
        fits = size[nxt] >= need
        active, nxt = active[fits], nxt[fits]
        seed[active] = nxt
        active = active[split_dim[nxt] != _LEAF]
    _scan_leaves(state, np.arange(m), seed)

    # Phase 2a: pruned breadth-first sweep from the root; each query's
    # seed node is dropped when the frontier reaches it (its whole
    # subtree is already scanned). Each frontier state tracks the
    # per-dimension offsets of its root-to-node path, giving the
    # sum-of-squares lower bound described in the module docstring.
    # Reached leaves are *collected* with their bounds, not scanned yet.
    # Offsets and bounds live in the query dtype: the bound must round
    # exactly as the distance it bounds does (a float64 bound over
    # float32 distances can land above a distance that rounded down to a
    # tie with kth, and prune the tied smaller-index row).
    qs = np.arange(m)
    nodes = np.zeros(m, dtype=np.int64)
    bounds = np.zeros(m, dtype=Xq.dtype)
    off = np.zeros((m, Xq.shape[1]), dtype=Xq.dtype)
    pend: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while qs.size:
        # Bounds only age: drop frontier entries the latest kth beats.
        keep = (bounds <= kth[qs]) & (nodes != seed[qs])
        qs, nodes, bounds, off = qs[keep], nodes[keep], bounds[keep], off[keep]
        if not qs.size:
            break
        at_leaf = split_dim[nodes] == _LEAF
        if at_leaf.any():
            pend.append((qs[at_leaf], nodes[at_leaf], bounds[at_leaf]))
        inner = ~at_leaf
        qs, nodes, bounds, off = qs[inner], nodes[inner], bounds[inner], off[inner]
        if not qs.size:
            break
        dim = split_dim[nodes]
        diff = Xq[qs, dim] - split_val[nodes]
        go_right = diff >= 0.0
        near = np.where(go_right, right[nodes], left[nodes])
        far = np.where(go_right, left[nodes], right[nodes])
        # The near child inherits its parent's offsets; the far child
        # updates the crossed dimension to its (never smaller) new gap.
        far_off = off.copy()
        r = np.arange(qs.size)
        far_off[r, dim] = np.maximum(off[r, dim], np.abs(diff))
        far_bound = np.sqrt((far_off**2).sum(axis=1))
        far_keep = far_bound <= kth[qs]
        qs = np.concatenate([qs, qs[far_keep]])
        nodes = np.concatenate([near, far[far_keep]])
        bounds = np.concatenate([bounds, far_bound[far_keep]])
        off = np.concatenate([off, far_off[far_keep]], axis=0)

    # Phase 2b: scan the collected (query, leaf) pairs in bound-ascending
    # chunks — the batched analogue of best-first ordering. Each chunk's
    # merge tightens kth, and the survivors are re-filtered before the
    # next chunk, so most distant pairs die before any distance is
    # computed. Dropping a pair is exact: its bound exceeded the
    # then-current kth, so no point in that leaf can enter the answer.
    if pend:
        pq = np.concatenate([p[0] for p in pend])
        pn = np.concatenate([p[1] for p in pend])
        pb = np.concatenate([p[2] for p in pend])
        order = np.argsort(pb, kind="stable")
        pq, pn, pb = pq[order], pn[order], pb[order]
        chunk = max(256, 2 * m)
        while pq.size:
            alive = pb <= kth[pq]
            pq, pn, pb = pq[alive], pn[alive], pb[alive]
            if not pq.size:
                break
            _scan_leaves(state, pq[:chunk], pn[:chunk])
            pq, pn, pb = pq[chunk:], pn[chunk:], pb[chunk:]
    return best_d, best_i


def _scan_operands(tree):
    """The tree's filter operands, built on first use and cached on it.

    ``(centre, [-2 (x - centre) | |x - centre|^2], max |x - centre|^2,
    inverse permutation)`` over the reordered ``_data``, in its dtype.
    Derived state: :class:`~repro.neighbors.KDTree` drops it from
    pickles (so nothing reaches an artifact) and from ``cast()`` clones.
    A race between threads builds equal values twice; the last
    assignment wins.
    """
    ops = tree.__dict__.get("_scan_cache")
    if ops is None:
        data = np.asarray(tree._data)
        n, d = data.shape
        operand = np.empty((n, d + 1), dtype=data.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            # repro: allow[contiguous-reduction] -- the centre only has to lie near the data; any summation order gives a valid (conservative) filter and no output bit depends on it
            centre = data.mean(axis=0)
            centred = data - centre
            x_sq = np.einsum("ij,ij->i", centred, centred)
            np.multiply(centred, -2.0, out=operand[:, :d])
            operand[:, d] = x_sq
            x_sq_max = float(x_sq.max())
        inv_perm = np.empty(n, dtype=np.int64)
        inv_perm[tree._perm] = np.arange(n)
        ops = tree._scan_cache = (centre, operand, x_sq_max, inv_perm)
    return ops


def _scan_block(tree, Xq: np.ndarray, k: int, self_start: int | None):
    """Filter–refine engine for one block of queries (module docstring)."""
    centre, operand, x_sq_max, inv_perm = _scan_operands(tree)
    m, d = Xq.shape
    n = tree.n_samples_
    state = _new_state(tree, Xq, k, self_start)
    info = np.finfo(operand.dtype)
    survivors = []
    # Overflowing squares are expected input here, not an error: they
    # make the threshold non-finite and the row falls back to all rows.
    with np.errstate(over="ignore", invalid="ignore"):
        q_aug = np.ones((m, d + 1), dtype=operand.dtype)
        np.subtract(Xq, centre, out=q_aug[:, :d])
        q_sq = np.einsum("ij,ij->i", q_aug[:, :d], q_aug[:, :d])
        # e bounds |approx + |q|^2 - computed squared distance| for every
        # pair of a row (derivation in the module docstring).
        e = (3.0 * (d + 4)) * (
            float(info.eps) * (q_sq.astype(np.float64) + x_sq_max) + float(info.tiny)
        )
        # The filter runs in row slabs of _SCAN_BLOCK cells. Survivors
        # of several slabs are refined together (one selection over
        # ~k m pairs beats m / slab small ones), but never more than
        # about _SCAN_BLOCK at a time: a filter that cannot discriminate
        # (non-finite rows, a few rows so far out that e swamps the
        # cloud's own distances) degrades to an exact scan in bounded
        # memory, not to an (m, n) candidate list.
        slab = max(1, _SCAN_BLOCK // n)
        held = 0
        for lo in range(0, m, slab):
            # |x|^2 - 2 q.x for the slab in one GEMM; the row constant
            # |q|^2 cannot change which cells pass and is never added.
            approx = q_aug[lo : lo + slab] @ operand.T
            rows = approx.shape[0]
            if self_start is not None:
                own = inv_perm[self_start + lo : self_start + lo + rows]
                approx[np.arange(rows), own] = np.inf
            kth_approx = np.partition(approx, k - 1, axis=1)[:, k - 1]
            threshold = kth_approx + 2.0 * e[lo : lo + rows]
            threshold[~np.isfinite(threshold)] = np.inf
            # "not greater" keeps NaN cells too: never drop what cannot
            # be proven worse. (Flat nonzero: 10x the 2-D form's speed.)
            cells = np.flatnonzero(~(approx > threshold[:, None]))
            cells += lo * n
            survivors.append(cells)
            held += cells.size
            if held >= _SCAN_BLOCK or lo + slab >= m:
                _select_exact(state, *np.divmod(np.concatenate(survivors), n))
                survivors, held = [], 0
    best_d, best_i = state[3:5]
    return best_d, best_i


def _new_state(tree, Xq: np.ndarray, k: int, self_start: int | None):
    """Candidate state of one block: per query the best-k (distance,
    index) pairs seen, kept sorted by the canonical order. Unfilled
    slots hold +inf with a sentinel index of n, which sorts after every
    real candidate."""
    m = Xq.shape[0]
    best_d = np.full((m, k), np.inf)
    best_i = np.full((m, k), tree.n_samples_, dtype=np.int64)
    kth = np.full(m, np.inf)
    self_idx = None if self_start is None else np.arange(self_start, self_start + m)
    return (tree, Xq, k, best_d, best_i, kth, self_idx)


def _scan_leaves(state, lq: np.ndarray, ln: np.ndarray) -> None:
    """Scan every (query, node) pair of one sweep step in a single pass.

    The variable-length node slices are expanded into one flat candidate
    list with a repeat/cumsum trick and handed to :func:`_select_exact`
    — no Python iteration over nodes or queries.
    """
    tree = state[0]
    lens = tree._end[ln] - tree._start[ln]
    pair_of = np.repeat(np.arange(ln.size), lens)
    offsets = np.arange(pair_of.size) - np.repeat(
        np.concatenate(([0], np.cumsum(lens)[:-1])), lens
    )
    _select_exact(state, lq[pair_of], tree._start[ln][pair_of] + offsets)


def _select_exact(state, elem_q: np.ndarray, data_row: np.ndarray) -> None:
    """Exact distances of candidate pairs, folded into the best-k state.

    ``(elem_q[j], data_row[j])`` is one candidate: a block-local query
    and a row of the tree's reordered data. This is the only place
    either engine computes a distance or ranks a candidate: all
    distances come from one vectorised expression and the per-query
    best-k sets are rebuilt with one segmented lexsort over ``(query,
    distance, index)``.
    """
    tree, Xq, k, best_d, best_i, kth, self_idx = state
    elem_i = tree._perm[data_row]
    # Same elementwise expression as the best-first oracle's leaf scan —
    # bitwise-identical distances.
    elem_d = np.sqrt(((tree._data[data_row] - Xq[elem_q]) ** 2).sum(axis=1))

    # Candidates strictly worse than their query's current kth distance
    # can never enter the canonical answer (non-strict keeps ties); the
    # filter leaves the expensive merge a fraction of the scanned set.
    keep = elem_d <= kth[elem_q]
    if self_idx is not None:
        keep &= elem_i != self_idx[elem_q]
    elem_q, elem_d, elem_i = elem_q[keep], elem_d[keep], elem_i[keep]
    if not elem_q.size:
        return

    # Merge with the touched queries' current best-k and keep the k
    # smallest per query in the canonical (distance, index) order. A
    # query's unfilled (sentinel) slots come along only when it has
    # fewer than k new candidates — they are padding, there so that
    # every touched query sorts at least k entries.
    n_new = np.bincount(elem_q, minlength=kth.size)
    touched = np.nonzero(n_new)[0]
    cur_d, cur_i = best_d[touched], best_i[touched]
    carry = (cur_i < tree.n_samples_) | (n_new[touched] < k)[:, None]
    q_all = np.concatenate([elem_q, np.repeat(touched, k)[carry.ravel()]])
    d_all = np.concatenate([elem_d, cur_d[carry]])
    i_all = np.concatenate([elem_i, cur_i[carry]])
    # Canonical (query, distance, index) order without a three-key
    # lexsort (8x the cost at these sizes): any-order sort by distance,
    # then a stable sort by the 16-bit query id (a radix pass), then
    # index order restored inside the runs of equal (query, distance) —
    # none on generic data, every element on lattices and duplicates.
    order = np.argsort(d_all)
    order = order[np.argsort(q_all[order].astype(np.uint16), kind="stable")]
    q_sorted, d_sorted = q_all[order], d_all[order]
    tied = (q_sorted[1:] == q_sorted[:-1]) & (d_sorted[1:] == d_sorted[:-1])
    if tied.any():
        starts_run = np.r_[True, ~tied]
        pos = np.nonzero(np.r_[False, tied] | np.r_[tied, False])[0]
        run = np.cumsum(starts_run)[pos]
        order[pos] = order[pos][np.lexsort((i_all[order[pos]], run))]
    # Rank of each candidate within its query segment; the first k win.
    seg_start = np.nonzero(np.r_[True, q_sorted[1:] != q_sorted[:-1]])[0]
    rank = np.arange(q_sorted.size) - np.repeat(
        seg_start, np.diff(np.r_[seg_start, q_sorted.size])
    )
    keep = order[rank < k]
    # The kept entries form exactly k rows per touched query, ascending
    # by query.
    best_d[touched] = d_all[keep].reshape(touched.size, k)
    best_i[touched] = i_all[keep].reshape(touched.size, k)
    kth[touched] = best_d[touched, -1]


_BLOCK_ENGINES = {"scan": _scan_block, "sweep": _sweep_block}
