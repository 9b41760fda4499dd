"""Rank-space CART split search: a node's sort is a radix pass on uint16.

A CART node sorts its rows by every candidate feature. The feature
order of a training matrix never changes while a forest grows, so the
float comparisons are done **once per matrix**: :func:`rank_table`
replaces every column by its dense ranks (equal values share a rank,
``-0.0 == 0.0`` included), stored ``(d, n)`` so each candidate's ranks lie
in one row. A node gathers the ``(m_try, n_node)`` block of its rows'
ranks, stable-argsorts it along the row, and that permutation is the
one a stable sort of the values would give, because

- dense ranks are order- and tie-isomorphic to the values
  (``a < b  <=>  rank(a) < rank(b)``, ``a == b  <=>  rank(a) == rank(b)``)
  on the whole column and therefore on every subset of its rows, with
  or without repeats (a bootstrap sample, a subsampled boosting stage);
- a stable sort's output is a function of the keys' order relation and
  the input positions alone, never of the algorithm: NumPy's stable sort
  on 16-bit integers is an LSD radix sort, O(n) instead of the merge
  sort's O(n log n) float comparisons.

``rs[1:] > rs[:-1]`` on the sorted ranks is the same "no split between
equal values" mask, the targets are gathered through the same
permutation, and every later step — sequential ``cumsum`` down each
candidate, the elementwise proxy gain, first-maximum ``argmax`` over
positions and then over candidates — is the ufunc sequence of the
frozen float-sort builder (:func:`repro.kernels.reference.cart_fit_loop`)
applied along the other axis. A row that appears twice in a node is two
equal keys at two positions for both sorts, so duplicates cannot move a
float either. The values themselves are read back only for the chosen
split's two threshold operands.

Ranks wider than one radix digit (a column with more than ``2**16``
distinct values) are sorted by successive stable passes over their
16-bit digits, least significant first — exact LSD radix. There is one
code path: the pass count is the table's item width over the digit
width, so a ``uint16`` table takes one pass and a ``uint32`` table two.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_table", "RankedSplitSearch"]

# Width of one radix digit. NumPy's stable sort is a radix sort for
# integers of at most 16 bits; wider ranks are sorted digit by digit.
_DIGIT_BITS = 16


def rank_table(X: np.ndarray) -> np.ndarray:
    """Dense per-feature ranks of ``X`` as a ``(d, n)`` unsigned table.

    ``table[f, i]`` is the number of distinct values of column ``f``
    smaller than ``X[i, f]``. The item width is the narrowest of
    ``uint16`` / ``uint32`` / ``uint64`` that holds the largest rank.
    """
    cols = np.ascontiguousarray(X.T)
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    dense = np.zeros(cols.shape, dtype=np.int64)
    # repro: allow[contiguous-reduction] -- boolean steps counted into exact integers; summation order cannot change the value
    np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, out=dense[:, 1:])
    top = int(dense[:, -1].max()) if dense.size else 0
    dtype = next(t for t in (np.uint16, np.uint32, np.uint64) if top <= np.iinfo(t).max)
    table = np.empty(cols.shape, dtype=dtype)
    np.put_along_axis(table, order, dense.astype(dtype), axis=1)
    return table


class RankedSplitSearch:
    """Best MSE-proxy split of a node, searched over all candidates at once.

    One instance serves one tree: it holds the rank table, the leaf-size
    rule and the scratch every node reuses (left/right child sizes for
    each split position, the candidate axis).

    Parameters
    ----------
    ranks : (d, n) unsigned array from :func:`rank_table`.
    n_rows : the tree's row count (the largest node it will be asked about).
    m_try : candidate features per node.
    min_samples_leaf : smallest child a split may produce.
    """

    def __init__(
        self, ranks: np.ndarray, n_rows: int, m_try: int, min_samples_leaf: int = 1
    ):
        self._flat = ranks.reshape(-1)
        self._stride = ranks.shape[1]
        self.passes = -(-ranks.dtype.itemsize * 8 // _DIGIT_BITS)
        self.min_samples_leaf = min_samples_leaf
        self._n_left = np.arange(1.0, n_rows + 1.0)
        self._n_right = self._n_left[::-1].copy()
        self._cand = np.arange(m_try)
        self._cand_col = self._cand[:, None]

    def _stable_order(self, block: np.ndarray, row_start: np.ndarray) -> np.ndarray:
        """Stable argsort of each row of ``block``, one radix digit a pass."""
        if self.passes == 1:
            return block.argsort(axis=1, kind="stable")
        one = block.dtype.type
        mask = one((1 << _DIGIT_BITS) - 1)
        digits = (
            ((block >> one(p * _DIGIT_BITS)) & mask).astype(np.uint16)
            for p in range(self.passes)
        )
        order = next(digits).argsort(axis=1, kind="stable")
        for digit in digits:
            step = digit.take(order + row_start).argsort(axis=1, kind="stable")
            order = order.take(step + row_start)
        return order

    def __call__(
        self, rows: np.ndarray, feats: np.ndarray, y_node: np.ndarray, sum_total
    ):
        """Search the node holding table columns ``rows`` (targets ``y_node``,
        their sum ``sum_total``) over candidate features ``feats``.

        Returns ``(j, pos, order)`` — the winning candidate is ``feats[j]``,
        ``order`` sorts the node by it and the split puts positions
        ``[0..pos]`` left — or ``None`` when no valid split exists (every
        candidate constant on the node, or ``min_samples_leaf``
        unsatisfiable).
        """
        n_i = rows.size
        # Flat gathers: O(m_try * n_i) whatever the table's size.
        block = self._flat.take((feats * self._stride)[:, None] + rows)
        row_start = self._cand_col * n_i
        order = self._stable_order(block, row_start)
        rs = block.take(order + row_start)
        ys = y_node[order]
        # Candidate split after position i (left gets [0..i]); the cumsum
        # runs sequentially along each candidate's row.
        csum = ys.cumsum(axis=1)[:, :-1]
        # Weighted variance reduction simplifies to maximising
        # sum_l^2 / n_l + sum_r^2 / n_r (the "proxy" criterion).
        proxy = csum * csum
        proxy /= self._n_left[: n_i - 1]
        right = sum_total - csum
        right *= right
        right /= self._n_right[self._n_right.size - n_i + 1 :]
        proxy += right
        invalid = rs[:, 1:] <= rs[:, :-1]  # no split between equal values
        msl = self.min_samples_leaf
        if msl > 1:
            invalid[:, : msl - 1] = True
            invalid[:, n_i - msl :] = True
        np.putmask(proxy, invalid, -np.inf)
        pos = proxy.argmax(axis=1)
        col_best = proxy[self._cand, pos]
        # First maximum wins, i.e. a strict-> update over candidates in
        # ``feats`` order; a candidate with no valid split carries -inf and
        # can only "win" when every candidate does, i.e. no split exists.
        j = int(col_best.argmax())
        # repro: allow[float-equality] -- -inf is an exact sentinel assigned by construction, never computed
        if col_best[j] == -np.inf:
            return None
        return j, int(pos[j]), order[j]
