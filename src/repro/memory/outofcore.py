"""Out-of-core scoring: stream a disk-resident row axis through a model.

A fitted SUOD's ``decision_function`` is row-separable end to end —
projection, every kernel, ECDF/z-score standardisation against the
*training* reference, and the per-row combiners all compute each
sample's score independently of which other rows share its batch (the
property the parity suite pins). That makes out-of-core scoring
trivial to make exact: memmap the dataset read-only, copy one row
block at a time into a small ring of reusable RAM buffers, and push
each block through the standard plan path. The scores are
bitwise-identical to scoring the whole matrix in RAM, while the
resident working set stays at ``ring_buffers * block_rows * d * 8``
bytes regardless of dataset size.

The ring exists so the resident budget is explicit and fixed: buffers
are allocated once up front and reused round-robin, so no per-block
allocation churn and no hidden growth. ``decision_function`` is
synchronous, so a buffer is never handed out again while a plan still
reads it; the ring's spare buffer leaves room for callers that overlap
block preparation with scoring.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "RowBlockRing",
    "block_rows_for_budget",
    "open_rows",
    "save_rows",
    "score_out_of_core",
]

# Default resident budget for the block ring: small enough that a
# laptop-sized host never notices, large enough that per-block plan
# overhead is amortised over tens of thousands of rows.
DEFAULT_MEMORY_BUDGET = 64 << 20


def save_rows(X, path) -> Path:
    """Write ``X`` to ``path`` as a standard ``.npy`` file.

    Writer-side helper for building out-of-core datasets; the serving
    side never opens artifacts writable.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("save_rows expects a 2-D (n_samples, n_features) array")
    path = Path(path)
    with open(path, "wb") as fh:
        np.save(fh, X)
    return path


def open_rows(path) -> np.ndarray:
    """Memory-map a ``.npy`` dataset read-only for streaming row access."""
    X = np.load(path, mmap_mode="r")
    if X.ndim != 2:
        raise ValueError(f"{path} holds a {X.ndim}-D array, expected 2-D rows")
    return X


def block_rows_for_budget(
    memory_budget_bytes: int,
    n_features: int,
    *,
    ring_buffers: int = 2,
) -> int:
    """Largest block height whose ring of float64 blocks fits the
    resident budget."""
    per_row = max(1, int(n_features)) * 8 * max(1, int(ring_buffers))
    return max(1, int(memory_budget_bytes) // per_row)


class RowBlockRing:
    """Fixed pool of reusable float64 row-block buffers, handed out
    round-robin."""

    def __init__(self, block_rows: int, n_features: int, *, n_buffers: int = 2):
        if block_rows < 1 or n_buffers < 1:
            raise ValueError("block_rows and n_buffers must be >= 1")
        self.block_rows = int(block_rows)
        self.n_features = int(n_features)
        self._buffers = [
            np.empty((self.block_rows, self.n_features), dtype=np.float64)
            for _ in range(int(n_buffers))
        ]
        self._next = 0

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers)

    def fill(self, block: np.ndarray) -> np.ndarray:
        """Copy ``block`` into the next ring buffer; return the filled view.

        The copy is the single disk→RAM transfer per block (pages of a
        memmapped source fault in here); the returned view is a prefix
        of a reused buffer, so callers must consume it before two more
        ``fill`` calls.
        """
        rows = block.shape[0]
        if rows > self.block_rows or block.shape[1] != self.n_features:
            raise ValueError(
                f"block {block.shape} does not fit ring blocks "
                f"({self.block_rows}, {self.n_features})"
            )
        buf = self._buffers[self._next]
        self._next = (self._next + 1) % len(self._buffers)
        out = buf[:rows]
        np.copyto(out, block)
        return out


def score_out_of_core(
    model,
    X,
    *,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
    block_rows: int | None = None,
    ring_buffers: int = 2,
) -> np.ndarray:
    """Score a (possibly memmapped) dataset block-by-block.

    ``X`` is any 2-D array-like with row slicing — typically the
    read-only memmap from :func:`open_rows`, so datasets far larger
    than RAM stream from disk. Each block runs through
    ``model.decision_function`` (the standard compiled plan path), and
    row separability makes the concatenated result bitwise-identical
    to ``model.decision_function(X)`` on an in-RAM copy.
    """
    if getattr(X, "ndim", None) != 2:
        raise ValueError("score_out_of_core expects a 2-D row dataset")
    n, d = X.shape
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if block_rows is None:
        block_rows = block_rows_for_budget(
            memory_budget_bytes, d, ring_buffers=ring_buffers
        )
    block_rows = min(int(block_rows), n)
    ring = RowBlockRing(block_rows, d, n_buffers=ring_buffers)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        out[start:stop] = model.decision_function(ring.fill(X[start:stop]))
    return out
