"""Row-chunking of scoring work: tunable task grain for the scheduler.

The paper's scheduling unit is "one model". That grain is coarse: a
single expensive model lower-bounds the makespan no matter how good the
schedule, and one task must hold all n rows in memory at once. Splitting
the sample axis into row blocks turns the unit into (model × chunk):

- the longest task shrinks by the chunk factor, so a static schedule
  can pack workers tighter;
- peak per-task memory is bounded by ``batch_size`` rows, which is what
  lets a dataset larger than a worker's budget stream through;
- per-row scorers are row-separable, so chunked results are *bitwise
  identical* to unchunked ones — the chunk boundaries only change the
  execution order, never the arithmetic.

Helpers here are deliberately dumb data-plane code; policy (how chunks
are scheduled) stays in :mod:`repro.scheduling` and callers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_slices", "n_chunks", "scatter_chunk_results"]


def chunk_slices(n_rows: int, batch_size: int) -> list[slice]:
    """Contiguous row slices of at most ``batch_size`` rows covering
    ``range(n_rows)`` in order.

    The last slice may be short; an empty input yields no slices.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    return [
        slice(start, min(start + batch_size, n_rows))
        for start in range(0, n_rows, batch_size)
    ]


def n_chunks(n_rows: int, batch_size: int) -> int:
    """Number of row blocks ``chunk_slices`` would produce."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return -(-n_rows // batch_size) if n_rows > 0 else 0


def scatter_chunk_results(
    chunk_results, owners, n_models: int, n_rows: int
) -> np.ndarray:
    """Reassemble (model × chunk) outputs into an ``(m, n)`` score matrix.

    Parameters
    ----------
    chunk_results : sequence of 1-D arrays
        Per-task score vectors, aligned with ``owners``.
    owners : sequence of (model_index, row_slice)
        Which matrix block each task result fills.
    n_models, n_rows : int
        Output matrix shape.
    """
    if len(chunk_results) != len(owners):
        raise ValueError("chunk_results and owners must align")
    matrix = np.empty((n_models, n_rows), dtype=np.float64)
    for scores, (model_idx, sl) in zip(chunk_results, owners):
        block = np.asarray(scores, dtype=np.float64)
        expected = sl.stop - sl.start
        if block.shape != (expected,):
            raise ValueError(
                f"chunk result for model {model_idx} rows {sl.start}:{sl.stop} "
                f"has shape {block.shape}, expected ({expected},)"
            )
        matrix[model_idx, sl] = block
    return matrix
