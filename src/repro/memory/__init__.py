"""Memory plane: file-backed arenas and out-of-core scoring.

Two capabilities, both opt-in and both preserving the bitwise contract
of the compute kernels:

- :mod:`repro.memory.arena` — read-only ``np.memmap`` views over the
  arena blobs of a saved ensemble artifact, picklable *by reference* so
  N worker processes share one page-cache copy of the kernel arenas;
- :mod:`repro.memory.outofcore` — ``score_out_of_core`` streams the row
  axis of a disk-resident dataset through ``decision_function`` with a
  bounded ring of reusable row-block buffers, bitwise-identical to
  scoring the whole matrix in RAM.
"""

from repro.memory.arena import (
    ALIGNMENT,
    ArenaView,
    align_up,
    load_view,
    mapped_file,
    release_mappings,
)
from repro.memory.outofcore import (
    RowBlockRing,
    open_rows,
    save_rows,
    score_out_of_core,
)

__all__ = [
    "ALIGNMENT",
    "ArenaView",
    "align_up",
    "load_view",
    "mapped_file",
    "release_mappings",
    "RowBlockRing",
    "open_rows",
    "save_rows",
    "score_out_of_core",
]
