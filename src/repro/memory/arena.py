"""File-backed arena views over ensemble artifact blobs.

The v2 ensemble artifact (:mod:`repro.utils.persistence`) stores every
large kernel array — flat forest arenas, KD-tree node/data arrays, the
train-score reference — as an aligned raw segment after the model
pickle. Loading does not read those bytes: it maps the artifact once
per process with a read-only ``np.memmap`` and hands the model
:class:`ArenaView` slices of the mapping. Pages fault in on first
touch, so a 600-model pool pays cold-start cost only for the detectors
a session actually scores, and N worker processes mapping the same
artifact share one page-cache copy of every arena.

:class:`ArenaView` pickles *by reference* (path, offset, dtype, shape)
when it still describes a whole blob, which is what lets task partials
bound to loaded estimators cross process boundaries as descriptors
instead of data — the same trick :class:`~repro.parallel.shm.SharedArrayHandle`
plays for ``/dev/shm`` segments, composed here with file-backed ones.

Everything is read-only by construction: the mapping is opened with
``mode='r'``, so every derived view has ``writeable=False`` and an
accidental in-place mutation of a shared artifact raises instead of
corrupting every process serving it.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

__all__ = [
    "ALIGNMENT",
    "ArenaView",
    "align_up",
    "canonical_path",
    "load_view",
    "mapped_file",
    "release_mappings",
]

# Arena blobs are aligned so every float64/float32 view is naturally
# aligned and blob starts sit on cache-line boundaries.
ALIGNMENT = 64


def align_up(offset: int) -> int:
    """Round ``offset`` up to the next :data:`ALIGNMENT` boundary."""
    return (int(offset) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


# Per-process cache of read-only byte mappings, one per artifact file.
# Every ArenaView of an artifact slices the same mapping, so attaching
# an ensemble costs one mmap per process regardless of blob count.
# Spelling -> canonical-path cache: an artifact with hundreds of blobs
# calls load_view once per blob, and a realpath() syscall per call would
# dominate attachment cost.
_mapped: dict[str, np.memmap] = {}
_canonical: dict[str, str] = {}
_mapped_lock = threading.Lock()


def canonical_path(path) -> str:
    path = os.fspath(path)
    key = _canonical.get(path)
    if key is None:
        key = os.path.realpath(path)
        _canonical[path] = key
    return key


def mapped_file(path) -> np.memmap:
    """The process-wide read-only byte mapping of ``path`` (cached)."""
    key = canonical_path(path)
    with _mapped_lock:
        raw = _mapped.get(key)
        if raw is None:
            raw = np.memmap(key, dtype=np.uint8, mode="r")
            _mapped[key] = raw
        return raw


def release_mappings() -> None:
    """Drop the mapping cache (tests / artifact hot-swap).

    Mappings with live ArenaViews stay valid — the views keep their
    buffer alive — but new loads re-map, so a replaced artifact file is
    picked up.
    """
    with _mapped_lock:
        _mapped.clear()
        _canonical.clear()


class ArenaView(np.ndarray):
    """Read-only ndarray slice of a memmapped artifact blob.

    A view created by :func:`load_view` carries ``_arena_source`` —
    ``(path, offset, dtype, shape)`` — and pickles as that reference,
    re-attaching through the per-process mapping cache on load. Views
    *derived* from it (slices, reshapes, ufunc results) drop the source
    and pickle by value like any ndarray, because they no longer
    describe the blob: the source is an *instance* attribute set only
    by :func:`load_view`, and derived arrays fall back to the class
    default ``None``. Deliberately no ``__array_finalize__`` override —
    numpy calls it Python-level on every derived array, which would tax
    every kernel operation over a served arena.
    """

    _arena_source: tuple | None = None

    def __reduce__(self):
        src = self._arena_source
        if src is None:
            return super().__reduce__()
        return (load_view, src)


def load_view(path, offset: int, dtype, shape) -> ArenaView:
    """Attach the blob at ``(path, offset)`` as a read-only ArenaView.

    Zero data bytes are read: the slice is a window into the process's
    single mapping of ``path`` and pages materialise on first access.
    """
    raw = mapped_file(path)
    dt = np.dtype(dtype)
    shape = tuple(int(s) for s in shape)
    # math.prod, not np.prod: attachment runs one load_view per blob,
    # and a numpy reduction over a 2-tuple costs more than the whole
    # ndarray construction below.
    nbytes = math.prod(shape) * dt.itemsize
    offset = int(offset)
    if offset + nbytes > raw.size:
        raise ValueError(
            f"arena blob [{offset}:{offset + nbytes}] exceeds {path} "
            f"({raw.size} bytes): truncated or foreign artifact"
        )
    # Construct the window directly on the mapping's buffer: one
    # ndarray allocation instead of a slice/view/reshape chain through
    # the memmap subclass (which costs ~5x per blob — attachment walks
    # one load_view per blob, so constant factors are the cold start).
    # The mapping is mode='r', so the buffer is read-only and the view
    # inherits writeable=False.
    view = np.ndarray(shape, dtype=dt, buffer=raw, offset=offset).view(ArenaView)
    view._arena_source = (canonical_path(path), offset, dt.str, shape)
    return view
