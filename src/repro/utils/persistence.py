"""Ensemble persistence: save/load fitted SUOD ensembles.

Deployment use (§4.5): a SUOD system is fitted offline and reused to
score claim batches for months. :func:`save_ensemble` /
:func:`load_ensemble` write and read a *fitted* :class:`repro.SUOD` in
the **arena artifact format**: a binary container holding a pickled
header (schema version, library version, structural manifest, arena
index), the model pickle, and every large kernel array — flat forest
arenas, KD-tree node/data blocks, the train-score reference — as
64-byte-aligned raw segments. Loading does *not* read the segments: it
attaches them as read-only ``np.memmap`` views
(:class:`repro.memory.arena.ArenaView`), so cold start touches no data
pages until first score and N worker processes share one page-cache
copy of the arenas. A single estimator needs none of this: it is a
plain ``pickle``.

Schema versioning is strict in both directions: a v1 file (the plain
pickle format of earlier releases) or any other schema version raises
``ValueError`` naming both versions; the structural manifest written at
save time must match the loaded object exactly, and the arena index
must describe aligned segments inside the file.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import struct
from pathlib import Path

import numpy as np

from repro.memory.arena import (
    ALIGNMENT,
    ArenaView,
    align_up,
    canonical_path,
    mapped_file,
)

__all__ = [
    "save_ensemble",
    "load_ensemble",
    "read_ensemble_header",
]

_ENSEMBLE_MAGIC = "repro-ensemble"
# Bump whenever the persisted SUOD attribute layout or the container
# format changes shape. v1 = plain pickle payload; v2 = arena container;
# v3 = every forest is its flat arena (no per-tree objects).
ENSEMBLE_SCHEMA_VERSION = 3
# Container preamble: 8 magic bytes + uint64-LE header-pickle length.
_V2_MAGIC = b"RPRENSB2"
_V2_PREAMBLE = struct.Struct("<8sQ")

# Arrays smaller than this stay inline in the model pickle: a manifest
# entry plus alignment padding costs more than it saves. Above it,
# externalizing wins twice — attachment is ~2µs of hoisted-geometry
# Python per blob (cheaper than the C unpickler's memcpy beyond a few
# KB), and blobs a server never scores (the arenas of detectors it
# does not touch) never fault a page, so they cost no RSS at all.
_ARENA_MIN_BYTES = 1024


class _ArenaPickler(pickle.Pickler):
    """Pickler that externalises large arrays into artifact blobs.

    Every C-contiguous, non-object ndarray of at least
    ``_ARENA_MIN_BYTES`` is replaced in the stream by a persistent id
    ``("repro-arena", index)`` and appended to the blob list; identical
    array objects dedupe to one blob. Non-contiguous arrays pickle
    inline — copying them would change nothing for parity but the repo
    has none large enough to matter.
    """

    def __init__(self, file, blobs: list, protocol=pickle.HIGHEST_PROTOCOL):
        super().__init__(file, protocol)
        self._blobs = blobs
        self._index_by_id: dict[int, int] = {}

    def persistent_id(self, obj):
        if not isinstance(obj, np.ndarray):
            return None
        if obj.dtype.hasobject or not obj.flags.c_contiguous:
            return None
        if obj.nbytes < _ARENA_MIN_BYTES:
            return None
        idx = self._index_by_id.get(id(obj))
        if idx is None:
            idx = len(self._blobs)
            self._blobs.append(obj)
            self._index_by_id[id(obj)] = idx
        return ("repro-arena", idx)


class _ArenaUnpickler(pickle.Unpickler):
    """Unpickler resolving arena ids to read-only memmap views.

    The mapping, canonical path, and per-blob geometry (absolute
    offset, dtype object, shape tuple) are resolved and checked once up
    front: ``persistent_load`` runs once per blob *reference*, so
    anything done there is the memmap cold-start constant. Every spec
    must be a 64-byte-aligned segment inside the file whose ``nbytes``
    matches its shape and dtype, and every persistent id must name one
    of them; anything else is the integrity ``ValueError``. The
    per-index cache also preserves identity — an array shared by two
    estimators at save time dedupes to one blob and comes back as one
    shared view, not two.
    """

    def __init__(self, file, path: str, data_start: int, file_size: int, specs: list):
        super().__init__(file)
        raw = mapped_file(path)
        key = canonical_path(path)
        geometry = []
        for i, spec in enumerate(specs):
            rel = int(spec["offset"])
            dt = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
            # math.prod, not np.prod: this loop runs once per blob and a
            # numpy reduction over a 2-tuple costs more than the whole
            # view construction below.
            nbytes = math.prod(shape) * dt.itemsize
            offset = data_start + rel
            if (
                rel < 0
                or rel % ALIGNMENT
                or min(shape, default=0) < 0
                or int(spec["nbytes"]) != nbytes
                or offset + nbytes > file_size
            ):
                raise ValueError(
                    f"{path} failed its integrity check: arena blob {i} "
                    f"({spec}) is not an aligned segment inside the "
                    f"{file_size}-byte file (truncated or tampered file?)"
                )
            geometry.append((offset, dt, shape, (key, offset, dt.str, shape)))
        self._path = path
        self._raw = raw
        self._geometry = geometry
        self._views: list = [None] * len(specs)

    def persistent_load(self, pid):
        n_blobs = len(self._views)
        if not (
            type(pid) is tuple
            and len(pid) == 2
            and pid[0] == "repro-arena"
            and type(pid[1]) is int
            and 0 <= pid[1] < n_blobs
        ):
            raise ValueError(
                f"{self._path} failed its integrity check: the model "
                f"references arena {pid!r} but the index holds {n_blobs} "
                "blobs (tampered file?)"
            )
        idx = pid[1]
        view = self._views[idx]
        if view is None:
            offset, dt, shape, source = self._geometry[idx]
            # ArenaView(...) IS ndarray.__new__ on the subclass — one
            # allocation straight onto the mapping's buffer, no
            # intermediate base array + .view() hop.
            view = ArenaView(shape, dtype=dt, buffer=self._raw, offset=offset)
            view._arena_source = source
            self._views[idx] = view
        return view


def _ensemble_manifest(model) -> dict:
    """Structural facts checked on load (corruption / drift tripwire)."""
    from repro.detectors.registry import family_of

    return {
        "n_models": len(model.base_estimators_),
        "n_features_in": int(model.n_features_in_),
        "families": [family_of(est) for est in model.base_estimators_],
        "n_projected": int(model.rp_flags_.sum()),
        "n_approximated": int(model.approx_flags_.sum()),
        "has_cost_predictor": model.cost_predictor is not None,
        "combination": model.combination,
        "standardisation": model.standardisation,
    }


def save_ensemble(model, path) -> Path:
    """Serialise a *fitted* :class:`repro.SUOD` ensemble to ``path``.

    Everything prediction needs rides along: fitted detectors, the
    per-model projectors, the PSA approximators, the train-score
    reference matrix, the threshold, and the fitted cost predictor (if
    one was passed) — so a reloaded ensemble schedules and scores
    identically. Run telemetry (plans, execution results) is excluded
    by ``SUOD.__getstate__``; training data never enters the file.

    Every large kernel array is written as an aligned raw segment that
    :func:`load_ensemble` serves via read-only memmap; arrays below
    ``_ARENA_MIN_BYTES`` stay inline in the model pickle.

    Raises ``TypeError`` for non-SUOD inputs and ``ValueError`` for an
    unfitted ensemble.
    """
    import repro
    from repro.core.suod import SUOD

    if not isinstance(model, SUOD):
        raise TypeError(
            f"save_ensemble expects a repro.SUOD, got {type(model).__name__}; "
            "pickle a single estimator directly"
        )
    if not hasattr(model, "base_estimators_"):
        raise ValueError("save_ensemble requires a fitted SUOD (call fit first)")
    path = Path(path)

    blobs: list[np.ndarray] = []
    buf = io.BytesIO()
    _ArenaPickler(buf, blobs).dump(model)
    model_bytes = buf.getvalue()

    specs = []
    rel = 0
    for blob in blobs:
        rel = align_up(rel)
        specs.append(
            {
                "offset": rel,
                "nbytes": int(blob.nbytes),
                "dtype": blob.dtype.str,
                "shape": list(blob.shape),
            }
        )
        rel += int(blob.nbytes)

    header = {
        "magic": _ENSEMBLE_MAGIC,
        "schema_version": ENSEMBLE_SCHEMA_VERSION,
        "library_version": repro.__version__,
        "manifest": _ensemble_manifest(model),
        "model_nbytes": len(model_bytes),
        "arenas": specs,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    data_start = align_up(_V2_PREAMBLE.size + len(header_bytes) + len(model_bytes))

    with open(path, "wb") as fh:
        fh.write(_V2_PREAMBLE.pack(_V2_MAGIC, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(model_bytes)
        for blob, spec in zip(blobs, specs):
            target = data_start + spec["offset"]
            fh.write(b"\0" * (target - fh.tell()))
            fh.write(memoryview(blob).cast("B"))
    return path


def read_ensemble_header(path) -> dict:
    """The v2 artifact header (schema/manifest/arena index), model unread.

    Cheap introspection for registries and ops tooling: only the
    preamble and header pickle are read.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        preamble = fh.read(_V2_PREAMBLE.size)
        if len(preamble) < _V2_PREAMBLE.size or preamble[:8] != _V2_MAGIC:
            raise ValueError(f"{path} is not a v2 repro ensemble artifact")
        _, header_len = _V2_PREAMBLE.unpack(preamble)
        header = pickle.loads(fh.read(header_len))
    if not isinstance(header, dict) or header.get("magic") != _ENSEMBLE_MAGIC:
        raise ValueError(f"{path} is not a repro ensemble file")
    return header


def _reject_v1(path: Path) -> None:
    """Diagnose a non-v2 file: legacy v1 ensemble, or foreign data."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise ValueError(f"{path} is not a repro ensemble file") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _ENSEMBLE_MAGIC:
        raise ValueError(f"{path} is not a repro ensemble file")
    version = payload.get("schema_version")
    raise ValueError(
        f"{path} was saved with ensemble schema version {version}; "
        f"this library reads exactly version {ENSEMBLE_SCHEMA_VERSION}. "
        "Re-save the ensemble with a matching library."
    )


def load_ensemble(path):
    """Load a fitted SUOD saved with :func:`save_ensemble`.

    Arena segments are attached as read-only memmap views, not read:
    cold start materialises no data pages, first-score faults in only
    the arenas the scored detectors actually touch, and every process
    loading the same artifact shares one page-cache copy.

    Schema versioning is strict: a file written under any *different*
    schema version (including legacy v1 plain-pickle files) raises
    ``ValueError`` naming both versions — an ensemble is deployed
    state, so a silent partial load would mean silently wrong scores.
    The structural manifest written at save time is re-derived from the
    loaded object and must match exactly, and the arena index must
    describe aligned segments inside the file.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        preamble = fh.read(_V2_PREAMBLE.size)
        if len(preamble) < _V2_PREAMBLE.size or preamble[:8] != _V2_MAGIC:
            _reject_v1(path)
        _, header_len = _V2_PREAMBLE.unpack(preamble)
        header = pickle.loads(fh.read(header_len))
        if not isinstance(header, dict) or header.get("magic") != _ENSEMBLE_MAGIC:
            raise ValueError(f"{path} is not a repro ensemble file")
        version = header.get("schema_version")
        if version != ENSEMBLE_SCHEMA_VERSION:
            raise ValueError(
                f"{path} was saved with ensemble schema version {version}; "
                f"this library reads exactly version {ENSEMBLE_SCHEMA_VERSION}. "
                "Re-save the ensemble with a matching library."
            )
        model_nbytes = int(header["model_nbytes"])
        specs = header.get("arenas") or []
        data_start = align_up(_V2_PREAMBLE.size + header_len + model_nbytes)
        file_size = os.fstat(fh.fileno()).st_size
        model_bytes = fh.read(model_nbytes)
    if len(model_bytes) < model_nbytes:
        raise ValueError(
            f"{path} failed its integrity check: the model pickle is "
            "truncated (tampered file?)"
        )
    unpickler = _ArenaUnpickler(
        io.BytesIO(model_bytes), os.path.abspath(path), data_start, file_size, specs
    )
    model = unpickler.load()
    if header.get("manifest") != _ensemble_manifest(model):
        raise ValueError(
            f"{path} failed its integrity check: the stored manifest does "
            "not match the loaded ensemble (truncated or tampered file?)"
        )
    return model
