"""Model persistence: save/load fitted estimators and SUOD ensembles.

Deployment use (§4.5): a SUOD system is fitted offline and reused to
score claim batches for months. Two levels of helper:

- :func:`save_model` / :func:`load_model` — any single estimator
  (fitted or not) behind a magic + format-version header; a plain,
  self-contained pickle.
- :func:`save_ensemble` / :func:`load_ensemble` — a *fitted*
  :class:`repro.SUOD` in the **v2 arena artifact format**: a binary
  container holding a pickled header (schema version, library version,
  structural manifest, arena index), the model pickle, and every large
  kernel array — flat forest arenas, KD-tree node/data blocks, the
  train-score reference — as 64-byte-aligned raw segments. Loading
  does *not* read the segments: it attaches them as read-only
  ``np.memmap`` views (:class:`repro.memory.arena.ArenaView`), so cold
  start touches no data pages until first score and N worker processes
  share one page-cache copy of the arenas.

Schema versioning is strict in both directions: a v1 file (the plain
pickle format of earlier releases) or any other schema version raises
``ValueError`` naming both versions; the structural manifest written at
save time must match the loaded object exactly.
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
    ArenaView,
    align_up,
    canonical_path,
    mapped_file,
    serialize_arenas,
)

__all__ = [
    "save_model",
    "load_model",
    "save_ensemble",
    "load_ensemble",
    "read_ensemble_header",
]

_MAGIC = "repro-model"
_FORMAT_VERSION = 1

_ENSEMBLE_MAGIC = "repro-ensemble"
# Bump whenever the persisted SUOD attribute layout or the container
# format changes shape. v1 = plain pickle payload; v2 = arena container.
ENSEMBLE_SCHEMA_VERSION = 2
# v2 container preamble: 8 magic bytes + uint64-LE header-pickle length.
_V2_MAGIC = b"RPRENSB2"
_V2_PREAMBLE = struct.Struct("<8sQ")

# Arrays smaller than this stay inline in the model pickle: a manifest
# entry plus alignment padding costs more than it saves. Above it,
# externalizing wins twice — attachment is ~2µs of hoisted-geometry
# Python per blob (cheaper than the C unpickler's memcpy beyond a few
# KB), and blobs never touched at serve time (per-tree node arrays,
# superseded by the flat forest caches) never fault a page, so they
# cost no RSS at all.
_ARENA_MIN_BYTES = 1024


def _read_payload(path: Path, magic: str, kind: str) -> dict:
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or payload.get("magic") != magic:
        raise ValueError(f"{path} is not a {kind} file")
    return payload


class _InlinePickler(pickle.Pickler):
    """Pickler that materialises ArenaViews into self-contained bytes.

    ``ArenaView.__reduce__`` ships a file reference (the behaviour task
    pickles want); a saved *model file* must stand alone, so this
    pickler copies the bytes back in.
    """

    def reducer_override(self, obj):
        from repro.memory.arena import ArenaView

        if isinstance(obj, ArenaView):
            return np.array(obj, copy=True).__reduce__()
        return NotImplemented


class _ArenaPickler(_InlinePickler):
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

    def reducer_override(self, obj):  # ArenaViews go through persistent_id
        return NotImplemented

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
    offset, dtype object, shape tuple, bounds check) are resolved once
    up front: ``persistent_load`` runs once per blob *reference* and an
    ensemble carries thousands, so anything done there is the memmap
    cold-start constant. The per-index cache also preserves identity —
    an array shared by two estimators at save time dedupes to one blob
    and comes back as one shared view, not two.
    """

    def __init__(self, file, path: str, data_start: int, specs: list):
        super().__init__(file)
        raw = mapped_file(path)
        key = canonical_path(path)
        geometry = []
        for spec in specs:
            offset = data_start + int(spec["offset"])
            dt = np.dtype(spec["dtype"])
            shape = tuple(int(s) for s in spec["shape"])
            # math.prod, not np.prod: this loop runs once per blob and a
            # numpy reduction over a 2-tuple costs more than the whole
            # view construction below.
            nbytes = math.prod(shape) * dt.itemsize
            if offset + nbytes > raw.size:
                raise ValueError(
                    f"arena blob [{offset}:{offset + nbytes}] exceeds "
                    f"{path} ({raw.size} bytes): truncated artifact"
                )
            geometry.append((offset, dt, shape, (key, offset, dt.str, shape)))
        self._raw = raw
        self._geometry = geometry
        self._views: list = [None] * len(specs)

    def persistent_load(self, pid):
        try:
            tag, idx = pid
            view = self._views[idx]
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}") from exc
        if tag != "repro-arena":
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        if view is None:
            offset, dt, shape, source = self._geometry[idx]
            # ArenaView(...) IS ndarray.__new__ on the subclass — one
            # allocation straight onto the mapping's buffer, no
            # intermediate base array + .view() hop.
            view = ArenaView(shape, dtype=dt, buffer=self._raw, offset=offset)
            view._arena_source = source
            self._views[idx] = view
        return view


def save_model(model, path) -> Path:
    """Serialise a (fitted or unfitted) estimator to ``path``.

    The payload records the library version so loads can warn/raise on
    incompatible formats. Memmap-backed arrays of a loaded ensemble are
    materialised, so the file is self-contained.
    """
    import repro

    path = Path(path)
    payload = {
        "magic": _MAGIC,
        "format_version": _FORMAT_VERSION,
        "library_version": repro.__version__,
        "model": model,
    }
    with open(path, "wb") as fh:
        _InlinePickler(fh, pickle.HIGHEST_PROTOCOL).dump(payload)
    return path


def load_model(path):
    """Load an estimator saved with :func:`save_model`.

    Raises ``ValueError`` for foreign pickles or future format versions
    (forward compatibility is not promised; backward is).
    """
    path = Path(path)
    payload = _read_payload(path, _MAGIC, "repro model")
    version = payload.get("format_version")
    if not isinstance(version, int) or version > _FORMAT_VERSION:
        raise ValueError(
            f"{path} uses format version {version}; this library reads "
            f"<= {_FORMAT_VERSION}"
        )
    return payload["model"]


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


def _prepare_serving_caches(model) -> None:
    """Materialise the derived kernel arenas an artifact should carry.

    Flat forests are lazy caches; building them before the save means
    the artifact ships ready-to-traverse arenas and a loaded worker
    never pays the flatten cost. Neighbor trees are built at fit time
    and need no preparation.
    """
    scorers = list(model.base_estimators_)
    for approx in getattr(model, "approximators_", None) or []:
        reg = getattr(approx, "regressor_", None)
        if reg is not None:
            scorers.append(reg)
    for est in scorers:
        if hasattr(est, "_flat_forest"):
            est._flat_forest()


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
    unfitted ensemble or one switched to float32 serving (artifacts
    always persist the bitwise float64 state).
    """
    import repro
    from repro.core.suod import SUOD
    from repro.memory.serving import serving_dtype

    if not isinstance(model, SUOD):
        raise TypeError(
            f"save_ensemble expects a repro.SUOD, got {type(model).__name__}; "
            "use save_model for single estimators"
        )
    if not hasattr(model, "base_estimators_"):
        raise ValueError("save_ensemble requires a fitted SUOD (call fit first)")
    if serving_dtype(model) != np.dtype(np.float64):
        raise ValueError(
            "save_ensemble persists the bitwise float64 state; call "
            "set_serving_dtype(model, 'float64') before saving"
        )
    path = Path(path)

    blobs: list[np.ndarray] = []
    buf = io.BytesIO()
    _prepare_serving_caches(model)
    with serialize_arenas():
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
        payload = _read_payload(path, _ENSEMBLE_MAGIC, "repro ensemble")
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise ValueError(f"{path} is not a repro ensemble file") from exc
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
    loaded object and must match exactly, and the arena index must fit
    the file.
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
        if specs:
            arena_end = data_start + max(s["offset"] + s["nbytes"] for s in specs)
            if os.fstat(fh.fileno()).st_size < arena_end:
                raise ValueError(
                    f"{path} failed its integrity check: the arena index "
                    f"extends to byte {arena_end} but the file is shorter "
                    "(truncated or tampered file?)"
                )
        model_bytes = fh.read(model_nbytes)
    if len(model_bytes) < model_nbytes:
        raise ValueError(
            f"{path} failed its integrity check: the model pickle is "
            "truncated (tampered file?)"
        )
    unpickler = _ArenaUnpickler(
        io.BytesIO(model_bytes), os.path.abspath(path), data_start, specs
    )
    model = unpickler.load()
    if header.get("manifest") != _ensemble_manifest(model):
        raise ValueError(
            f"{path} failed its integrity check: the stored manifest does "
            "not match the loaded ensemble (truncated or tampered file?)"
        )
    return model
