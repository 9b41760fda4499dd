"""Multi-process serving of one memmapped artifact: parity + no leaks.

The composition the memory plane exists for: worker processes of the
``shm_processes`` backend score a memmap-loaded ensemble. Arena-backed
arrays cross the process boundary as file references (no ``/dev/shm``
segment, no serialized copy), every process maps the artifact
read-only, and the scores stay bitwise-identical to the in-RAM model.
"""

import os
import pickle

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import KNN, IsolationForest
from repro.memory.arena import release_mappings
from repro.parallel.shm import SharedMemoryArena, attach_array
from repro.utils.persistence import load_ensemble, save_ensemble

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def shm_entries():
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_shm_")}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    Xtr = rng.standard_normal((500, 6))
    Xtr[:10] += 5.0
    Xte = rng.standard_normal((300, 6))
    return Xtr, Xte


@pytest.fixture(scope="module")
def fitted(data):
    Xtr, _ = data
    pool = [
        IsolationForest(n_estimators=20, random_state=0),
        IsolationForest(n_estimators=20, random_state=1),
        KNN(n_neighbors=8),
    ]
    return SUOD(pool, approx_flag_global=False, random_state=0).fit(Xtr)


class TestSharedMemmapServing:
    def test_two_workers_bitwise_and_leak_free(self, fitted, data, tmp_path):
        _, Xte = data
        ref = fitted.decision_function(Xte)
        path = save_ensemble(fitted, tmp_path / "ens.repro")
        release_mappings()
        before = shm_entries()
        loaded = load_ensemble(path)
        loaded.n_jobs = 2
        loaded.backend = "shm_processes"
        try:
            got = loaded.decision_function(Xte)
        finally:
            backend = getattr(loaded, "_backend", None)
            if backend is not None and hasattr(backend, "shutdown"):
                backend.shutdown()
            release_mappings()
        assert np.array_equal(got, ref)
        # Leak check: serving a file-backed artifact must create no
        # lingering /dev/shm segments and no temp copies of the file.
        assert shm_entries() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.repro"]

    def test_arena_arrays_share_as_file_references(self, fitted, data, tmp_path):
        path = save_ensemble(fitted, tmp_path / "ens.repro")
        release_mappings()
        loaded = load_ensemble(path)
        est = next(e for e in loaded.base_estimators_ if hasattr(e, "forest_"))
        view = est.forest_.threshold
        arena = SharedMemoryArena()
        try:
            handle = arena.share(view)
            # File-backed: no /dev/shm segment is created for the blob.
            assert handle.path is not None
            assert handle.name == ""
            assert arena.total_bytes == 0
            clone = attach_array(pickle.loads(pickle.dumps(handle)))
            assert not clone.flags.writeable
            assert np.array_equal(clone, view, equal_nan=True)
        finally:
            arena.dispose()
            release_mappings()

    def test_artifact_never_mapped_writable(self, fitted, data, tmp_path):
        path = save_ensemble(fitted, tmp_path / "ens.repro")
        release_mappings()
        load_ensemble(path)
        try:
            with open("/proc/self/maps") as fh:
                maps = [line for line in fh if str(path) in line]
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        finally:
            release_mappings()
        assert maps, "expected the artifact to be memory-mapped"
        for line in maps:
            perms = line.split()[1]
            assert "w" not in perms, f"writable mapping of artifact: {line}"
