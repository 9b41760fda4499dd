"""Serving-plane fixtures: hang watchdog, leak gate, tiny fitted pool, artifact.

The watchdog is the safety net for the asyncio/socket tests in this
package: a deadlocked event loop or a lost wakeup would otherwise hang
the whole CI job silently. ``faulthandler.dump_traceback_later`` arms a
per-test timer that dumps every thread's stack and hard-exits, so a
hang fails loudly with the evidence attached.

The leak gate fails any test after which a child process of the test
process (a scoring worker nobody joined) or a ``/dev/shm/repro_shm_*``
segment it created is still there.
"""

import asyncio
import faulthandler
import multiprocessing.resource_tracker
import os
import time

import pytest

from repro.core.suod import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import KNN, IsolationForest
from repro.utils.persistence import save_ensemble

#: Generous per-test ceiling: the slowest test here (the subprocess
#: boot) takes a few seconds; anything past this is a hang, not load.
WATCHDOG_S = 120.0


@pytest.fixture(autouse=True)
def hang_watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def child_pids(parent: int | None = None) -> set[int]:
    """Pids whose parent is ``parent`` (this process by default)."""
    parent = os.getpid() if parent is None else parent
    pids = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                # The fields after "(comm)" start with state, then ppid.
                ppid = int(f.read().rpartition(")")[2].split()[1])
        except (OSError, IndexError, ValueError):  # exited while listed
            continue
        if ppid == parent:
            pids.add(int(name))
    return pids


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")}
    except OSError:
        return set()


@pytest.fixture(autouse=True)
def leak_gate():
    before_children, before_segments = child_pids(), _shm_segments()
    yield
    # The multiprocessing resource tracker lives as long as this process.
    tracker = multiprocessing.resource_tracker._resource_tracker._pid
    deadline = time.monotonic() + 5.0
    while True:  # a pool joins its workers asynchronously: allow a moment
        children = child_pids() - before_children - {tracker}
        segments = _shm_segments() - before_segments
        if not (children or segments) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not children, f"child processes outlived the test: {sorted(children)}"
    assert not segments, f"shared-memory segments outlived the test: {segments}"


@pytest.fixture
def run_async():
    """Run a coroutine on a fresh loop with an inner safety timeout."""

    def runner(coro, timeout=30.0):
        return asyncio.run(asyncio.wait_for(coro, timeout=timeout))

    return runner


@pytest.fixture(scope="session")
def serving_model():
    """A small fitted SUOD pool — cheap to score, real plan machinery."""
    X, _ = make_outlier_dataset(
        n_samples=240, n_features=6, contamination=0.1, random_state=11
    )
    model = SUOD(
        [
            IsolationForest(n_estimators=20, max_samples=64, random_state=0),
            KNN(n_neighbors=5),
        ],
        approx_flag_global=False,
        random_state=0,
    ).fit(X)
    return model


@pytest.fixture(scope="session")
def serving_rows():
    """Request rows drawn from the same distribution as the fit data."""
    X, _ = make_outlier_dataset(
        n_samples=64, n_features=6, contamination=0.1, random_state=12
    )
    return X


@pytest.fixture(scope="session")
def serving_artifact(serving_model, tmp_path_factory):
    """The fitted pool saved as a v2 arena artifact."""
    path = tmp_path_factory.mktemp("serving") / "ens.repro"
    save_ensemble(serving_model, str(path))
    return str(path)
