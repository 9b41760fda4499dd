"""The two batch workloads: timed ``fit`` repeats, then a scoring call loop."""

from __future__ import annotations

import numpy as np

from perfbench.measure import Samples, now, self_peak_rss_mb, windows
from perfbench.workloads import Workload
from repro import SUOD
from repro.metrics.ranking import roc_auc_score


def score_loop(model, blocks, seconds: float, min_calls: int, samples: Samples):
    """Call ``decision_function`` block by block for ``seconds``.

    Returns ``(t_start, end_times, latencies_ms, outputs)``; ``outputs``
    pairs each block index with the scores it returned, for the parity
    check the caller runs after the clock has stopped.
    """
    ends, latency_ms, outputs = [], [], []
    t_start = now()
    calls = 0
    while True:
        block = calls % len(blocks)
        t0 = now()
        try:
            scores = model.decision_function(blocks[block])
        except Exception as exc:  # a failed call is a counted operation
            samples.check(False, f"decision_function raised {exc!r}")
            scores = None
        t1 = now()
        calls += 1
        if scores is not None:
            latency_ms.append((t1 - t0) * 1000.0)
            ends.append(t1)
            outputs.append((block, scores))
        if calls >= min_calls and t1 - t_start >= seconds:
            return t_start, ends, latency_ms, outputs


def timed_fits(wl: Workload, seed: int, X_train, samples: Samples):
    """``fits_per_round`` fresh same-seed estimators, each ``fit`` timed
    into ``samples.fit_s``. Returns the last model and the seconds spent
    around the fits (construction, worker-pool shutdown), which are set-up.
    """
    around = 0.0
    for _ in range(wl.fits_per_round):
        t0 = now()
        model = SUOD(wl.pool(), random_state=seed, **wl.suod)
        around += now() - t0
        try:
            t0 = now()
            model.fit(X_train)
            samples.fit_s.append(now() - t0)
        finally:
            t0 = now()
            model.close()  # the fit's worker pool, if it held one
            around += now() - t0
    return model, around


def run_batch(wl: Workload, seed: int, seconds: float, quick: bool) -> Samples:
    """All rounds of a batch workload, reduced by the caller."""
    samples = Samples()
    shape = wl.quick_shape if quick else wl.shape
    rows = shape.request_rows
    outputs = []
    for _ in range(wl.rounds):
        t0 = now()
        X_train, X_test, y_test = wl.data(seed, quick)
        blocks = [X_test[i : i + rows] for i in range(0, len(X_test), rows)]
        setup = now() - t0
        model, around = timed_fits(wl, seed, X_train, samples)
        t0 = now()
        # Scoring is single-worker on every batch workload: the 2-worker
        # rate is too noisy to gate on and is kept as a layer metric.
        model.n_jobs = 1
        model.decision_function(blocks[0])  # warm-up call, untimed
        samples.setup_s.append(setup + around + (now() - t0))
        t_start, ends, latency_ms, outs = score_loop(
            model, blocks, seconds / wl.rounds * wl.closed_share, 4, samples
        )
        for rate, p50 in windows(ends, latency_ms, rows, t_start, wl.window_requests):
            samples.window_rows_per_s.append(rate)
            samples.window_p50_ms.append(p50)
        outputs += outs
    # Correctness, after the clock: every chunked call of every round
    # must equal the matching slice of one full-array call bitwise (the
    # rounds refit the same seed, so this also pins fit determinism).
    full = model.decision_function(X_test)
    for block, scores in outputs:
        ok = np.array_equal(scores, full[block * rows : (block + 1) * rows])
        samples.check(ok, f"chunk {block} differs from the full-array call")
    samples.check_roc_auc(roc_auc_score(y_test, full))
    samples.rss_mb.append(self_peak_rss_mb())
    return samples
