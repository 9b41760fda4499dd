"""The detector wave: every model's fit, or every model's scoring, as
one batch of tasks for the wave runner.

There is one fit task and one score task. Each takes the task's space
(an array, or a shared-memory handle resolved worker-side), an optional
published neighbour pair (the model consumes a shared producer's fused
query, see :mod:`repro.pipeline.sharing`) and — scoring only — an
optional row slice (the (model × row-chunk) grain of ``batch_size``).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.neighbors.shared import discard_shared_neighbors, push_shared_neighbors
from repro.parallel import resolve_array, scatter_chunk_results
from repro.pipeline.wave import Wave

__all__ = ["DetectorWave", "fit_task", "score_task"]


def fit_task(estimator, space, pair=None):
    """Fit one detector on its space; a consumer first binds the fused
    ``(distance, index)`` pair its group's producer published and
    slices its own ``k`` prefix instead of building a private index."""
    X = resolve_array(space)
    if pair is None:
        return estimator.fit(X)
    dist, idx = pair
    push_shared_neighbors(
        estimator, resolve_array(dist), resolve_array(idx), drop_self=True
    )
    try:
        return estimator.fit(X)
    finally:
        discard_shared_neighbors(estimator)


def score_task(scorer, space, pair=None, rows=None) -> np.ndarray:
    """Score one model's rows (all of them, or the ``rows`` slice).

    With a handle, the row block is cut off the attached view here, so
    a chunk task ships only (handle, slice) and its scores. ``scorer``
    is the model's :class:`~repro.core.approximation.Approximator`; a
    published pair is bound to the detector it passes through to.
    """
    X = resolve_array(space)
    if rows is not None:
        X = X[rows]
    if pair is None:
        return scorer.decision_function(X)
    dist, idx = (resolve_array(part) for part in pair)
    if rows is not None:
        dist, idx = dist[rows], idx[rows]
    push_shared_neighbors(scorer.detector, dist, idx, drop_self=False)
    try:
        return scorer.decision_function(X)
    finally:
        discard_shared_neighbors(scorer.detector)


class DetectorWave(Wave):
    """One task per model, or per (model, row-chunk) owner when scoring
    in chunks.

    Parameters
    ----------
    kind : {'fit', 'predict'}
        Also the wave's name and the first half of its adaptive keys
        ``(kind, model)``: fit and predict costs never mix, and the
        chunks of one model share one identity.
    models : detectors the cost model forecasts (unfitted at fit).
    X : (n, d) array the forecast is made for.
    predictor : CostModel
        ``predictor.forecast(models, X)``; a chunk's forecast is its
        model's, scaled by the chunk's row fraction.
    scorers : what the tasks call — ``models`` themselves at fit, the
        fitted approximators at predict.
    owners : list of (model index, slice) or None
        The (model × row-chunk) grain; None = one task per model.

    Attributes
    ----------
    pairs : dict model index → published neighbour pair
        Set before the wave runs, for the consumers of a producer wave.
    fitted : list — the fitted detectors (after a fit wave).
    matrix : (m, n) array — raw scores per model (after a predict wave).
    """

    def __init__(self, kind, models, X, predictor, scorers=None, owners=None):
        self.name = kind
        self.models = models
        self.X = X
        self.predictor = predictor
        self.scorers = models if scorers is None else scorers
        self.chunked = owners is not None
        self.owners = owners or [(i, None) for i in range(len(models))]
        self.pairs: dict[int, tuple] = {}

    @property
    def n_tasks(self) -> int:
        return len(self.owners)

    def _n_rows(self, rows) -> int:
        return self.X.shape[0] if rows is None else rows.stop - rows.start

    def task_keys(self) -> list:
        return [(self.name, i) for i, _rows in self.owners]

    def task_weights(self) -> np.ndarray:
        """Row counts, so durations normalise to a per-row rate."""
        return np.array(
            [max(float(self._n_rows(rows)), 1.0) for _, rows in self.owners]
        )

    def costs(self) -> np.ndarray:
        model_costs = np.asarray(
            self.predictor.forecast(self.models, self.X), dtype=np.float64
        )
        if not self.chunked:
            return model_costs
        n = self.X.shape[0]
        return np.array(
            [model_costs[i] * self._n_rows(rows) / n for i, rows in self.owners]
        )

    def tasks(self, data) -> list:
        if self.name == "fit":
            return [
                functools.partial(fit_task, est, data[i], self.pairs.get(i))
                for i, est in enumerate(self.scorers)
            ]
        out = []
        for i, rows in self.owners:
            space, pair = data[i], self.pairs.get(i)
            if rows is not None and isinstance(space, np.ndarray):
                # The in-memory planes bind the already-cut row block, so
                # a pickling backend never ships whole spaces per chunk.
                space = space[rows]
                pair = pair and tuple(part[rows] for part in pair)
                rows = None
            out.append(
                functools.partial(score_task, self.scorers[i], space, pair, rows)
            )
        return out

    def assemble(self, results) -> None:
        if self.name == "fit":
            self.fitted = list(results)
        elif not self.chunked:
            self.matrix = np.stack(results)
        else:
            self.matrix = scatter_chunk_results(
                results, self.owners, len(self.models), self.X.shape[0]
            )
