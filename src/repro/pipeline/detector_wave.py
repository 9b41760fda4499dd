"""The detector wave: every model's fit, or every model's scoring, as
one batch of tasks for the wave runner.

There is one fit task and one score task, one of either per model. Each
takes the model's space (an array, or a shared-memory handle resolved
worker-side) and an optional published neighbour pair (the model
consumes a shared producer's fused query, see
:mod:`repro.pipeline.sharing`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.neighbors.shared import discard_shared_neighbors, push_shared_neighbors
from repro.parallel import resolve_array
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


def score_task(scorer, space, pair=None) -> np.ndarray:
    """Score every row of one model's space.

    ``scorer`` is the model's
    :class:`~repro.core.approximation.Approximator`; a published pair is
    bound to the detector it passes through to.
    """
    X = resolve_array(space)
    if pair is None:
        return scorer.decision_function(X)
    dist, idx = (resolve_array(part) for part in pair)
    push_shared_neighbors(scorer.detector, dist, idx, drop_self=False)
    try:
        return scorer.decision_function(X)
    finally:
        discard_shared_neighbors(scorer.detector)


class DetectorWave(Wave):
    """One task per model.

    Parameters
    ----------
    kind : {'fit', 'predict'}
        Also the wave's name.
    models : detectors the cost model forecasts (unfitted at fit).
    X : (n, d) array the forecast is made for.
    predictor : CostModel
        ``predictor.forecast(models, X)`` is the wave's costs.
    scorers : what the tasks call — ``models`` themselves at fit, the
        fitted approximators at predict.

    Attributes
    ----------
    pairs : dict model index → published neighbour pair
        Set before the wave runs, for the consumers of a producer wave.
    fitted : list — the fitted detectors (after a fit wave).
    matrix : (m, n) array — raw scores per model (after a predict wave).
    """

    def __init__(self, kind, models, X, predictor, scorers=None):
        self.name = kind
        self.models = models
        self.X = X
        self.predictor = predictor
        self.scorers = models if scorers is None else scorers
        self.pairs: dict[int, tuple] = {}

    @property
    def n_tasks(self) -> int:
        return len(self.models)

    def costs(self) -> np.ndarray:
        return np.asarray(
            self.predictor.forecast(self.models, self.X), dtype=np.float64
        )

    def tasks(self, data) -> list:
        task = fit_task if self.name == "fit" else score_task
        return [
            functools.partial(task, scorer, data[i], self.pairs.get(i))
            for i, scorer in enumerate(self.scorers)
        ]

    def assemble(self, results) -> None:
        if self.name == "fit":
            self.fitted = list(results)
        else:
            self.matrix = np.stack(results)
