"""Pseudo-Supervised Approximation — the PSA module (§3.4).

After an unsupervised detector is fitted, its training-set outlyingness
scores become "pseudo ground truth" for a fast supervised regressor; the
regressor then replaces the detector at prediction time. Only *costly*
detectors are approximated (the predefined pool ``M_c`` — proximity-based
models with O(n d) per-query cost); fast models (HBOS, iForest, ...) are
kept as-is because an approximator could not beat their prediction cost.

Two ways to train them: :func:`fit_approximators` is the plain serial
loop (the public helper, and the parity oracle of the tests);
:class:`ApproximatorWave` cuts the same work into picklable
(model × tree-block) tasks that ``SUOD``'s ``approximate`` stage runs
through the scheduled parallel backend, exactly as Algorithm 1 trains
the approximators inside the balanced parallel loop.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.detectors.base import BaseDetector
from repro.detectors.registry import is_costly
from repro.parallel.shm import resolve_array
from repro.pipeline.wave import Wave
from repro.scheduling.cost import forecast_approximator_fit
from repro.supervised import RandomForestRegressor
from repro.utils.validation import check_is_fitted

__all__ = [
    "Approximator",
    "ApproximatorWave",
    "fit_approximators",
    "tree_blocks_per_model",
]


class Approximator:
    """One detector/regressor pair.

    Wraps a *fitted* unsupervised detector. When approximation is active
    the regressor answers :meth:`decision_function`; otherwise calls fall
    through to the detector, so the pair is a drop-in scorer either way.

    Parameters
    ----------
    detector : fitted BaseDetector
    regressor : unfitted regressor prototype or None
        Cloned, then trained on ``(X_train, detector.decision_scores_)``.
        Default: :class:`repro.supervised.RandomForestRegressor`.
    enabled : bool
        Whether to actually approximate (callers typically pass
        ``is_costly(detector)``).
    """

    def __init__(self, detector: BaseDetector, regressor=None, *, enabled: bool = True):
        check_is_fitted(detector, "decision_scores_")
        self.detector = detector
        self.regressor_prototype = regressor
        self.enabled = enabled
        self.regressor_ = None

    @property
    def approximated(self) -> bool:
        """True when prediction is served by the supervised regressor."""
        return self.regressor_ is not None

    def fit(self, X_train) -> "Approximator":
        """Train the supervised stand-in on pseudo ground truth.

        ``X_train`` must be the same feature space the detector was
        fitted on (the projected space when RP is active — Algorithm 1
        line 19 trains on psi_i).
        """
        if not self.enabled:
            return self
        self.check_aligned(len(X_train))
        self.regressor_ = self.new_regressor()  # its fit validates X_train
        self.regressor_.fit(X_train, self.detector.decision_scores_)
        return self

    def check_aligned(self, n_rows: int) -> None:
        """Reject a training space whose rows do not match the scores."""
        if n_rows != self.detector.decision_scores_.shape[0]:
            raise ValueError(
                "X_train is not aligned with the detector's training scores"
            )

    def new_regressor(self):
        """A fresh, unfitted clone of the regressor prototype."""
        proto = (
            self.regressor_prototype
            if self.regressor_prototype is not None
            else RandomForestRegressor()
        )
        return copy.deepcopy(proto)

    def decision_function(self, X) -> np.ndarray:
        """Outlyingness scores: regressor if trained, else the detector."""
        if self.approximated:
            return np.asarray(self.regressor_.predict(X), dtype=np.float64)
        return self.detector.decision_function(X)

    def __repr__(self) -> str:
        mode = "approximated" if self.approximated else "passthrough"
        return f"Approximator({type(self.detector).__name__}, {mode})"


def fit_approximators(
    detectors: Sequence[BaseDetector],
    X_trains: Sequence[np.ndarray] | np.ndarray,
    *,
    regressor=None,
    approx_flags: Sequence[bool] | None = None,
) -> list[Approximator]:
    """Build and train one :class:`Approximator` per fitted detector.

    Parameters
    ----------
    detectors : fitted detectors.
    X_trains : one array shared by all, or one per detector (each in the
        detector's own feature space, matching Algorithm 1).
    regressor : regressor prototype (cloned per detector).
    approx_flags : explicit per-detector overrides; default =
        :func:`repro.detectors.is_costly` (the paper's ``M_c`` rule).
    """
    detectors = list(detectors)
    if isinstance(X_trains, np.ndarray):
        X_list = [X_trains] * len(detectors)
    else:
        X_list = list(X_trains)
        if len(X_list) != len(detectors):
            raise ValueError("X_trains must align with detectors")
    if approx_flags is None:
        flags = [is_costly(det) for det in detectors]
    else:
        flags = list(approx_flags)
        if len(flags) != len(detectors):
            raise ValueError("approx_flags must align with detectors")

    out = []
    for det, X, flag in zip(detectors, X_list, flags):
        out.append(Approximator(det, regressor, enabled=flag).fit(X))
    return out


# ----------------------------------------------------------------------
# The parallel wave: the same fits, cut into schedulable tasks.
# ----------------------------------------------------------------------
def _fit_whole(regressor, X, y):
    """Wave task: fit one approximator's regressor in one piece."""
    return regressor.fit(resolve_array(X), y)


def _fit_block(regressor, X, y, seeds) -> list:
    """Wave task: fit the trees of one seed block of one forest."""
    return regressor.fit_block(resolve_array(X), y, seeds)


def _supports_blocks(regressor) -> bool:
    """Whether ``regressor`` has the block-fit/assemble pair (and no
    option, like out-of-bag scoring, that couples its trees)."""
    return (
        all(
            callable(getattr(regressor, name, None))
            for name in ("tree_seeds", "fit_block", "assemble_blocks")
        )
        and not getattr(regressor, "oob_score", False)
    )


def tree_blocks_per_model(n_models: int, n_workers: int) -> int:
    """Tree blocks each forest is cut into for ``n_workers`` workers.

    The smallest count at which equally expensive forests divide evenly
    over the workers: one task per model leaves 9 forests on 2 workers
    split 5 : 4, two blocks each make it 9 : 9. A single worker (or a
    model count the workers already divide) keeps whole forests.
    """
    if n_models < 1 or n_workers < 2:
        return 1
    return n_workers // math.gcd(n_models, n_workers)


class ApproximatorWave(Wave):
    """The enabled approximators' fits as (model × tree-block) tasks.

    Built parent-side from unfitted :class:`Approximator` objects and
    their training spaces. Regressors with the block-fit/assemble pair
    (:class:`~repro.supervised.RandomForestRegressor` without
    ``oob_score``) contribute :func:`tree_blocks_per_model` tasks, each
    fitting a contiguous slice of the forest's pre-drawn tree seeds; any
    other regressor contributes one whole-model task. Tasks bind a clone
    of the prototype, the detector's training scores and whatever stands
    for the space in ``data`` (an array, or a shared-memory handle), so
    no feature matrix crosses a process boundary on the shm plane.

    :meth:`assemble` joins the task results back into
    ``Approximator.regressor_`` in tree order. Every tree depends only on
    its own pre-drawn seed, so the result is bitwise the forest
    :func:`fit_approximators` trains — whatever the block count, the
    assignment or the order the workers finished in.

    Tree fitting is pure Python, so the wave is ``interpreter_bound``:
    the wave runner keeps it on one worker of a thread backend, and
    ``n_workers`` should come from
    :func:`repro.pipeline.wave.n_workers_for`.

    Attributes
    ----------
    owners : list of (model index, lo, hi)
        One entry per task: the tree range ``[lo, hi)`` it fits, or
        ``(i, 0, 0)`` for a whole-model task.
    blocks_per_model : int
        Blocks each block-capable forest was cut into (1 when every
        regressor fell back to a whole-model task).
    """

    name = "fit-approx"
    interpreter_bound = True

    def __init__(self, approximators: Sequence[Approximator], spaces, n_workers: int):
        self.approximators = list(approximators)
        self._shapes = {}
        self._regressors = {}
        self._seeds = {}
        self.owners: list[tuple[int, int, int]] = []
        self.blocks_per_model = 1
        enabled = [i for i, a in enumerate(self.approximators) if a.enabled]
        target = tree_blocks_per_model(len(enabled), n_workers)
        for i in enabled:
            approx = self.approximators[i]
            approx.check_aligned(spaces[i].shape[0])
            self._shapes[i] = spaces[i].shape
            regressor = self._regressors[i] = approx.new_regressor()
            if not _supports_blocks(regressor):
                self.owners.append((i, 0, 0))
                continue
            seeds = self._seeds[i] = regressor.tree_seeds()
            n_blocks = max(1, min(target, len(seeds)))
            self.blocks_per_model = max(self.blocks_per_model, n_blocks)
            bounds = [len(seeds) * j // n_blocks for j in range(n_blocks + 1)]
            self.owners += [(i, lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    @property
    def n_tasks(self) -> int:
        return len(self.owners)

    def task_keys(self) -> list:
        """``('fit-approx', model)``: the blocks of one forest share one
        identity in the adaptive feedback loop."""
        return [(self.name, i) for i, _lo, _hi in self.owners]

    def tasks(self, data) -> list:
        """One picklable zero-argument callable per entry of ``owners``."""
        out = []
        for i, lo, hi in self.owners:
            y = self.approximators[i].detector.decision_scores_
            regressor = self._regressors[i]
            if hi:
                out.append(
                    functools.partial(
                        _fit_block, regressor, data[i], y, self._seeds[i][lo:hi]
                    )
                )
            else:
                out.append(functools.partial(_fit_whole, regressor, data[i], y))
        return out

    def costs(self) -> np.ndarray:
        """Analytic forecast per task (:func:`forecast_approximator_fit`).

        A regressor without forest hyperparameters is forecast as the
        default forest on its space: one wave shares one prototype, so
        only the spaces' shapes rank its whole-model tasks.
        """
        out = np.empty(self.n_tasks)
        for t, (i, lo, hi) in enumerate(self.owners):
            n, d = self._shapes[i]
            regressor = self._regressors[i]
            out[t] = forecast_approximator_fit(
                n,
                d,
                hi - lo if hi else getattr(regressor, "n_estimators", 50),
                getattr(regressor, "max_depth", 12),
                getattr(regressor, "max_features", "sqrt"),
            )
        return out

    def task_weights(self) -> np.ndarray:
        """Work units per task (rows × trees) for the adaptive feedback
        loop, so blocks of one model observe one per-unit rate."""
        return np.array(
            [float(self._shapes[i][0] * max(hi - lo, 1)) for i, lo, hi in self.owners]
        )

    def assemble(self, results) -> dict:
        """Install the fitted regressors from the tasks' results."""
        blocks: dict[int, list] = {}
        for (i, _lo, hi), res in zip(self.owners, results):
            if hi:
                blocks.setdefault(i, []).append(res)
            else:
                self.approximators[i].regressor_ = res
        for i, parts in blocks.items():
            self.approximators[i].regressor_ = self._regressors[i].assemble_blocks(
                parts, self._shapes[i][1]
            )
        return {"blocks_per_model": self.blocks_per_model}
