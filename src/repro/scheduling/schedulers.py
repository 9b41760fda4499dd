"""Scheduler objects: named, stateful policies behind one interface.

The functional policies in :mod:`repro.scheduling.policies` map a cost
vector to an assignment; these classes wrap them behind the uniform
:class:`Scheduler` interface the registry, the plan compiler and the
``repro schedulers`` CLI all consume:

- ``assign(n_tasks, n_workers, costs=..., ...)`` produces the worker
  assignment for one batch;
- ``observe(durations, ...)`` feeds measured per-task durations back
  after the batch executed — a no-op for the static policies, the whole
  point of :class:`AdaptiveScheduler`.

Static policies (``generic``, ``shuffle``, ``bps-lpt``, ``bps-kk``)
produce the same assignment for the same forecast forever. The
``adaptive`` policy starts as BPS-LPT and converges to scheduling on
*measured* costs as batches flow — the feedback loop the static-vs-
measured gap of the paper's §3.5 leaves open.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.cost import TelemetryRefinedCostModel
from repro.scheduling.policies import (
    bps_schedule,
    generic_schedule,
    lpt_partition,
    shuffle_schedule,
)
from repro.utils.random import check_random_state

__all__ = [
    "Scheduler",
    "GenericScheduler",
    "ShuffleScheduler",
    "BpsScheduler",
    "BpsKkScheduler",
    "AdaptiveScheduler",
]


class Scheduler:
    """Base interface of every scheduling policy.

    Subclasses override :meth:`assign`; adaptive policies also override
    :meth:`observe`. Class attributes describe the contract:

    - ``name`` — registry identifier;
    - ``uses_costs`` — whether :meth:`assign` consumes forecast costs
      (plan compilers skip the forecast stage when ``False``);
    - ``adaptive`` — whether :meth:`observe` feedback changes future
      assignments.
    """

    name: str = "?"
    uses_costs: bool = True
    adaptive: bool = False

    def assign(
        self,
        n_tasks: int,
        n_workers: int,
        costs=None,
        *,
        task_keys=None,
        weights=None,
    ) -> np.ndarray:
        """Map ``n_tasks`` tasks onto ``n_workers`` workers.

        ``costs`` is the per-task forecast (ignored by cost-blind
        policies); ``task_keys``/``weights`` carry stable task identity
        and work units for adaptive policies (see
        :class:`~repro.scheduling.TelemetryRefinedCostModel`).
        """
        raise NotImplementedError

    def observe(self, durations, *, task_keys=None, weights=None) -> int:
        """Fold measured task durations back in. Default: no-op."""
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class GenericScheduler(Scheduler):
    """Contiguous equal-count split by order (the paper's baseline)."""

    name = "generic"
    uses_costs = False

    def assign(self, n_tasks, n_workers, costs=None, *, task_keys=None, weights=None):
        return generic_schedule(n_tasks, n_workers)


class ShuffleScheduler(Scheduler):
    """Random permutation before the contiguous split.

    The naive fix the paper dismisses ("no guarantee this heuristic
    could work") — kept for ablations. Seeded once at construction;
    consecutive batches draw successive permutations.
    """

    name = "shuffle"
    uses_costs = False

    def __init__(self, random_state=None):
        self._rng = check_random_state(random_state)

    def assign(self, n_tasks, n_workers, costs=None, *, task_keys=None, weights=None):
        return shuffle_schedule(n_tasks, n_workers, random_state=self._rng)


class BpsScheduler(Scheduler):
    """Balanced Parallel Scheduling on forecast cost ranks (the paper's BPS).

    ``method`` picks the partitioning engine ('lpt' greedy or 'kk'
    Karmarkar-Karp differencing); ``alpha`` the discounted-rank strength
    (``None`` balances raw ranks). Falls back to the generic split when
    no costs are supplied.
    """

    uses_costs = True

    def __init__(self, *, alpha: float | None = 1.0, method: str = "lpt"):
        if method not in ("lpt", "kk"):
            raise ValueError(f"method must be 'lpt' or 'kk', got {method!r}")
        self.alpha = alpha
        self.method = method

    @property
    def name(self) -> str:
        return f"bps-{self.method}"

    def assign(self, n_tasks, n_workers, costs=None, *, task_keys=None, weights=None):
        if costs is None:
            return generic_schedule(n_tasks, n_workers)
        return bps_schedule(costs, n_workers, alpha=self.alpha, method=self.method)


class BpsKkScheduler(BpsScheduler):
    """BPS with the Karmarkar-Karp engine (registry name ``bps-kk``)."""

    def __init__(self, *, alpha: float | None = 1.0):
        super().__init__(alpha=alpha, method="kk")


class AdaptiveScheduler(Scheduler):
    """BPS that learns: schedules on measured costs once telemetry flows.

    Owns a :class:`~repro.scheduling.TelemetryRefinedCostModel`. A
    batch none of whose task keys has been observed yet behaves exactly
    like ``bps-lpt`` on the forecast (so the first predict batch keeps
    the rank hedge even when fit telemetry already exists under its own
    keys); every :meth:`observe` call folds the batch's measured
    per-task durations into the model, and subsequent :meth:`assign`
    calls LPT-partition the *refined* costs directly — raw measured
    seconds, not ranks, because measurements need no hardware-transfer
    hedge. Badly guessed forecasts therefore stop hurting after one
    batch: the streaming/serving scenario reschedules on reality.

    Parameters
    ----------
    cost_model : TelemetryRefinedCostModel or None
        Bring your own (e.g. shared across estimators) or let the
        scheduler build a fresh one.
    smoothing : float in (0, 1], default 0.5
        EMA weight for a fresh internal model (ignored when
        ``cost_model`` is given).
    alpha : float or None, default 1.0
        Discounted-rank strength of the cold-start BPS fallback.
    """

    name = "adaptive"
    uses_costs = True
    adaptive = True

    def __init__(
        self,
        cost_model: TelemetryRefinedCostModel | None = None,
        *,
        smoothing: float = 0.5,
        alpha: float | None = 1.0,
    ):
        self.cost_model = (
            cost_model
            if cost_model is not None
            else TelemetryRefinedCostModel(smoothing=smoothing)
        )
        self.alpha = alpha

    @property
    def n_observed(self) -> int:
        return self.cost_model.n_observed

    def assign(self, n_tasks, n_workers, costs=None, *, task_keys=None, weights=None):
        base = (
            np.ones(n_tasks)
            if costs is None
            else np.asarray(costs, dtype=np.float64)
        )
        keys = list(task_keys) if task_keys is not None else list(range(n_tasks))
        if not self.cost_model.has_observations(keys):
            # Cold start *for these tasks* (e.g. the first predict batch
            # only has fit-keyed telemetry): indistinguishable from
            # bps-lpt on the forecast — measurements haven't replaced
            # the guesses yet, so the rank hedge still applies.
            if costs is None:
                return generic_schedule(n_tasks, n_workers)
            return bps_schedule(base, n_workers, alpha=self.alpha, method="lpt")
        refined = self.cost_model.refine(base, keys=keys, weights=weights)
        return lpt_partition(refined, n_workers)

    def observe(self, durations, *, task_keys=None, weights=None) -> int:
        return self.cost_model.observe(durations, keys=task_keys, weights=weights)

    def __repr__(self) -> str:
        return (
            f"AdaptiveScheduler(n_observed={self.n_observed}, "
            f"alpha={self.alpha})"
        )
