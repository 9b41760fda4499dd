"""Named scheduling policies: a closed table, like the backends'.

One lookup point for scheduling policies, so the ablation benchmarks
and the ``repro schedulers`` CLI resolve names identically. ``SUOD``
does not look policies up: ``bps_flag`` picks ``BpsScheduler``
(``bps-lpt``) or ``GenericScheduler`` (``generic``) directly. The five
names below are the whole set; an unknown name raises with the sorted
list of them.
"""

from __future__ import annotations

from repro.scheduling.schedulers import (
    AdaptiveScheduler,
    BpsKkScheduler,
    BpsScheduler,
    GenericScheduler,
    Scheduler,
    ShuffleScheduler,
)

__all__ = [
    "get_scheduler",
    "get_scheduler_class",
    "list_schedulers",
]

_SCHEDULERS: dict[str, type] = {
    "generic": GenericScheduler,
    "shuffle": ShuffleScheduler,
    "bps-lpt": BpsScheduler,
    "bps-kk": BpsKkScheduler,
    "adaptive": AdaptiveScheduler,
}


def get_scheduler_class(name: str) -> type:
    """The class for ``name`` (without instantiating it)."""
    if name not in _SCHEDULERS:
        raise ValueError(
            f"Unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}"
        )
    return _SCHEDULERS[name]


def get_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by name.

    ``kwargs`` are forwarded to the policy's constructor (e.g.
    ``get_scheduler('shuffle', random_state=0)``,
    ``get_scheduler('adaptive', smoothing=0.8)``).
    """
    return get_scheduler_class(name)(**kwargs)


def list_schedulers() -> list[str]:
    """Sorted canonical names of all policies."""
    return sorted(_SCHEDULERS)
