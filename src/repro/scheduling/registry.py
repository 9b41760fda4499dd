"""Named scheduler registry (mirrors the backend registry contract).

One lookup point for scheduling policies, so ``SUOD(scheduler='...')``,
the plan compiler, the ablation benchmarks and the ``repro schedulers``
CLI all resolve names identically:

- duplicate-name registration is rejected unless ``overwrite=True``
  (re-registering the *same* class is a no-op);
- unknown names raise with the sorted list of registered policies.
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
    "register_scheduler",
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


def register_scheduler(name: str, cls, *, overwrite: bool = False) -> None:
    """Add a scheduler class to the :func:`get_scheduler` registry.

    Re-registering the same class under its existing name is a no-op;
    replacing a registered name with a *different* class requires
    ``overwrite=True``, so a built-in policy cannot be shadowed
    silently. ``cls`` must be instantiable to a :class:`Scheduler`.
    """
    existing = _SCHEDULERS.get(name)
    if existing is not None and existing is not cls and not overwrite:
        raise ValueError(
            f"scheduler {name!r} is already registered to "
            f"{existing.__name__}; pass overwrite=True to replace it"
        )
    _SCHEDULERS[name] = cls


def get_scheduler_class(name: str) -> type:
    """The registered class for ``name`` (without instantiating it)."""
    if name not in _SCHEDULERS:
        raise ValueError(
            f"Unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}"
        )
    return _SCHEDULERS[name]


def get_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registered name.

    ``kwargs`` are forwarded to the policy's constructor (e.g.
    ``get_scheduler('shuffle', random_state=0)``,
    ``get_scheduler('adaptive', smoothing=0.8)``).
    """
    return get_scheduler_class(name)(**kwargs)


def list_schedulers() -> list[str]:
    """Sorted canonical names of all registered policies."""
    return sorted(_SCHEDULERS)
