"""Scheduler-registry contract — mirrors the backend-registry semantics."""

import numpy as np
import pytest

from repro.scheduling import (
    AdaptiveScheduler,
    BpsKkScheduler,
    BpsScheduler,
    GenericScheduler,
    Scheduler,
    ShuffleScheduler,
    get_scheduler,
    get_scheduler_class,
    list_schedulers,
    register_scheduler,
)
from repro.scheduling.registry import _SCHEDULERS


class TestListing:
    def test_builtin_policies_registered(self):
        assert list_schedulers() == [
            "adaptive",
            "bps-kk",
            "bps-lpt",
            "generic",
            "shuffle",
        ]

    def test_listing_is_sorted_copy(self):
        names = list_schedulers()
        names.append("mutant")
        assert "mutant" not in list_schedulers()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["generic", "shuffle", "bps-lpt", "bps-kk", "adaptive"]
    )
    def test_get_scheduler_round_trip(self, name):
        scheduler = get_scheduler(name)
        assert isinstance(scheduler, Scheduler)
        assert scheduler.name == name
        assert isinstance(scheduler, get_scheduler_class(name))

    def test_classes_match(self):
        assert get_scheduler_class("generic") is GenericScheduler
        assert get_scheduler_class("shuffle") is ShuffleScheduler
        assert get_scheduler_class("bps-lpt") is BpsScheduler
        assert get_scheduler_class("bps-kk") is BpsKkScheduler
        assert get_scheduler_class("adaptive") is AdaptiveScheduler

    def test_constructor_kwargs_forwarded(self):
        sched = get_scheduler("adaptive", smoothing=0.9)
        assert sched.cost_model.smoothing == 0.9

    def test_fresh_instance_per_call(self):
        assert get_scheduler("adaptive") is not get_scheduler("adaptive")


class TestUnknownName:
    # The pre-registry spellings ('bps', underscores) are unknown names now.
    @pytest.mark.parametrize("name", ["nope", "bps", "bps_lpt", "bps_kk"])
    def test_error_lists_registered_policies(self, name):
        with pytest.raises(ValueError, match=f"Unknown scheduler '{name}'"):
            get_scheduler(name)
        with pytest.raises(ValueError) as exc:
            get_scheduler_class(name)
        assert str(sorted(list_schedulers())) in str(exc.value)


class TestRegistration:
    def test_duplicate_name_rejected_without_overwrite(self):
        class Impostor(Scheduler):
            name = "generic"

        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("generic", Impostor)
        assert get_scheduler_class("generic") is GenericScheduler

    def test_same_class_reregistration_is_noop(self):
        register_scheduler("generic", GenericScheduler)
        assert get_scheduler_class("generic") is GenericScheduler

    def test_overwrite_and_new_name(self):
        class Custom(Scheduler):
            name = "custom-rr"
            uses_costs = False

            def assign(self, n_tasks, n_workers, costs=None, **kwargs):
                return np.arange(n_tasks, dtype=np.int64) % n_workers

        try:
            register_scheduler("custom-rr", Custom)
            assert "custom-rr" in list_schedulers()
            sched = get_scheduler("custom-rr")
            np.testing.assert_array_equal(sched.assign(5, 2), [0, 1, 0, 1, 0])
            register_scheduler("custom-rr", GenericScheduler, overwrite=True)
            assert get_scheduler_class("custom-rr") is GenericScheduler
        finally:
            _SCHEDULERS.pop("custom-rr", None)
