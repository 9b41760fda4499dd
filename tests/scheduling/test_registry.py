"""Scheduler name table: a closed set of five policies, like the backends'."""

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
)


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


class TestClosedTable:
    def test_no_registration_hook(self):
        import repro.scheduling as scheduling
        from repro.scheduling import registry

        assert not any(name.startswith("register") for name in dir(scheduling))
        assert not hasattr(registry, "register_scheduler")
