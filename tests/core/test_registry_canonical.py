"""``Registry.canonical``: every name of one factory folds into its first name."""

import pytest

from repro.core.registry import Registry
from repro.runtime import ExecutionModelSpec
from repro.runtime.models import EXECUTION_MODELS
from repro.scheduling import HeuristicScheduler
from repro.scheduling.registry import SCHEDULERS
from repro.service import SchedulerSpec


def first():
    return "first"


def second():
    return "second"


class TestBuiltInNames:
    @pytest.mark.parametrize(
        "name, canonical",
        [
            ("static", "static"),
            ("heuristic", "static"),
            ("fps-offline", "fps-offline"),
            ("fps", "fps-offline"),
            ("fps-online", "fps-online"),
            ("gpiocp", "gpiocp"),
            ("ga", "ga"),
        ],
    )
    def test_schedulers(self, name, canonical):
        assert SCHEDULERS.canonical(name) == canonical

    @pytest.mark.parametrize(
        "name, canonical",
        [
            ("dedicated-controller", "dedicated-controller"),
            ("controller", "dedicated-controller"),
            ("cpu-instigated", "cpu-instigated"),
            ("remote-cpu", "cpu-instigated"),
            ("cpu-instigated-prioritized", "cpu-instigated-prioritized"),
        ],
    )
    def test_execution_models(self, name, canonical):
        assert EXECUTION_MODELS.canonical(name) == canonical

    def test_every_bound_name_folds_into_a_bound_name_of_its_factory(self):
        for registry in (SCHEDULERS, EXECUTION_MODELS):
            for name in registry.names():
                folded = registry.canonical(name)
                assert registry.factory(folded) is registry.factory(name)
                assert registry.canonical(folded) == folded


class TestFolding:
    def test_an_unknown_name_maps_to_itself(self):
        assert Registry("widget").canonical("nosuch") == "nosuch"
        assert SCHEDULERS.canonical("nosuch") == "nosuch"

    def test_aliases_and_a_plain_second_register_fold_alike(self):
        widgets = Registry("widget")
        widgets.register("one", first, aliases=("uno",))
        widgets.register("eins", first)
        assert [widgets.canonical(name) for name in ("one", "uno", "eins")] == ["one"] * 3

    def test_an_alias_maps_to_itself_once_its_canonical_name_is_unbound(self):
        widgets = Registry("widget")
        widgets.register("one", first, aliases=("uno",))
        widgets.unregister("one")
        assert widgets.canonical("uno") == "uno"

    def test_rebinding_with_overwrite(self):
        widgets = Registry("widget")
        widgets.register("one", first, aliases=("uno",))
        widgets.register("one", second, overwrite=True)
        assert widgets.canonical("one") == "one"
        assert widgets.canonical("uno") == "uno"  # "one" is no longer first's
        widgets.register("uno", second, overwrite=True)
        assert widgets.canonical("uno") == "one"  # now a second name of second

    def test_the_first_name_is_canonical_again_once_it_is_rebound(self):
        try:
            SCHEDULERS.unregister("static")
            assert SCHEDULERS.canonical("heuristic") == "heuristic"
            SCHEDULERS.register("static", HeuristicScheduler)
            assert SCHEDULERS.canonical("heuristic") == "static"
            assert SCHEDULERS.canonical("static") == "static"
        finally:
            SCHEDULERS.register("static", HeuristicScheduler, overwrite=True)


class TestCanonicalSpecs:
    def test_a_canonical_spec_is_itself(self):
        spec = SchedulerSpec.parse("static")
        assert spec.canonical() is spec

    def test_an_alias_spec_keeps_its_options_and_class(self):
        assert SchedulerSpec.parse("fps:x=1").canonical() == SchedulerSpec("fps-offline", {"x": 1})
        model = ExecutionModelSpec.parse("remote-cpu:jitter_window=2").canonical()
        assert type(model) is ExecutionModelSpec
        assert model == ExecutionModelSpec("cpu-instigated", {"jitter_window": 2})
