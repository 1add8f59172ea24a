"""Pins of the registries' listings and error messages.

Schedulers, execution models, scenario presets and cache backends are each
looked up by name; every ``--list*`` flag prints one of the listings below,
and every spec string resolves through one of the registries.  These tests
hold the exact text of each listing, and the exception type and message of
each failure a caller can meet: an unknown name, a conflicting
registration, unregistering an unknown name and a keyword override the
factory rejects.
"""

import pytest

from repro.runtime import (
    create_execution_model,
    format_execution_model_listing,
    register_execution_model,
    unregister_execution_model,
)
from repro.scenario import (
    Scenario,
    create_scenario,
    format_scenario_listing,
    register_scenario,
    unregister_scenario,
)
from repro.scenario.registry import SCENARIOS
from repro.scheduling import (
    create_scheduler,
    format_scheduler_listing,
    get_scheduler_factory,
    list_schedulers,
    register_scheduler,
    unregister_scheduler,
)
from repro.store import backend_names, create_backend, format_backend_listing

LIST_SCHEDULERS = {
    "fps": "repro.scheduling.fps.FPSOfflineScheduler",
    "fps-offline": "repro.scheduling.fps.FPSOfflineScheduler",
    "fps-online": "repro.scheduling.online.FPSOnlineSchedulabilityMethod",
    "ga": "repro.scheduling.ga.scheduler.GAScheduler",
    "gpiocp": "repro.scheduling.gpiocp.GPIOCPScheduler",
    "heuristic": "repro.scheduling.heuristic.HeuristicScheduler",
    "static": "repro.scheduling.heuristic.HeuristicScheduler",
}

SCHEDULER_LISTING = """\
fps              repro.scheduling.fps.FPSOfflineScheduler
fps-offline      repro.scheduling.fps.FPSOfflineScheduler
fps-online       repro.scheduling.online.FPSOnlineSchedulabilityMethod
ga               repro.scheduling.ga.scheduler.GAScheduler
gpiocp           repro.scheduling.gpiocp.GPIOCPScheduler
heuristic        repro.scheduling.heuristic.HeuristicScheduler
static           repro.scheduling.heuristic.HeuristicScheduler"""

EXECUTION_MODEL_LISTING = """\
controller                   the paper's dedicated I/O controller: timer-triggered, bit-exact starts
cpu-instigated               CPU-instigated I/O over the NoC: per-hop latency + arbitration jitter
cpu-instigated-prioritized   CPU-instigated I/O with prioritized requests: jitter-free, latency remains
dedicated-controller         the paper's dedicated I/O controller: timer-triggered, bit-exact starts
remote-cpu                   CPU-instigated I/O over the NoC: per-hop latency + arbitration jitter"""

SCENARIO_LISTING = (
    "bursty-periods       d70b8f40a845dbd0  periods confined to the 48-96 ms band: "
    "near-harmonic release bursts contending for the same window\n"
    "faulty-controller    3022112e4140d9c7  the paper's setup with run-time faults: "
    "a missing enable request, a late request and a corrupted command sequence\n"
    "paper-default        322439112dd925fb  the paper's evaluation setup: UUniFast at "
    "0.05 U/task, 1440 ms hyper-period, one GPIO controller on a 4x4 mesh\n"
    "paper-scale          ed402ec1c84df724  the paper's setup at evaluation scale: four "
    "devices, full period spread, an 8x8 mesh with heavier background traffic\n"
    "short-hyperperiod    8b927c8f72d94788  a 360 ms hyper-period with 12-120 ms periods: "
    "more jobs per task, denser scheduling tables\n"
    "wide-noc             ebf142553ee67b48  an 8x8 mesh with slower links and heavy "
    "background traffic: long, jittery request paths for CPU-instigated I/O"
)

BACKEND_LISTING = """\
  directory — one JSON file per key under root= (the classic cache layout)
  sqlite — all entries in one SQLite file at path= (WAL, concurrency-safe)"""


class TestListings:
    def test_list_schedulers(self):
        assert list_schedulers() == LIST_SCHEDULERS
        assert list(list_schedulers()) == sorted(LIST_SCHEDULERS)

    @pytest.mark.parametrize(
        "listing, text",
        [
            (format_scheduler_listing, SCHEDULER_LISTING),
            (format_execution_model_listing, EXECUTION_MODEL_LISTING),
            (format_scenario_listing, SCENARIO_LISTING),
            (format_backend_listing, BACKEND_LISTING),
        ],
        ids=["schedulers", "execution-models", "scenarios", "backends"],
    )
    def test_listing_text(self, listing, text):
        assert listing() == text

    def test_backend_names_is_a_list(self):
        assert backend_names() == ["directory", "sqlite"]


def raised(call, *args, **kwargs):
    """The exception ``call(*args, **kwargs)`` raises."""
    with pytest.raises(Exception) as error:
        call(*args, **kwargs)
    return error.value


SCHEDULER_NAMES = "fps, fps-offline, fps-online, ga, gpiocp, heuristic, static"
MODEL_NAMES = (
    "controller, cpu-instigated, cpu-instigated-prioritized, dedicated-controller, remote-cpu"
)
SCENARIO_NAMES = (
    "bursty-periods, faulty-controller, paper-default, paper-scale, short-hyperperiod, wide-noc"
)


class TestUnknownNames:
    @pytest.mark.parametrize(
        "call, name, error_type, message",
        [
            (create_scheduler, "nosuch", KeyError,
             f"unknown scheduler 'nosuch'; registered: {SCHEDULER_NAMES}"),
            (get_scheduler_factory, "nosuch", KeyError,
             f"unknown scheduler 'nosuch'; registered: {SCHEDULER_NAMES}"),
            (create_execution_model, "nosuch", KeyError,
             f"unknown execution model 'nosuch'; registered: {MODEL_NAMES}"),
            (create_scenario, "nosuch", KeyError,
             f"unknown scenario 'nosuch'; registered: {SCENARIO_NAMES}"),
            (create_backend, "nosuch:x=1", ValueError,
             "unknown cache backend 'nosuch' (available: directory, sqlite)"),
        ],
        ids=["create-scheduler", "scheduler-factory", "execution-model", "scenario", "backend"],
    )
    def test_unknown_name(self, call, name, error_type, message):
        error = raised(call, name)
        assert type(error) is error_type
        assert error.args == (message,)

    @pytest.mark.parametrize(
        "unregister, message",
        [
            (unregister_scheduler, "unknown scheduler 'nosuch'"),
            (unregister_execution_model, "unknown execution model 'nosuch'"),
            (unregister_scenario, "unknown scenario 'nosuch'"),
        ],
        ids=["scheduler", "execution-model", "scenario"],
    )
    def test_unregister_unknown_name(self, unregister, message):
        error = raised(unregister, "nosuch")
        assert type(error) is KeyError
        assert error.args == (message,)


class TestConflictingRegistrations:
    def test_scheduler(self):
        error = raised(register_scheduler, "static", lambda: 1)
        assert type(error) is ValueError
        assert str(error) == (
            "scheduler 'static' is already registered "
            "(to <class 'repro.scheduling.heuristic.HeuristicScheduler'>); "
            "pass overwrite=True to replace it"
        )

    def test_scheduler_alias(self):
        error = raised(register_scheduler, "test-partial", lambda: 1, aliases=("fps",))
        assert type(error) is ValueError
        assert str(error) == (
            "scheduler 'fps' is already registered "
            "(to <class 'repro.scheduling.fps.FPSOfflineScheduler'>); "
            "pass overwrite=True to replace it"
        )

    def test_execution_model(self):
        error = raised(register_execution_model, "cpu-instigated", lambda: None)
        assert type(error) is ValueError
        assert str(error) == (
            "execution model 'cpu-instigated' is already registered "
            "(to <class 'repro.runtime.models.CPUInstigatedModel'>); "
            "pass overwrite=True to replace it"
        )

    def test_scenario(self):
        error = raised(register_scenario, "paper-default", Scenario(name="usurper"))
        assert type(error) is ValueError
        assert str(error) == (
            "scenario 'paper-default' is already registered "
            f"(to {SCENARIOS.factory('paper-default')!r}); pass overwrite=True to replace it"
        )


class TestRejectedKeywords:
    def test_ga(self):
        error = raised(create_scheduler, "ga", population=8)
        assert type(error) is TypeError
        assert str(error) == (
            "scheduler 'ga' (factory repro.scheduling.ga.scheduler.GAScheduler) rejected "
            "keyword overrides ['population']: unknown GAConfig override(s) ['population']; "
            "valid fields: crossover_probability, gene_mutation_probability, generations, "
            "population_size, seed, seed_with_heuristic"
        )

    def test_cpu_instigated(self):
        error = raised(create_execution_model, "cpu-instigated", jiter_window=2)
        assert type(error) is TypeError
        assert str(error) == (
            "execution model 'cpu-instigated' (factory "
            "repro.runtime.models.CPUInstigatedModel) rejected keyword overrides "
            "['jiter_window']: got an unexpected keyword argument 'jiter_window'; "
            "accepted parameters: request_size_flits, background_size_flits, jitter_window"
        )


class TestInvalidNames:
    def test_backend(self):
        error = raised(create_backend, "bad name:x=1")
        assert type(error) is ValueError
        assert error.args == (
            "invalid backend spec 'bad name:x=1': invalid cache backend name 'bad name'",
        )
