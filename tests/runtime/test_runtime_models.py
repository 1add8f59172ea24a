"""Unit tests for the execution-model registry and the built-in models."""

from collections import Counter

import numpy as np
import pytest

from repro.core import MS, IOTask, TaskSet
from repro.core.schedule import Schedule, ScheduleEntry
from repro.hardware import (
    IODevice,
    RequestChannel,
    ResponseChannel,
    SchedulingTable,
    Synchroniser,
)
from repro.runtime import (
    BUILTIN_EXECUTION_MODELS,
    ExecutionModel,
    ExecutionModelSpec,
    SimulationRequest,
    available_execution_models,
    create_execution_model,
    execute_simulation,
    execution_model_registered,
    format_execution_model_listing,
    list_execution_models,
    register_execution_model,
    unregister_execution_model,
)
from repro.scenario import DEVICE_TYPES, create_scenario, materialize
from repro.service import ScheduleRequest, SchedulerSpec
from repro.service.service import execute_request
from repro.sim import Simulator
from repro.sim.events import EventQueue


@pytest.fixture(scope="module")
def materialized():
    return materialize(create_scenario("short-hyperperiod"), 0)


@pytest.fixture(scope="module")
def schedules(materialized):
    response = execute_request(
        ScheduleRequest(
            scenario=materialized.scenario,
            system_index=0,
            spec=SchedulerSpec.parse("static"),
        )
    )
    assert response.schedulable
    return response.device_schedules(materialized.task_set)


def fresh_platform():
    return materialize(create_scenario("short-hyperperiod"), 0).platform


class TestRegistry:
    def test_builtins_are_registered(self):
        for name in BUILTIN_EXECUTION_MODELS:
            assert execution_model_registered(name)
        assert set(BUILTIN_EXECUTION_MODELS) <= set(available_execution_models())

    def test_aliases_resolve_to_the_same_factory(self):
        assert type(create_execution_model("controller")) is type(
            create_execution_model("dedicated-controller")
        )
        assert type(create_execution_model("remote-cpu")) is type(
            create_execution_model("cpu-instigated")
        )

    def test_unknown_model_names_the_registered_set(self):
        with pytest.raises(KeyError, match="dedicated-controller"):
            create_execution_model("quantum-io")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_execution_model("cpu-instigated", lambda: None)

    def test_register_and_unregister(self):
        sentinel = object()
        register_execution_model("test-model", lambda: sentinel)
        try:
            assert create_execution_model("test-model") is sentinel
            assert "test-model" in list_execution_models()
        finally:
            unregister_execution_model("test-model")
        assert not execution_model_registered("test-model")
        with pytest.raises(KeyError):
            unregister_execution_model("test-model")

    def test_a_model_implementing_only_execute_receives_schedule_objects(self, materialized):
        """``execute_simulation`` calls ``execute_flat``; its default hands a
        model that implements only ``execute`` rebuilt ``Schedule`` objects,
        and the run answers as the model it delegates to does."""
        received = []

        class ObjectsOnly(ExecutionModel):
            def execute(self, task_set, schedules, platform, *, seed=0, max_events=None):
                received.extend(type(schedule) for schedule in schedules.values())
                return create_execution_model("cpu-instigated").execute(
                    task_set, schedules, platform, seed=seed, max_events=max_events
                )

        register_execution_model("objects-only", ObjectsOnly)
        try:
            answers = [
                execute_simulation(
                    SimulationRequest(
                        scenario=materialized.scenario, execution_model=model, seed=5
                    )
                ).result_dict()
                for model in ("objects-only", "cpu-instigated")
            ]
        finally:
            unregister_execution_model("objects-only")
        assert received and set(received) == {Schedule}
        assert answers[0].pop("execution_model") == "objects-only"
        answers[1].pop("execution_model")
        assert answers[0] == answers[1]

    def test_a_model_implementing_neither_form_raises(self, materialized, schedules):
        with pytest.raises(NotImplementedError, match="neither execute nor execute_flat"):
            ExecutionModel().execute(materialized.task_set, schedules, fresh_platform())

    def test_rejected_override_names_the_factory(self):
        with pytest.raises(TypeError, match="cpu-instigated"):
            create_execution_model("cpu-instigated", not_an_option=3)

    def test_listing_mentions_every_name(self):
        text = format_execution_model_listing()
        for name in BUILTIN_EXECUTION_MODELS:
            assert name in text


class TestExecutionModelSpec:
    def test_parse_format_round_trip(self):
        spec = ExecutionModelSpec.parse("cpu-instigated:jitter_window=3")
        assert str(spec) == "cpu-instigated:jitter_window=3"
        assert spec.options_dict() == {"jitter_window": 3}

    def test_resolve_forwards_options(self):
        model = ExecutionModelSpec.parse("cpu-instigated:jitter_window=9").resolve()
        assert model.jitter_window == 9

    def test_coerce_accepts_scheduler_spec_shape(self):
        base = SchedulerSpec.parse("cpu-instigated:jitter_window=3")
        spec = ExecutionModelSpec.coerce(base)
        assert isinstance(spec, ExecutionModelSpec)
        assert str(spec) == str(base)

    def test_dict_round_trip(self):
        spec = ExecutionModelSpec.parse("dedicated-controller")
        assert ExecutionModelSpec.from_dict(spec.to_dict()) == spec

    def test_with_options_keeps_the_execution_model_spec(self):
        spec = ExecutionModelSpec.parse("cpu-instigated").with_options(jitter_window=2)
        assert isinstance(spec, ExecutionModelSpec)
        assert spec.resolve().jitter_window == 2

    def test_an_invalid_name_is_called_a_model_name(self):
        with pytest.raises(ValueError, match="^invalid execution model name 'no model'$"):
            ExecutionModelSpec.parse("no model")

    def test_coerced_scheduler_spec_resolves_to_a_model(self):
        spec = ExecutionModelSpec.coerce(SchedulerSpec.parse("cpu-instigated:jitter_window=2"))
        assert type(spec) is ExecutionModelSpec
        assert spec.resolve().jitter_window == 2


class TestDedicatedController:
    def test_reproduces_offline_exactly(self, materialized, schedules):
        model = create_execution_model("dedicated-controller")
        outcome = model.execute(materialized.task_set, schedules, fresh_platform(), seed=0)
        assert outcome.matches_offline
        assert outcome.accuracy == 1.0
        assert outcome.skipped_jobs == 0
        assert outcome.mean_noc_latency == 0.0
        assert outcome.start_time_deviations() == [0] * outcome.executed_jobs

    def test_max_events_exhaustion_is_reported(self, materialized, schedules):
        model = create_execution_model("dedicated-controller")
        outcome = model.execute(
            materialized.task_set, schedules, fresh_platform(), seed=0, max_events=3
        )
        assert outcome.exhausted
        assert outcome.events_processed == 3

    def test_each_scheduling_table_is_read_once_and_never_sorted(self, monkeypatch):
        """Phase 2 keeps a schedule listed in ``(start, task, index)`` order
        as it is, and the pass reads each table's columns once: the 476-job
        partition's table is never sorted."""
        calls = Counter()
        columns = SchedulingTable.columns

        def counting_columns(table):
            calls[id(table)] += 1
            return columns(table)

        scenario = (
            create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
        )
        system = materialize(scenario, 0)
        response = execute_request(
            ScheduleRequest(scenario=scenario, system_index=0, spec=SchedulerSpec.parse("static"))
        )
        schedules = response.device_schedules(system.task_set)
        monkeypatch.setattr(SchedulingTable, "columns", counting_columns)
        monkeypatch.setattr(np, "lexsort", counting(calls, np, "lexsort"))
        outcome = create_execution_model("dedicated-controller").execute(
            system.task_set, schedules, system.platform
        )
        assert outcome.executed_jobs == outcome.events_processed == 476
        tables = [processor.table for processor in system.platform.controller.processors.values()]
        assert calls.pop("numpy.lexsort", 0) == 0
        assert sorted(calls) == sorted(id(table) for table in tables)
        assert all(calls[id(table)] == 1 for table in tables)

    def test_a_reused_platform_gives_the_same_run(self, materialized, schedules):
        """The pass changes no run-time state of the controller (device busy
        times, channels, enable bits, fault counters), so a second run on
        the same platform repeats the first."""
        platform = fresh_platform()
        model = create_execution_model("dedicated-controller")
        first, second = (
            model.execute(materialized.task_set, schedules, platform, max_events=40)
            for _ in range(2)
        )
        assert second.runtime_schedules["dev0"].entries == first.runtime_schedules["dev0"].entries
        assert (second.executed_jobs, second.events_processed, second.exhausted) == (
            first.executed_jobs,
            first.events_processed,
            first.exhausted,
        )
        assert second.trace_counts == first.trace_counts

    def test_a_reused_platform_keeps_no_table_of_an_earlier_run(self):
        """Phase 2 replaces every table: a device the new schedules omit gets
        an empty one.  Before, ``b``'s table from the first run stayed on
        ``d1`` and fired with ``b`` never requested: one skipped job and one
        fault."""
        a = IOTask("a", wcet=2 * MS, period=40 * MS, ideal_offset=10 * MS, device="d0")
        b = IOTask("b", wcet=2 * MS, period=40 * MS, ideal_offset=20 * MS, device="d1")
        task_set = TaskSet([a, b])
        both = {
            task.device: Schedule([ScheduleEntry(task.job(0), task.job(0).ideal_start)])
            for task in task_set
        }
        only_d0 = {"d0": both["d0"]}
        model = create_execution_model("dedicated-controller")

        def observed(outcome):
            return (
                outcome.executed_jobs,
                outcome.skipped_jobs,
                outcome.faults_detected,
                outcome.trace_counts,
                outcome.start_time_deviations(),
            )

        fresh = model.execute(task_set, only_d0, fresh_platform())
        reused = fresh_platform()
        model.execute(task_set, both, reused)
        assert observed(model.execute(task_set, only_d0, reused)) == observed(fresh)
        assert observed(fresh) == (1, 0, 0, {"job-start": 1}, [0])

    @pytest.mark.parametrize("device_type", DEVICE_TYPES)
    def test_every_device_type_runs(self, device_type):
        """The default command is a ``write``, which every built-in device
        accepts, so each device type reproduces the offline schedule, in the
        model and in the event-driven controller alike."""
        scenario = create_scenario("short-hyperperiod").with_platform(device_type=device_type)
        request = SimulationRequest(
            scenario=scenario, method="static", execution_model="dedicated-controller"
        )
        response = execute_simulation(request)
        assert response.schedulable and response.matches_offline
        assert response.executed_jobs > 0 and response.skipped_jobs == 0
        system = materialize(scenario, 0)
        schedules = execute_request(request.schedule_request()).device_schedules(system.task_set)
        controller = system.platform.controller
        controller.preload_taskset(system.task_set)
        controller.load_system_schedule(schedules)
        assert controller.run().matches_offline

    def test_a_run_builds_no_event_loop(self, monkeypatch):
        """On the 476-job partition the model reads each table's columns at
        most twice and makes no event, channel message, synchroniser step,
        device operation or table entry; the event-driven run of the same
        tables makes them all."""
        calls = Counter()
        counted = [
            (Simulator, "run"),
            (EventQueue, "push"),
            (RequestChannel, "push"),
            (ResponseChannel, "push"),
            (Synchroniser, "execute_due"),
            (IODevice, "execute"),
            (SchedulingTable, "entries"),
            (SchedulingTable, "columns"),
        ]
        for cls, name in counted:
            monkeypatch.setattr(cls, name, counting(calls, cls, name))
        scenario = (
            create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
        )
        system = materialize(scenario, 0)
        response = execute_request(
            ScheduleRequest(scenario=scenario, system_index=0, spec=SchedulerSpec.parse("static"))
        )
        schedules = response.device_schedules(system.task_set)
        outcome = create_execution_model("dedicated-controller").execute(
            system.task_set, schedules, system.platform
        )
        assert outcome.executed_jobs == outcome.events_processed == 476
        tables = len(system.platform.controller.processors)
        assert 0 < calls.pop("SchedulingTable.columns") <= 2 * tables
        assert calls == Counter()

        controller = materialize(scenario, 0).platform.controller
        controller.preload_taskset(system.task_set)
        controller.load_system_schedule(schedules)
        controller.run()
        calls.pop("SchedulingTable.entries")
        calls.pop("SchedulingTable.columns")
        assert calls == {
            "Simulator.run": 1,
            "EventQueue.push": 476,
            "RequestChannel.push": 436,
            "ResponseChannel.push": 476,
            "Synchroniser.execute_due": 476,
            "IODevice.execute": 476,
        }


def counting(calls, cls, name):
    """``cls.name``, counting its calls under ``"Class.name"``."""
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[f"{cls.__name__}.{name}"] += 1
        return method(*args, **kwargs)

    return counted


class TestCPUInstigated:
    def test_loses_exactness_to_noc_latency(self, materialized, schedules):
        model = create_execution_model("cpu-instigated")
        outcome = model.execute(materialized.task_set, schedules, fresh_platform(), seed=7)
        assert not outcome.matches_offline
        assert outcome.accuracy < 1.0
        assert outcome.mean_noc_latency > 0
        assert outcome.executed_jobs == outcome.offline_jobs
        # Every job still executes — late, not dropped.
        assert outcome.skipped_jobs == 0

    def test_same_seed_is_deterministic(self, materialized, schedules):
        model = create_execution_model("cpu-instigated")
        a = model.execute(materialized.task_set, schedules, fresh_platform(), seed=7)
        b = model.execute(materialized.task_set, schedules, fresh_platform(), seed=7)
        assert a.start_time_deviations() == b.start_time_deviations()
        assert a.mean_noc_latency == b.mean_noc_latency

    def test_prioritized_requests_cut_latency(self, materialized, schedules):
        plain = create_execution_model("cpu-instigated").execute(
            materialized.task_set, schedules, fresh_platform(), seed=7
        )
        prioritized = create_execution_model("cpu-instigated-prioritized").execute(
            materialized.task_set, schedules, fresh_platform(), seed=7
        )
        # Requests that win arbitration still pay the per-hop path latency,
        # but never queue behind their own background burst.
        assert prioritized.mean_noc_latency < plain.mean_noc_latency
        assert prioritized.mean_noc_latency > 0

    @pytest.mark.parametrize("model_name", ["cpu-instigated", "cpu-instigated-prioritized"])
    @pytest.mark.parametrize("max_events", [None, 300])
    def test_a_reused_platform_gives_the_same_run(self, model_name, max_events):
        """A run leaves no packets or busy links on the platform's network, so
        a second run on the same platform neither queues behind the first nor
        gets a smaller event budget."""
        scenario = create_scenario("paper-default")
        response = execute_request(
            ScheduleRequest(scenario=scenario, system_index=1, spec=SchedulerSpec.parse("static"))
        )
        task_set = materialize(scenario, 1).task_set
        schedules = response.device_schedules(task_set)
        platform = materialize(scenario, 1).platform
        model = create_execution_model(model_name)
        first, second = (
            model.execute(task_set, schedules, platform, seed=3, max_events=max_events)
            for _ in range(2)
        )
        assert second.start_time_deviations() == first.start_time_deviations()
        assert (second.mean_noc_latency, second.max_noc_latency) == (
            first.mean_noc_latency,
            first.max_noc_latency,
        )
        assert (second.events_processed, second.executed_jobs) == (
            first.events_processed,
            first.executed_jobs,
        )
        assert platform.network.delivered == []

    def test_invalid_options_are_rejected(self):
        with pytest.raises(ValueError):
            create_execution_model("cpu-instigated", jitter_window=0)
        with pytest.raises(ValueError):
            create_execution_model("cpu-instigated", request_size_flits=0)

    def test_max_events_bounds_the_noc_work(self, materialized, schedules):
        model = create_execution_model("cpu-instigated")
        total_jobs = sum(len(s.entries) for s in schedules.values())
        events_per_job = 1 + materialized.platform.spec.background_packets_per_job
        budget = events_per_job * 2  # enough for exactly two jobs
        outcome = model.execute(
            materialized.task_set, schedules, fresh_platform(), seed=7, max_events=budget
        )
        assert outcome.exhausted
        assert outcome.executed_jobs == 2
        assert outcome.skipped_jobs == total_jobs - 2
        assert outcome.events_processed <= budget
        assert outcome.accuracy < 1.0  # cut-off jobs count against accuracy

    def test_a_budget_below_one_job_executes_none(self, materialized, schedules):
        events_per_job = 1 + materialized.platform.spec.background_packets_per_job
        outcome = create_execution_model("cpu-instigated").execute(
            materialized.task_set,
            schedules,
            fresh_platform(),
            seed=7,
            max_events=events_per_job - 1,
        )
        assert outcome.exhausted
        assert (outcome.executed_jobs, outcome.events_processed) == (0, 0)

    @pytest.mark.parametrize(
        "bounds",
        [[], [1] * 6, [2] * 6, [2**32 + 1] * 4, [15, 1, 2, 2**32 + 1, 5] * 4],
        ids=["empty", "one", "two", "above-2**32", "interleaved"],
    )
    def test_an_array_of_bounds_draws_like_one_bound_at_a_time(self, bounds):
        """The CPU-instigated models draw a run's randomness in one call;
        NumPy must return exactly the scalar sequence and leave the
        generator where the scalar draws leave it."""
        batched = np.random.default_rng(2020)
        scalar = np.random.default_rng(2020)
        assert batched.integers(0, bounds).tolist() == [
            int(scalar.integers(0, bound)) for bound in bounds
        ]
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestOutcomeMetrics:
    def test_accuracy_counts_skipped_jobs_against_the_model(self, materialized, schedules):
        model = create_execution_model("dedicated-controller")
        outcome = model.execute(materialized.task_set, schedules, fresh_platform(), seed=0)
        # Forge a skip: drop one runtime entry and count it as skipped.
        device = next(iter(outcome.runtime_schedules))
        entries = outcome.runtime_schedules[device].sorted_entries()
        trimmed = Schedule(device=device)
        for entry in entries[1:]:
            trimmed.add(entry)
        outcome.runtime_schedules[device] = trimmed
        outcome.skipped_jobs += 1
        outcome.executed_jobs -= 1
        assert outcome.accuracy < 1.0
        assert outcome.matches_offline  # the remaining jobs are still exact
