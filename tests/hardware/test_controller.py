"""Unit and integration tests for the controller processor and full I/O controller."""

import pytest

from repro.core import MS, IOTask, Schedule, TaskSet
from repro.hardware import (
    CANDevice,
    FaultInjector,
    FaultSpec,
    GPIOPin,
    IOController,
    SPIDevice,
    UARTDevice,
)
from repro.hardware.controller import default_command_builder
from repro.hardware.memory import IOCommand
from repro.scheduling import HeuristicScheduler
from repro.sim import Simulator
from repro.taskgen import GeneratorConfig, SystemGenerator


def make_task(name, wcet, period, delta, device="dev0"):
    return IOTask(
        name=name,
        wcet=wcet * MS,
        period=period * MS,
        ideal_offset=delta * MS,
        theta=(period // 4) * MS,
        device=device,
    )


def schedule_at_ideal(task_set: TaskSet) -> dict:
    schedules = {}
    for device, partition in task_set.partition().items():
        schedule = Schedule(device=device)
        for job in partition.jobs():
            schedule.set_start(job, job.ideal_start)
        schedules[device] = schedule
    return schedules


class TestDefaultCommandBuilder:
    def test_single_command_covers_wcet(self):
        task = make_task("a", 3, 40, delta=10)
        commands = default_command_builder(task)
        assert len(commands) == 1
        assert commands[0].duration == task.wcet

    @pytest.mark.parametrize("device", [GPIOPin, UARTDevice, SPIDevice, CANDevice])
    def test_every_built_in_device_accepts_the_command(self, device):
        (command,) = default_command_builder(make_task("a", 3, 40, delta=10))
        assert command.opcode in device("dev0").supported_opcodes()


class TestIOController:
    def test_preload_rejects_mismatched_command_duration(self):
        task = make_task("a", 3, 40, delta=10)
        controller = IOController(
            command_builder=lambda t: [IOCommand("set", t.device, duration=1)]
        )
        with pytest.raises(ValueError):
            controller.preload_taskset(TaskSet([task]))

    def test_run_requires_loaded_schedule(self):
        controller = IOController()
        controller.preload_taskset(TaskSet([make_task("a", 2, 40, delta=10)]))
        with pytest.raises(RuntimeError):
            controller.run()

    def test_executes_schedule_exactly(self):
        task_set = TaskSet(
            [make_task("a", 2, 40, delta=10), make_task("b", 3, 40, delta=20)]
        )
        controller = IOController()
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedule_at_ideal(task_set))
        result = controller.run(Simulator())
        assert result.matches_offline
        assert result.psi == pytest.approx(1.0)
        assert result.executed_jobs == 2
        assert result.skipped_jobs == 0
        assert result.start_time_deviations() == [0, 0]

    def test_multi_device_partitions_have_one_processor_each(self):
        task_set = TaskSet(
            [
                make_task("a", 2, 40, delta=10, device="d0"),
                make_task("b", 3, 40, delta=10, device="d1"),
            ]
        )
        controller = IOController()
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedule_at_ideal(task_set))
        result = controller.run(Simulator())
        assert set(controller.processors) == {"d0", "d1"}
        assert result.matches_offline

    def test_a_device_without_an_offline_schedule(self):
        """A task device the schedules omit runs an empty runtime schedule:
        the run does not match the offline one, and that device has no
        deviations."""
        task_set = TaskSet(
            [
                make_task("a", 2, 40, delta=10, device="d0"),
                make_task("b", 3, 40, delta=10, device="d1"),
            ]
        )
        for run in (lambda c: c.run(Simulator()), IOController.run_tables):
            controller = IOController()
            controller.preload_taskset(task_set)
            controller.load_system_schedule({"d0": schedule_at_ideal(task_set)["d0"]})
            result = run(controller)
            assert list(result.runtime_schedules) == ["d0", "d1"]
            assert len(result.runtime_schedules["d1"]) == 0
            assert not result.matches_offline
            assert result.start_time_deviations() == [0]

    def test_device_operations_recorded(self):
        task_set = TaskSet([make_task("a", 2, 40, delta=10)])
        controller = IOController()
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedule_at_ideal(task_set))
        controller.run(Simulator())
        device = controller.processors["dev0"].device
        assert device.operation_times() == [10 * MS]

    def test_missing_request_fault_skips_only_affected_task(self):
        task_set = TaskSet(
            [make_task("a", 2, 40, delta=10), make_task("b", 3, 40, delta=20)]
        )
        injector = FaultInjector([FaultSpec(kind="missing-request", task_name="a")])
        controller = IOController(fault_injector=injector)
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedule_at_ideal(task_set))
        requested = [
            entry.job
            for schedule in schedule_at_ideal(task_set).values()
            for entry in schedule.entries
            if entry.job.task.name != "a"
        ]
        result = controller.run(Simulator(), request_jobs=requested)
        assert result.skipped_jobs == 1
        assert result.faults_detected == 1
        assert result.executed_jobs == 1

    def test_offline_heuristic_schedule_reproduced_at_runtime(self):
        task_set = SystemGenerator(GeneratorConfig(n_devices=2), rng=13).generate(0.4)
        offline = HeuristicScheduler().schedule_taskset(task_set)
        assert offline.schedulable
        controller = IOController()
        controller.preload_taskset(task_set)
        controller.load_system_schedule({d: r.schedule for d, r in offline.per_device.items()})
        result = controller.run(Simulator())
        assert result.matches_offline
        assert result.psi == pytest.approx(offline.psi)
        assert result.upsilon == pytest.approx(offline.upsilon)
