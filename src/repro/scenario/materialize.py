"""Turning a declarative :class:`~repro.scenario.spec.Scenario` into live objects.

:func:`materialize` is the single entry point every consumer shares: given a
scenario and a system index it builds the concrete ``(TaskSet, Platform,
FaultInjector)`` triple — a fresh synthetic system drawn from the scenario's
workload, a fresh controller + NoC built from its platform, and a fresh fault
injector from its fault plan.

Determinism is the contract: the per-system RNG seed is derived from the
scenario's *content key* and the system index via
:func:`repro.core.serialization.content_hash` (SHA-256 of canonical JSON), so
materialisation is a pure function of ``(scenario, system_index)`` — bit
identical in-process, on any worker of a process pool, and across runs.  Any
change to any scenario field changes the content key and therefore the drawn
systems, which keeps content-addressed caches honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.core.memo import get_memo
from repro.core.serialization import content_hash
from repro.core.task import TaskSet
from repro.hardware.controller import IOController
from repro.hardware.devices import CANDevice, GPIOPin, IODevice, SPIDevice, UARTDevice
from repro.hardware.faults import FaultInjector
from repro.noc.network import NoCNetwork
from repro.noc.topology import MeshTopology
from repro.scenario.spec import PlatformSpec, Scenario
from repro.taskgen import SystemGenerator

#: Device factories resolvable from ``PlatformSpec.device_type``.
_DEVICE_FACTORIES: Dict[str, Callable[[str], IODevice]] = {
    "gpio": GPIOPin,
    "uart": UARTDevice,
    "spi": SPIDevice,
    "can": CANDevice,
}


def system_seed(scenario: Scenario, system_index: int) -> int:
    """The deterministic RNG seed of one ``(scenario, system index)`` pair.

    Derived from the scenario's content key, so scenarios differing in *any*
    field draw decorrelated workloads, while the same scenario always draws
    the same system at the same index — regardless of process or worker count.
    """
    if system_index < 0:
        raise ValueError(f"system_index must be non-negative, got {system_index}")
    return int(
        content_hash(
            {
                "purpose": "scenario-system-seed",
                "scenario": scenario.content_key(),
                "index": int(system_index),
            }
        ),
        16,
    )


def pinned_scenario(scenario: Scenario, utilisation: float) -> Scenario:
    """``scenario.with_utilisation(utilisation)``, shared within a process.

    Sweeps and campaigns pin the same few scenarios at the same few
    utilisation points once per cell.  The pinned copy is a frozen value, so
    every cell of one point shares one copy from the ``cell-scenario`` memo,
    and with it the copy's memoised content key: each grid point is hashed
    once.
    """
    return get_memo("cell-scenario").get_or_create(
        (scenario.content_key(), utilisation),
        lambda: scenario.with_utilisation(utilisation),
    )


@dataclass
class Platform:
    """The materialised execution platform of one run.

    ``controller`` is a fresh :class:`~repro.hardware.controller.IOController`
    (fault injector already attached) ready for the pre-load / schedule-load /
    run phases; ``network`` is a fresh NoC built from the same spec, used to
    model CPU-instigated I/O traffic.  The controller is a stateful simulation
    object — materialise again for an independent run.  CPU-instigated runs
    leave the network as they found it.
    """

    spec: PlatformSpec
    controller: IOController
    network: NoCNetwork

    @property
    def topology(self) -> MeshTopology:
        return self.network.topology

    @property
    def io_tile(self):
        """The router the I/O controller is attached to (the far corner)."""
        return self.spec.io_tile

    def cpu_tiles(self):
        """Every mesh tile except the controller's (candidate CPU sources)."""
        return [node for node in self.topology.nodes() if node != self.io_tile]


def build_platform(
    spec: PlatformSpec, *, fault_injector: Optional[FaultInjector] = None
) -> Platform:
    """Build a fresh controller + NoC pair from a platform description."""
    device_factory = _DEVICE_FACTORIES[spec.device_type]
    controller = IOController(
        memory_kb=spec.memory_kb,
        request_latency=spec.request_latency,
        response_latency=spec.response_latency,
        missing_request_policy=spec.missing_request_policy,
        timer_resolution=spec.timer_resolution,
        fault_injector=fault_injector,
        device_factory=device_factory,
    )
    network = NoCNetwork(
        MeshTopology(spec.mesh_width, spec.mesh_height),
        routing_delay=spec.routing_delay,
        flit_delay=spec.flit_delay,
        injection_delay=spec.injection_delay,
        ejection_delay=spec.ejection_delay,
    )
    return Platform(spec=spec, controller=controller, network=network)


@dataclass
class MaterializedScenario:
    """The concrete objects one scenario materialisation produced.

    Iterable as the ``(task_set, platform, faults)`` triple, so call sites can
    unpack it directly while still having the provenance fields at hand.
    """

    task_set: TaskSet
    platform: Platform
    faults: FaultInjector
    scenario: Scenario
    system_index: int
    seed: int

    def __iter__(self) -> Iterator:
        yield self.task_set
        yield self.platform
        yield self.faults


def _generate_task_set(scenario: Scenario, seed: int) -> TaskSet:
    """Draw the scenario's synthetic system (the expensive part of materialising)."""
    workload = scenario.workload
    generator = SystemGenerator(workload.generator, rng=seed)
    return generator.generate(workload.utilisation, workload.n_tasks)


def materialize(
    scenario: Scenario,
    system_index: int = 0,
    *,
    utilisation: Optional[float] = None,
) -> MaterializedScenario:
    """Materialise ``scenario`` at ``system_index``; pure in its arguments.

    ``utilisation`` overrides the workload's target utilisation (sweeps pin a
    different value per point); the override is folded into the scenario
    *before* seed derivation, exactly as if the scenario had been built with
    it, so an override and a pinned field are indistinguishable.
    """
    if utilisation is not None and utilisation != scenario.workload.utilisation:
        scenario = scenario.with_utilisation(utilisation)
    seed = system_seed(scenario, system_index)
    # The drawn task set is a pure function of (scenario content, index) and is
    # immutable once built, so warm workers reuse it from a bounded per-process
    # memo.  The platform and fault injector are stateful and always rebuilt.
    task_set = get_memo("materialize", 256).get_or_create(
        (scenario.content_key(), system_index),
        lambda: _generate_task_set(scenario, seed),
    )
    faults = FaultInjector(list(scenario.faults.faults))
    platform = build_platform(scenario.platform, fault_injector=faults)
    return MaterializedScenario(
        task_set=task_set,
        platform=platform,
        faults=faults,
        scenario=scenario,
        system_index=system_index,
        seed=seed,
    )
