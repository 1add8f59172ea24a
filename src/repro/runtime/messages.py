"""Typed request/response envelopes of the run-time simulation subsystem.

Both messages follow the exact discipline of the scheduling-service envelopes
(:mod:`repro.service.messages`): frozen, pure-data values with a lossless
round-trip through the versioned ``{kind, version, data}`` JSON envelope
(``kind=repro/sim-request|response``, version 1) and a content key hashing
precisely the fields that determine the outcome.

A :class:`SimulationRequest` asks one complete run-time question: *execute
scenario S's system i, scheduled by method M, on execution model X, over
horizon H*.  Its :meth:`~SimulationRequest.content_key` covers the scenario's
own content key (which folds in the workload, platform **and fault plan**),
the schedule-method spec, the execution model, the horizon, the event budget
and the execution seed — so any change to any of them is a cache miss, never
a silently reused stale simulation.

A :class:`SimulationResponse` separates the deterministic *result* (accuracy,
run-time Psi/Upsilon, fault counters, NoC latency, trace summary — returned
bit-identically by :func:`repro.runtime.service.execute_simulation` at any
worker count) from per-execution *provenance* (cache status, content key,
elapsed wall-clock time), exactly like
:class:`~repro.service.messages.ScheduleResponse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.serialization import (
    taskset_from_dict,
    taskset_to_dict,
    versioned_payload,
)
from repro.core.task import TaskSet
from repro.scenario import Scenario, create_scenario
from repro.service.messages import (
    RequestEnvelope,
    ResponseEnvelope,
    ScheduleRequest,
    registered_spec,
)
from repro.service.spec import SchedulerSpec
from repro.runtime.models import ExecutionModelSpec

SIM_REQUEST_KIND = "repro/sim-request"
SIM_REQUEST_VERSION = 1
SIM_RESPONSE_KIND = "repro/sim-response"
SIM_RESPONSE_VERSION = 1


@dataclass(frozen=True)
class SimulationRequest(RequestEnvelope):
    """One question to the simulation service: *run this scenario, that way*.

    The scenario supplies the platform (controller + NoC) and the fault plan,
    and — by default — the workload: ``system_index`` selects which of the
    scenario's deterministic systems to draw.  An explicit ``task_set``
    overrides the drawn workload (the path :func:`run_controller_sim
    <repro.experiments.controller_sim.run_controller_sim>` uses to simulate a
    system it generated itself); the platform and faults still come from the
    scenario.

    ``method`` is the offline scheduling method
    (:class:`~repro.service.SchedulerSpec` value or spec string) whose
    schedule is executed; ``execution_model`` the registered run-time
    architecture executing it.  ``seed`` feeds the execution model's RNG
    (CPU-tile placement, background-traffic jitter); ``None`` derives one
    from the request's content, so unseeded requests are still pure.
    ``max_events`` bounds a run's events (the controller's timer triggers,
    or the packets of a CPU-instigated run); a budget that runs out
    mid-horizon is reported via ``SimulationResponse.exhausted``.
    """

    KIND = SIM_REQUEST_KIND
    VERSION = SIM_REQUEST_VERSION
    INT_FIELDS = ("system_index", "horizon", "max_events", "seed")

    scenario: Optional[Scenario] = None
    method: Optional[SchedulerSpec] = "static"
    execution_model: Optional[ExecutionModelSpec] = "dedicated-controller"
    system_index: int = 0
    task_set: Optional[TaskSet] = None
    horizon: Optional[int] = None
    max_events: Optional[int] = None
    seed: Optional[int] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is None:
            raise ValueError("a scenario is required (it supplies platform and faults)")
        object.__setattr__(self, "scenario", create_scenario(self.scenario))
        if self.method is None:
            raise ValueError("a schedule-method spec is required")
        object.__setattr__(self, "method", SchedulerSpec.coerce(self.method))
        if self.execution_model is None:
            raise ValueError("an execution model is required")
        object.__setattr__(
            self, "execution_model", ExecutionModelSpec.coerce(self.execution_model)
        )
        if not isinstance(self.system_index, int) or self.system_index < 0:
            raise ValueError(
                f"system_index must be a non-negative integer, got {self.system_index!r}"
            )
        if self.task_set is not None and self.system_index != 0:
            raise ValueError("an explicit task_set fixes the workload; system_index must be 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events!r}")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    # -- derived views -----------------------------------------------------------

    def schedule_request(self) -> ScheduleRequest:
        """The scheduling-service request obtaining this simulation's schedule.

        Built to be content-identical to what a direct service call, an
        experiment sweep or a campaign cell would submit for the same
        workload/method, so simulations share schedule-cache entries with
        every other consumer instead of recomputing schedules.
        """
        if self.task_set is not None:
            return ScheduleRequest(
                task_set=self.task_set,
                spec=self.method,
                horizon=self.horizon,
                request_id=self.request_id,
            )
        return ScheduleRequest(
            scenario=self.scenario,
            system_index=self.system_index,
            spec=self.method,
            horizon=self.horizon,
            request_id=self.request_id,
        )

    def _key_dict(self) -> Dict[str, Any]:
        """The scenario's content key (covering workload, platform and fault
        plan), the workload override (when explicit), the system index, the
        schedule-method spec and the execution model (each under its
        canonical name), the horizon, the event budget and the seed."""
        return {
            "scenario": self.scenario.content_key(),
            "workload": (
                taskset_to_dict(self.task_set) if self.task_set is not None else None
            ),
            "system_index": self.system_index,
            "method": self.method.canonical().to_dict(),
            "execution_model": self.execution_model.canonical().to_dict(),
            "horizon": self.horizon,
            "max_events": self.max_events,
            "seed": self.seed,
        }

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.request_id,
            "scenario": self.scenario.to_dict(),
            "system_index": self.system_index,
            "method": self.method.to_dict(),
            "execution_model": self.execution_model.to_dict(),
            "horizon": self.horizon,
            "max_events": self.max_events,
            "seed": self.seed,
        }
        if self.task_set is not None:
            data["taskset"] = taskset_to_dict(self.task_set)
        return versioned_payload(SIM_REQUEST_KIND, SIM_REQUEST_VERSION, data)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationRequest":
        data = cls._payload_data(payload)
        task_set = data.get("taskset")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            method=registered_spec(SchedulerSpec.from_dict(data["method"])),
            execution_model=registered_spec(
                ExecutionModelSpec.from_dict(data["execution_model"])
            ),
            system_index=data.get("system_index", 0),
            task_set=taskset_from_dict(task_set) if task_set is not None else None,
            horizon=data.get("horizon"),
            max_events=data.get("max_events"),
            seed=data.get("seed"),
            request_id=data.get("id"),
        )


@dataclass(frozen=True)
class SimulationResponse(ResponseEnvelope):
    """The simulation service's answer: deterministic result + provenance.

    ``method`` is the canonical string of the schedule-method spec actually
    executed (including any seed the scheduling service derived), and
    ``execution_model`` the canonical model spec, so the response alone
    reproduces the run.  ``trace`` is a structured summary of the simulation
    trace — stored-event counts per kind plus start-time-deviation statistics
    — never the full event list.
    """

    KIND = SIM_RESPONSE_KIND
    VERSION = SIM_RESPONSE_VERSION

    scenario: str
    method: str
    execution_model: str
    system_index: int
    horizon: int
    schedulable: bool
    accuracy: float
    psi: float
    upsilon: float
    offline_psi: float
    offline_upsilon: float
    matches_offline: bool
    executed_jobs: int
    skipped_jobs: int
    faults_detected: int
    mean_noc_latency: float
    max_noc_latency: int
    events_processed: int
    exhausted: bool
    trace: Dict[str, Any] = field(default_factory=dict)

    # perfbench's tracer times ``service.envelope`` by wrapping these two
    # methods where it finds them: in this class's own body.
    from_result_dict = classmethod(ResponseEnvelope.from_result_dict.__func__)
    to_dict = ResponseEnvelope.to_dict
