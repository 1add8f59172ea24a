"""The declarative scenario model: workload + platform + faults as one value.

A :class:`Scenario` is a frozen, versioned description of *everything* an
evaluation run needs beyond the scheduling method itself:

* :class:`WorkloadSpec` — which synthetic systems to generate (a
  :class:`~repro.taskgen.GeneratorConfig` plus target utilisation, task count
  rule and base seed);
* :class:`PlatformSpec` — the controller and NoC the schedule executes on
  (controller memory/latencies/timer, device type, mesh dimensions, link
  delays, background traffic);
* :class:`FaultPlanSpec` — the faults injected into the run, as declarative
  :class:`~repro.hardware.faults.FaultSpec` values.

Scenarios round-trip losslessly through the versioned JSON envelope of
:mod:`repro.core.serialization` (``kind="repro/scenario"``, version 1) and are
content-addressable via :meth:`Scenario.content_key`, following the same
discipline as :class:`~repro.service.messages.ScheduleRequest`: logically
equal scenarios hash identically, and *every* field — including the name —
participates in the key, so any change is a cache miss rather than a silently
reused stale schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.serialization import (
    content_hash,
    parse_versioned_payload,
    versioned_payload,
)
from repro.hardware.faults import FAULT_KINDS, FaultSpec  # noqa: F401 (re-export)
from repro.taskgen import GeneratorConfig

SCENARIO_KIND = "repro/scenario"
SCENARIO_VERSION = 1

#: Device models a platform can attach to every controller processor
#: (resolved by :func:`repro.scenario.materialize.build_platform`).
DEVICE_TYPES = ("gpio", "uart", "spi", "can")

#: Fault-recovery policies of the controller's fault-recovery unit.
MISSING_REQUEST_POLICIES = ("skip", "execute")


def _check_positive(name: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_non_negative(name: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _flat_dict(value: Any) -> Dict[str, Any]:
    """The fields of a dataclass whose fields are all plain values, as a dict.

    What ``dataclasses.asdict`` returns for such a value, without its
    recursive deep copy: the specs build content keys on every grid cell.
    """
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _from_dict(cls, data: Mapping[str, Any], label: str) -> Dict[str, Any]:
    """Validate keys of a plain-dict dataclass payload; returns the kwargs."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {label} fields: {sorted(unknown)}")
    return dict(data)


@dataclass(frozen=True)
class WorkloadSpec:
    """Which synthetic systems a scenario generates.

    ``utilisation`` is the default target system utilisation; consumers that
    sweep utilisation (the experiment engine) override it per point via
    :meth:`Scenario.with_utilisation`.  ``n_tasks=None`` applies the paper's
    rule ``|Gamma| = U / utilisation_per_task``.  ``seed`` selects the random
    stream; the concrete per-system seed is derived from the scenario's
    content key and the system index (see
    :func:`repro.scenario.materialize.system_seed`), so two scenarios that
    differ in any field draw decorrelated workloads.
    """

    utilisation: float = 0.5
    n_tasks: Optional[int] = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.generator, Mapping):
            object.__setattr__(
                self,
                "generator",
                GeneratorConfig(**_from_dict(GeneratorConfig, self.generator, "generator")),
            )
        if not isinstance(self.generator, GeneratorConfig):
            raise ValueError(f"generator must be a GeneratorConfig, got {self.generator!r}")
        if not isinstance(self.utilisation, (int, float)) or isinstance(self.utilisation, bool):
            raise ValueError(f"utilisation must be a number, got {self.utilisation!r}")
        if not self.utilisation > 0:
            raise ValueError(f"utilisation must be positive, got {self.utilisation!r}")
        if self.n_tasks is not None:
            _check_positive("n_tasks", self.n_tasks)
        _check_non_negative("seed", self.seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "utilisation": self.utilisation,
            "n_tasks": self.n_tasks,
            "generator": _flat_dict(self.generator),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(**_from_dict(cls, data, "workload"))


@dataclass(frozen=True)
class PlatformSpec:
    """The controller and NoC a scenario's schedule executes on.

    The defaults reproduce the platform of the paper's evaluation: a 32 KiB
    controller driving GPIO pins with unit request/response latencies, placed
    at the far corner of a 4x4 mesh with two background packets of competing
    application traffic per I/O request.
    """

    # -- controller --------------------------------------------------------------
    memory_kb: int = 32
    request_latency: int = 1
    response_latency: int = 1
    missing_request_policy: str = "skip"
    timer_resolution: int = 1
    device_type: str = "gpio"
    # -- NoC ---------------------------------------------------------------------
    mesh_width: int = 4
    mesh_height: int = 4
    routing_delay: int = 2
    flit_delay: int = 1
    injection_delay: int = 1
    ejection_delay: int = 1
    background_packets_per_job: int = 2

    def __post_init__(self) -> None:
        for name in ("memory_kb", "timer_resolution", "mesh_width", "mesh_height"):
            _check_positive(name, getattr(self, name))
        for name in (
            "request_latency",
            "response_latency",
            "routing_delay",
            "flit_delay",
            "injection_delay",
            "ejection_delay",
            "background_packets_per_job",
        ):
            _check_non_negative(name, getattr(self, name))
        if self.mesh_width * self.mesh_height < 2:
            raise ValueError(
                "the mesh needs at least 2 nodes (one I/O tile plus one CPU tile); "
                f"got {self.mesh_width}x{self.mesh_height}"
            )
        if self.device_type not in DEVICE_TYPES:
            raise ValueError(
                f"unknown device type {self.device_type!r}; expected one of {DEVICE_TYPES}"
            )
        if self.missing_request_policy not in MISSING_REQUEST_POLICIES:
            raise ValueError(
                f"unknown missing-request policy {self.missing_request_policy!r}; "
                f"expected one of {MISSING_REQUEST_POLICIES}"
            )

    @property
    def io_tile(self) -> Tuple[int, int]:
        """Mesh coordinates of the I/O controller's router (the far corner)."""
        return (self.mesh_width - 1, self.mesh_height - 1)

    def to_dict(self) -> Dict[str, Any]:
        return _flat_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        return cls(**_from_dict(cls, data, "platform"))


@dataclass(frozen=True)
class FaultPlanSpec:
    """The declarative fault plan of a scenario.

    Each entry is a :class:`~repro.hardware.faults.FaultSpec` (kind validated
    against :data:`~repro.hardware.faults.FAULT_KINDS` at construction);
    :func:`repro.scenario.materialize.materialize` turns the plan into a fresh
    :class:`~repro.hardware.faults.FaultInjector` per run.
    """

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        coerced = []
        for entry in self.faults:
            if isinstance(entry, Mapping):
                entry = FaultSpec(**_from_dict(FaultSpec, entry, "fault"))
            if not isinstance(entry, FaultSpec):
                raise ValueError(f"fault entries must be FaultSpec values, got {entry!r}")
            coerced.append(entry)
        object.__setattr__(self, "faults", tuple(coerced))

    def __len__(self) -> int:
        return len(self.faults)

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [_flat_dict(fault) for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlanSpec":
        payload = _from_dict(cls, data, "fault plan")
        return cls(faults=tuple(payload.get("faults") or ()))


@dataclass(frozen=True)
class Scenario:
    """One complete, serialisable description of an evaluation scenario.

    Frozen and hashable, so scenarios can ride inside other frozen values
    (:class:`~repro.service.messages.ScheduleRequest`,
    :class:`~repro.experiments.config.ExperimentConfig`) and travel to worker
    processes by pickling.  Use :func:`dataclasses.replace` or the
    ``with_*`` helpers to derive variants.
    """

    name: str = "custom"
    description: str = ""
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    faults: FaultPlanSpec = field(default_factory=FaultPlanSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name or self.name != self.name.strip():
            raise ValueError(f"scenario name must be a non-empty stripped string, got {self.name!r}")
        if isinstance(self.workload, Mapping):
            object.__setattr__(self, "workload", WorkloadSpec.from_dict(self.workload))
        if isinstance(self.platform, Mapping):
            object.__setattr__(self, "platform", PlatformSpec.from_dict(self.platform))
        if isinstance(self.faults, (list, tuple)):
            object.__setattr__(self, "faults", FaultPlanSpec(faults=tuple(self.faults)))
        elif isinstance(self.faults, Mapping):
            object.__setattr__(self, "faults", FaultPlanSpec.from_dict(self.faults))
        for attr, expected in (
            ("workload", WorkloadSpec),
            ("platform", PlatformSpec),
            ("faults", FaultPlanSpec),
        ):
            if not isinstance(getattr(self, attr), expected):
                raise ValueError(
                    f"scenario {attr} must be a {expected.__name__}, got {getattr(self, attr)!r}"
                )

    # -- derivation --------------------------------------------------------------

    def with_utilisation(self, utilisation: float) -> "Scenario":
        """A copy pinning the workload's target utilisation (sweep points)."""
        return replace(self, workload=replace(self.workload, utilisation=utilisation))

    def with_workload(self, **overrides: Any) -> "Scenario":
        return replace(self, workload=replace(self.workload, **overrides))

    def with_platform(self, **overrides: Any) -> "Scenario":
        return replace(self, platform=replace(self.platform, **overrides))

    def with_faults(self, faults: Iterable[FaultSpec]) -> "Scenario":
        return replace(self, faults=FaultPlanSpec(faults=tuple(faults)))

    # -- serialisation -----------------------------------------------------------

    def data_dict(self) -> Dict[str, Any]:
        """The bare (unversioned) payload; every field enters the content key."""
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload.to_dict(),
            "platform": self.platform.to_dict(),
            "faults": self.faults.to_dict(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return versioned_payload(SCENARIO_KIND, SCENARIO_VERSION, self.data_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        _, data = parse_versioned_payload(
            dict(payload), SCENARIO_KIND, max_version=SCENARIO_VERSION
        )
        kwargs = _from_dict(cls, data, "scenario")
        return cls(
            name=kwargs.get("name", "custom"),
            description=kwargs.get("description", ""),
            workload=WorkloadSpec.from_dict(kwargs.get("workload") or {}),
            platform=PlatformSpec.from_dict(kwargs.get("platform") or {}),
            faults=FaultPlanSpec.from_dict(kwargs.get("faults") or {}),
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def content_key(self) -> str:
        """Content-address of the full scenario (any field change changes it).

        The scenario is frozen, so the key is hashed once and memoised; the
        cached string also rides along in pickles, saving pool workers the
        re-hash.
        """
        cached = self.__dict__.get("_content_key")
        if cached is None:
            cached = content_hash(self.data_dict())
            object.__setattr__(self, "_content_key", cached)
        return cached


#: Anything :func:`repro.scenario.registry.create_scenario` can resolve.
ScenarioLike = Union[str, Mapping, Scenario]
