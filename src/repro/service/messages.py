"""Typed request/response envelopes of the scheduling service.

Both messages are frozen, pure-data values that round-trip through the
versioned JSON envelope of :mod:`repro.core.serialization` — the same
``{kind, version, data}`` convention (and the same ``content_hash``) as the
experiment artifact layer — so a request can equally be built in-process, read
from a JSONL batch file, or received over a future network frontend.

A request's :meth:`~ScheduleRequest.content_key` hashes exactly the fields
that determine the scheduling outcome (task set, spec, horizon) and nothing
else; ``request_id`` is caller provenance and deliberately excluded, so two
callers asking the same question share one cache entry.

A response separates the deterministic *result* (schedulability, metrics,
per-device schedules — returned bit-identically by :func:`execute_request
<repro.service.service.execute_request>` regardless of worker count or cache
state) from per-execution *provenance* (cache hit/miss, the content key,
elapsed wall-clock time).  :meth:`ScheduleResponse.result_dict` exposes the
deterministic part on its own; it is what the schedule cache stores.

:class:`RequestEnvelope` and :class:`ResponseEnvelope` hold what these
envelopes share with the run-time simulation envelopes of
:mod:`repro.runtime.messages`: the memoised content key, serialisation,
slim pickles and the result/provenance split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.core.schedule import FlatSchedule, Schedule
from repro.core.serialization import (
    ContentKeyed,
    JsonEnvelope,
    flat_schedule_from_dict,
    parse_versioned_payload,
    schedule_from_dict,
    taskset_from_dict,
    taskset_to_dict,
    versioned_payload,
)
from repro.core.task import TaskSet
from repro.scenario import Scenario, create_scenario, materialize
from repro.service.spec import SchedulerSpec

REQUEST_KIND = "repro/schedule-request"
#: Version 2 added scenario-backed requests; requests without a scenario are
#: still written as version 1 so that version-1 readers keep working.
REQUEST_VERSION = 2
RESPONSE_KIND = "repro/schedule-response"
RESPONSE_VERSION = 1

#: Cache provenance values a response can carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_DISABLED = "disabled"


def registered_spec(spec: SchedulerSpec) -> SchedulerSpec:
    """``spec``, if its class's registry knows its name and the spec resolves.

    Otherwise a ``ValueError`` names the unknown scheduler or model, or the
    spec and the option its factory rejects, so a request line naming either
    fails where it is read."""
    noun = spec.REGISTRY.noun
    if spec.name not in spec.REGISTRY:
        raise ValueError(f"unknown {noun} {spec.name!r}")
    try:
        spec.resolve()
    except (TypeError, ValueError) as error:
        raise ValueError(f"{noun} spec {str(spec)!r}: {error}") from None
    return spec


class RequestEnvelope(JsonEnvelope, ContentKeyed):
    """What every service request shares.

    A subclass is a frozen dataclass with ``task_set``, ``scenario`` and
    ``system_index`` fields.  It names its envelope (:attr:`KIND`,
    :attr:`VERSION`), the integer fields of its payload (:attr:`INT_FIELDS`)
    and the dict its content key hashes (:meth:`_key_dict`: exactly the
    fields that determine the outcome, never ``request_id``).
    """

    KIND: ClassVar[str]
    VERSION: ClassVar[int]
    INT_FIELDS: ClassVar[Tuple[str, ...]]

    def effective_task_set(self) -> TaskSet:
        """The concrete task set: the explicit one, or the scenario's system.

        Materialisation is deterministic (pure in the scenario content and the
        system index), so the result is memoised on the request.
        """
        if self.task_set is not None:
            return self.task_set
        cached = self.__dict__.get("_materialized_task_set")
        if cached is None:
            cached = materialize(self.scenario, self.system_index).task_set
            object.__setattr__(self, "_materialized_task_set", cached)
        return cached

    def with_request_id(self, request_id: Any):
        """This request under another ``request_id``: a shallow copy that
        keeps the memoised content key, which ``request_id`` never enters."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        object.__setattr__(copy, "request_id", request_id)
        return copy

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Slim pickles: drop the memoised task set, keep the content key.

        The materialised task set can dwarf the request itself; any receiver
        re-materialises it deterministically on demand.  The content key is a
        small string and saves the receiver a full canonical-JSON hash, so it
        rides along.
        """
        state = dict(self.__dict__)
        state.pop("_materialized_task_set", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # -- serialisation -----------------------------------------------------------

    @classmethod
    def _payload_data(cls, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``data`` object of a payload of this kind, integer fields checked.

        JSON has no integer type of its own, so a bool, float or string can
        arrive where an integer belongs.  ``int()`` would quietly turn ``2.7``
        into 2 and ``true`` into 1; those values raise ``ValueError`` instead.
        """
        _, data = parse_versioned_payload(dict(payload), cls.KIND, max_version=cls.VERSION)
        if not isinstance(data, dict):
            raise ValueError(f"{cls.KIND} data must be an object, got {data!r}")
        for name in cls.INT_FIELDS:
            value = data.get(name)
            if isinstance(value, (bool, float, str)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        return data


#: Scalar result-field annotations and the types they coerce to.
_SCALAR_TYPES = {kind.__name__: kind for kind in (str, int, float, bool)}


@dataclass(frozen=True)
class ResponseEnvelope(JsonEnvelope):
    """What every service response shares: a deterministic result + provenance.

    The fields declared here are provenance, set per execution and never
    cached; they are keyword-only.  A subclass is a frozen dataclass that
    names its envelope (:attr:`KIND`, :attr:`VERSION`) and declares its
    result fields.  A result field is either a ``str``/``int``/``float``/
    ``bool`` scalar, coerced to that type when a stored result is read back
    (a stored ``psi: 1`` comes back as ``1.0``), or a mapping declared with
    ``default_factory=dict``, which may be missing from a stored result.
    """

    KIND: ClassVar[str]
    VERSION: ClassVar[int]

    request_id: Optional[str] = field(kw_only=True)
    cache: str = field(default=CACHE_DISABLED, kw_only=True)
    cache_key: Optional[str] = field(default=None, kw_only=True)
    elapsed_s: float = field(default=0.0, kw_only=True)

    @classmethod
    def _result_fields(cls) -> Tuple[Tuple[str, Callable[[Any], Any]], ...]:
        """``(name, coercion)`` of each result field in declaration order,
        built on first use and then kept on the class."""
        table = cls.__dict__.get("_result_table")
        if table is None:
            provenance = {f.name for f in fields(ResponseEnvelope)}
            table = tuple(
                (f.name, dict if f.default_factory is dict else _SCALAR_TYPES[f.type])
                for f in fields(cls)
                if f.name not in provenance
            )
            cls._result_table = table
        return table

    def result_dict(self) -> Dict[str, Any]:
        """The deterministic portion of the response (what the cache stores)."""
        return {name: getattr(self, name) for name, _ in self._result_fields()}

    @property
    def result_text(self) -> Optional[str]:
        """``json.dumps(self.result_dict(), sort_keys=True)`` as its cache
        keeps it, on a response a cache lookup answered; ``None`` on any
        other.  See :meth:`ContentAddressedService.lookup
        <repro.service.core.ContentAddressedService.lookup>`."""
        return self.__dict__.get("_result_text")

    @classmethod
    def from_result_dict(
        cls,
        data: Mapping[str, Any],
        *,
        request_id: Optional[str] = None,
        cache: str = CACHE_DISABLED,
        cache_key: Optional[str] = None,
        elapsed_s: float = 0.0,
    ):
        """Rebuild a response around a stored deterministic result."""
        result = {
            name: dict(data.get(name) or {}) if coerce is dict else coerce(data[name])
            for name, coerce in cls._result_fields()
        }
        return cls(
            request_id=request_id, cache=cache, cache_key=cache_key, elapsed_s=elapsed_s, **result
        )

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return versioned_payload(
            self.KIND,
            self.VERSION,
            {
                "id": self.request_id,
                "result": self.result_dict(),
                "cache": {"status": self.cache, "key": self.cache_key},
                "timing": {"elapsed_s": self.elapsed_s},
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        _, data = parse_versioned_payload(dict(payload), cls.KIND, max_version=cls.VERSION)
        cache = data.get("cache") or {}
        timing = data.get("timing") or {}
        return cls.from_result_dict(
            data["result"],
            request_id=data.get("id"),
            cache=str(cache.get("status", CACHE_DISABLED)),
            cache_key=cache.get("key"),
            elapsed_s=float(timing.get("elapsed_s", 0.0)),
        )


@dataclass(frozen=True)
class ScheduleRequest(RequestEnvelope):
    """One question to the scheduling service: *schedule this, with that*.

    The workload is given either explicitly (``task_set``) or declaratively
    (``scenario`` — a :class:`~repro.scenario.Scenario`, a registered preset
    name, a payload dict, or inline JSON — plus a ``system_index`` selecting
    which of the scenario's deterministic systems to draw); exactly one of the
    two must be provided.  Scenario-backed requests materialise their task set
    lazily via :meth:`effective_task_set`.

    ``horizon`` (microseconds) defaults to the task set's hyper-period, as in
    :meth:`Scheduler.schedule_taskset <repro.scheduling.base.Scheduler>`.
    ``request_id`` is free-form caller provenance echoed on the response; it
    does not influence scheduling or caching.
    """

    KIND = REQUEST_KIND
    VERSION = REQUEST_VERSION
    INT_FIELDS = ("system_index", "horizon")

    task_set: Optional[TaskSet] = None
    spec: Optional[SchedulerSpec] = None
    horizon: Optional[int] = None
    request_id: Optional[str] = None
    scenario: Optional[Scenario] = None
    system_index: int = 0

    def __post_init__(self) -> None:
        if self.spec is None:
            raise ValueError("a scheduler spec is required")
        object.__setattr__(self, "spec", SchedulerSpec.coerce(self.spec))
        if self.scenario is not None:
            object.__setattr__(self, "scenario", create_scenario(self.scenario))
        if (self.task_set is None) == (self.scenario is None):
            raise ValueError("provide exactly one of task_set and scenario")
        if not isinstance(self.system_index, int) or self.system_index < 0:
            raise ValueError(
                f"system_index must be a non-negative integer, got {self.system_index!r}"
            )
        if self.scenario is None and self.system_index != 0:
            raise ValueError("system_index requires a scenario")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")

    def _key_dict(self) -> Dict[str, Any]:
        """Scenario-backed requests hash the scenario's own content key (which
        covers every scenario field) plus the system index, so changing *any*
        scenario field — workload, platform, faults, even the name — yields a
        different key.  The spec enters under its canonical name."""
        key: Dict[str, Any] = {"spec": self.spec.canonical().to_dict(), "horizon": self.horizon}
        if self.scenario is not None:
            key.update(scenario=self.scenario.content_key(), system_index=self.system_index)
        else:
            key["taskset"] = taskset_to_dict(self.task_set)
        return key

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.request_id,
            "spec": self.spec.to_dict(),
            "horizon": self.horizon,
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
            data["system_index"] = self.system_index
            return versioned_payload(REQUEST_KIND, REQUEST_VERSION, data)
        # Requests without a scenario serialise exactly as version 1 did, so
        # payloads only claim the newer version when they actually need it.
        data["taskset"] = taskset_to_dict(self.task_set)
        return versioned_payload(REQUEST_KIND, 1, data)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScheduleRequest":
        data = cls._payload_data(payload)
        scenario = data.get("scenario")
        return cls(
            task_set=(
                taskset_from_dict(data["taskset"]) if data.get("taskset") is not None else None
            ),
            spec=registered_spec(SchedulerSpec.from_dict(data["spec"])),
            horizon=data.get("horizon"),
            request_id=data.get("id"),
            scenario=Scenario.from_dict(scenario) if scenario is not None else None,
            system_index=data.get("system_index", 0),
        )


@dataclass(frozen=True)
class ScheduleResponse(ResponseEnvelope):
    """The service's answer: deterministic result + execution provenance.

    ``per_device`` maps device name to a plain dict
    ``{schedulable, psi, upsilon, n_jobs, schedule}`` where ``schedule`` is
    the serialised form of :func:`repro.core.serialization.schedule_to_dict`
    (or ``None`` when the method found no feasible schedule / produces none).
    ``spec`` is the canonical string of the spec actually executed — including
    any seed the service derived — so the response alone reproduces the run.
    """

    KIND = RESPONSE_KIND
    VERSION = RESPONSE_VERSION

    spec: str
    horizon: int
    schedulable: bool
    psi: float
    upsilon: float
    best_psi: float
    best_upsilon: float
    per_device: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def device_schedules(self, task_set: TaskSet) -> Dict[str, Schedule]:
        """Rebuild the concrete per-device :class:`Schedule` objects.

        ``task_set`` must be the request's task set (jobs are looked up by
        task name); devices whose method produced no schedule are omitted.
        """
        schedules: Dict[str, Schedule] = {}
        for device, entry in self.per_device.items():
            if entry.get("schedule") is not None:
                schedules[device] = schedule_from_dict(entry["schedule"], task_set)
        return schedules

    def flat_schedules(self, task_set: TaskSet) -> Dict[str, FlatSchedule]:
        """:meth:`device_schedules` in the flat form the run-time layer reads:
        each device's stored entries decoded into vectors over ``task_set``
        (:func:`~repro.core.serialization.flat_schedule_from_dict`)."""
        return {
            device: flat_schedule_from_dict(entry["schedule"], task_set)
            for device, entry in self.per_device.items()
            if entry.get("schedule") is not None
        }

    # perfbench's tracer times ``service.envelope`` by wrapping these two
    # methods where it finds them: in this class's own body.
    from_result_dict = classmethod(ResponseEnvelope.from_result_dict.__func__)
    to_dict = ResponseEnvelope.to_dict
