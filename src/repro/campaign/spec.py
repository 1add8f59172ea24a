"""``CampaignSpec`` — a declarative grid of scenarios × methods × systems.

A campaign is the scenario-diversity axis of the evaluation pipeline made
first-class: one frozen, versioned value describing *which* scenarios to
evaluate, *with which* scheduling methods (:class:`~repro.service.SchedulerSpec`
strings), over *how many* deterministic systems, at *which* utilisation
points, with *how many* replications, reporting *which* metrics.

The spec follows the same serialisation discipline as
:class:`~repro.scenario.Scenario` and the service messages: a lossless JSON
round-trip through the versioned ``{kind, version, data}`` envelope
(``kind="repro/campaign"``, version 1) and a :meth:`~CampaignSpec.content_key`
hash over every field, so a campaign's artifact directory — like a schedule
cache entry — can never silently mix results from two different grids.

:meth:`CampaignSpec.cells` expands the grid into the canonical, deterministic
cell order every consumer shares (runner, journal, report): scenario-major,
then utilisation point, system index, replication and method.  That fixed
order is what makes resumed and multi-worker campaigns byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.core.serialization import (
    ContentKeyed,
    JsonEnvelope,
    parse_versioned_payload,
    versioned_payload,
)
from repro.runtime.models import ExecutionModelSpec
from repro.scenario import Scenario, ScenarioLike, create_scenario
from repro.service import SchedulerSpec

CAMPAIGN_KIND = "repro/campaign"
#: Version 2 added the optional ``runtime`` section; campaigns without one
#: are still written as version 1 so that version-1 readers keep working.
CAMPAIGN_VERSION = 2

#: Metrics a campaign can select, in canonical reporting order.
#: ``schedulable``/``psi``/``upsilon``/``best_psi``/``best_upsilon`` come from
#: the schedule responses (:mod:`repro.core.metrics` semantics); ``response_time``
#: is the analytical worst case of :func:`repro.analysis.max_response_time`.
CAMPAIGN_METRICS: Tuple[str, ...] = (
    "schedulable",
    "psi",
    "upsilon",
    "best_psi",
    "best_upsilon",
    "response_time",
)

#: Metrics where a *smaller* aggregate wins the leaderboard.
LOWER_IS_BETTER = frozenset({"response_time"})

#: Run-time metrics a campaign's ``runtime`` section can select, in canonical
#: reporting order.  They come from the simulation responses
#: (:class:`repro.runtime.SimulationResponse` semantics): ``accuracy`` is the
#: fraction of offline jobs executed exactly on time, ``psi``/``upsilon`` the
#: *run-time* timing metrics, and the fault counters what the controller's
#: fault-recovery unit observed.
RUNTIME_METRICS: Tuple[str, ...] = (
    "accuracy",
    "psi",
    "upsilon",
    "faults_detected",
    "skipped_jobs",
)

#: Run-time metrics where a *smaller* aggregate wins the leaderboard.
RUNTIME_LOWER_IS_BETTER = frozenset({"skipped_jobs"})


@dataclass(frozen=True)
class RuntimeSpec:
    """The optional run-time section of a campaign: *execute* every schedule.

    ``execution_models`` entries may be spec strings or
    :class:`~repro.runtime.ExecutionModelSpec` values (coerced at
    construction); every campaign cell is simulated once per model, so the
    run-time grid is the schedule grid × models.  ``max_events`` bounds every
    simulation (purely simulation-side: it never enters the embedded schedule
    question, so runtime cells stay content-identical to their schedule cells
    and reuse the campaign's cached schedules).  There is deliberately no
    per-campaign scheduling-horizon knob for the same reason.
    """

    execution_models: Tuple[ExecutionModelSpec, ...] = ("dedicated-controller",)
    metrics: Tuple[str, ...] = field(default=RUNTIME_METRICS)
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        models = self.execution_models
        if isinstance(models, (str, Mapping, SchedulerSpec)):
            models = (models,)
        coerced = tuple(
            ExecutionModelSpec.coerce(entry)
            if not isinstance(entry, Mapping)
            else ExecutionModelSpec.from_dict(dict(entry))
            for entry in models
        )
        if not coerced:
            raise ValueError("a runtime section needs at least one execution model")
        model_strings = [str(model) for model in coerced]
        if len(set(model_strings)) != len(model_strings):
            raise ValueError(
                f"runtime execution models must be unique, got {model_strings}"
            )
        object.__setattr__(self, "execution_models", coerced)

        metrics = tuple(self.metrics)
        unknown = set(metrics) - set(RUNTIME_METRICS)
        if unknown:
            raise ValueError(
                f"unknown runtime metrics {sorted(unknown)}; "
                f"available: {list(RUNTIME_METRICS)}"
            )
        if not metrics:
            raise ValueError("a runtime section needs at least one metric")
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"runtime metrics must be unique, got {list(metrics)}")
        object.__setattr__(
            self, "metrics", tuple(m for m in RUNTIME_METRICS if m in metrics)
        )

        if self.max_events is not None and (
            not isinstance(self.max_events, int)
            or isinstance(self.max_events, bool)
            or self.max_events <= 0
        ):
            raise ValueError(
                f"runtime max_events must be positive, got {self.max_events!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "execution_models": [model.to_dict() for model in self.execution_models],
            "metrics": list(self.metrics),
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RuntimeSpec":
        known = {"execution_models", "metrics", "max_events"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown runtime fields: {sorted(unknown)}")
        return cls(
            execution_models=tuple(
                ExecutionModelSpec.from_dict(entry)
                for entry in (data.get("execution_models") or ())
            )
            or ("dedicated-controller",),
            metrics=tuple(data.get("metrics") or RUNTIME_METRICS),
            max_events=data.get("max_events"),
        )


@dataclass(frozen=True)
class CampaignCell:
    """One evaluation cell of the expanded grid (picklable, hashable).

    ``utilisation`` is ``None`` when the campaign has no explicit utilisation
    sweep — the scenario's own workload utilisation applies.  ``method`` is
    the canonical spec string, so logically-equal specs name the same cell.
    """

    scenario: str
    method: str
    utilisation: Optional[float]
    system_index: int
    replication: int

    def key(self) -> Tuple[str, str, Optional[float], int, int]:
        """The journal/lookup key of this cell."""
        return (
            self.scenario,
            self.method,
            self.utilisation,
            self.system_index,
            self.replication,
        )


@dataclass(frozen=True)
class RuntimeCell:
    """One run-time simulation cell: a schedule cell × an execution model.

    ``execution_model`` is the canonical model spec string, so logically
    equal model specs name the same cell.
    """

    scenario: str
    method: str
    execution_model: str
    utilisation: Optional[float]
    system_index: int
    replication: int

    def key(self) -> Tuple[str, str, str, Optional[float], int, int]:
        """The journal/lookup key of this cell."""
        return (
            self.scenario,
            self.method,
            self.execution_model,
            self.utilisation,
            self.system_index,
            self.replication,
        )

    def schedule_cell(self) -> CampaignCell:
        """The schedule cell this simulation executes the schedule of."""
        return CampaignCell(
            scenario=self.scenario,
            method=self.method,
            utilisation=self.utilisation,
            system_index=self.system_index,
            replication=self.replication,
        )


@dataclass(frozen=True)
class CampaignSpec(JsonEnvelope, ContentKeyed):
    """A frozen, versioned description of one evaluation campaign.

    ``scenarios`` entries may be given as anything
    :func:`repro.scenario.create_scenario` resolves (preset names, payload
    dicts, inline JSON, ready :class:`~repro.scenario.Scenario` values);
    ``methods`` entries as spec strings or :class:`SchedulerSpec` values.
    Both are coerced at construction, so a spec built from CLI strings and one
    rebuilt from its JSON form compare (and hash) equal.
    """

    name: str = "campaign"
    description: str = ""
    scenarios: Tuple[Scenario, ...] = ("paper-default",)
    methods: Tuple[SchedulerSpec, ...] = ("static",)
    n_systems: int = 1
    utilisations: Tuple[float, ...] = ()
    replications: int = 1
    metrics: Tuple[str, ...] = field(default=CAMPAIGN_METRICS)
    #: Optional run-time section: when set, every cell's schedule is also
    #: *executed* on each listed execution model (see :class:`RuntimeSpec`).
    runtime: Optional[RuntimeSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name or self.name != self.name.strip():
            raise ValueError(f"campaign name must be a non-empty stripped string, got {self.name!r}")
        object.__setattr__(
            self,
            "scenarios",
            tuple(create_scenario(entry) for entry in self._as_tuple("scenarios")),
        )
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign scenario names must be unique, got {names}")

        object.__setattr__(
            self,
            "methods",
            tuple(SchedulerSpec.coerce(entry) for entry in self._as_tuple("methods")),
        )
        if not self.methods:
            raise ValueError("a campaign needs at least one method")
        method_strings = [str(method) for method in self.methods]
        if len(set(method_strings)) != len(method_strings):
            raise ValueError(f"campaign methods must be unique, got {method_strings}")

        for attr in ("n_systems", "replications"):
            value = getattr(self, attr)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{attr} must be a positive integer, got {value!r}")

        utilisations = tuple(float(u) for u in self._as_tuple("utilisations"))
        for value in utilisations:
            if not 0.0 < value <= 1.0:
                raise ValueError(f"utilisations must lie in (0, 1], got {value!r}")
        if len(set(utilisations)) != len(utilisations):
            raise ValueError(f"utilisations must be unique, got {list(utilisations)}")
        object.__setattr__(self, "utilisations", utilisations)

        metrics = tuple(self._as_tuple("metrics"))
        unknown = set(metrics) - set(CAMPAIGN_METRICS)
        if unknown:
            raise ValueError(
                f"unknown campaign metrics {sorted(unknown)}; "
                f"available: {list(CAMPAIGN_METRICS)}"
            )
        if not metrics:
            raise ValueError("a campaign needs at least one metric")
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"campaign metrics must be unique, got {list(metrics)}")
        # Normalise to canonical reporting order so logically-equal selections
        # hash (and therefore cache) identically.
        object.__setattr__(
            self, "metrics", tuple(m for m in CAMPAIGN_METRICS if m in metrics)
        )

        if isinstance(self.runtime, Mapping):
            object.__setattr__(self, "runtime", RuntimeSpec.from_dict(self.runtime))
        if self.runtime is not None and not isinstance(self.runtime, RuntimeSpec):
            raise ValueError(
                f"campaign runtime must be a RuntimeSpec (or its dict form), "
                f"got {self.runtime!r}"
            )

    def _as_tuple(self, attr: str) -> Tuple:
        value = getattr(self, attr)
        if isinstance(value, (str, Mapping, Scenario, SchedulerSpec)):
            # A lone entry is almost certainly a mistake that tuple() would
            # either reject or silently explode character-wise; wrap it.
            return (value,)
        return tuple(value)

    # -- the grid ----------------------------------------------------------------

    def utilisation_points(self) -> Tuple[Optional[float], ...]:
        """The utilisation axis; ``(None,)`` means each scenario's own value."""
        return self.utilisations if self.utilisations else (None,)

    @property
    def n_cells(self) -> int:
        return (
            len(self.scenarios)
            * len(self.methods)
            * len(self.utilisation_points())
            * self.n_systems
            * self.replications
        )

    def cells(self) -> Iterator[CampaignCell]:
        """Expand the grid in the canonical deterministic order.

        Scenario-major, then utilisation, system index, replication, method —
        the order the runner computes, the journal records and the report
        aggregates in, at every worker count.
        """
        for scenario in self.scenarios:
            for utilisation in self.utilisation_points():
                for system_index in range(self.n_systems):
                    for replication in range(self.replications):
                        for method in self.methods:
                            yield CampaignCell(
                                scenario=scenario.name,
                                method=str(method),
                                utilisation=utilisation,
                                system_index=system_index,
                                replication=replication,
                            )

    @property
    def n_runtime_cells(self) -> int:
        """Cells of the run-time grid (0 without a ``runtime`` section)."""
        if self.runtime is None:
            return 0
        return self.n_cells * len(self.runtime.execution_models)

    def runtime_cells(self) -> Iterator[RuntimeCell]:
        """Expand the run-time grid: schedule-cell order, models innermost.

        Like :meth:`cells`, this order is canonical — the runner simulates,
        the journal records and the report aggregates in it, at every worker
        count.  Empty when the campaign has no ``runtime`` section.
        """
        if self.runtime is None:
            return
        for cell in self.cells():
            for model in self.runtime.execution_models:
                yield RuntimeCell(
                    scenario=cell.scenario,
                    method=cell.method,
                    execution_model=str(model),
                    utilisation=cell.utilisation,
                    system_index=cell.system_index,
                    replication=cell.replication,
                )

    def scenario_by_name(self, name: str) -> Scenario:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"campaign has no scenario named {name!r}")

    # -- serialisation -----------------------------------------------------------

    def data_dict(self) -> Dict[str, Any]:
        """The bare (unversioned) payload; every field enters the content key.

        The ``runtime`` key is present only when the section is set, so
        campaigns without one keep their historical payloads — and therefore
        their content keys and artifact directories.
        """
        data = {
            "name": self.name,
            "description": self.description,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "methods": [method.to_dict() for method in self.methods],
            "n_systems": self.n_systems,
            "utilisations": list(self.utilisations),
            "replications": self.replications,
            "metrics": list(self.metrics),
        }
        if self.runtime is not None:
            data["runtime"] = self.runtime.to_dict()
        return data

    _key_dict = data_dict

    def to_dict(self) -> Dict[str, Any]:
        # Campaigns without a runtime section serialise exactly as version 1
        # did, so payloads only claim the newer version when they need it.
        version = CAMPAIGN_VERSION if self.runtime is not None else 1
        return versioned_payload(CAMPAIGN_KIND, version, self.data_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        _, data = parse_versioned_payload(
            dict(payload), CAMPAIGN_KIND, max_version=CAMPAIGN_VERSION
        )
        known = {
            "name",
            "description",
            "scenarios",
            "methods",
            "n_systems",
            "utilisations",
            "replications",
            "metrics",
            "runtime",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign fields: {sorted(unknown)}")
        runtime = data.get("runtime")
        return cls(
            name=data.get("name", "campaign"),
            description=data.get("description", ""),
            scenarios=tuple(Scenario.from_dict(entry) for entry in data["scenarios"]),
            methods=tuple(SchedulerSpec.from_dict(entry) for entry in data["methods"]),
            n_systems=int(data.get("n_systems", 1)),
            utilisations=tuple(data.get("utilisations") or ()),
            replications=int(data.get("replications", 1)),
            metrics=tuple(data.get("metrics") or CAMPAIGN_METRICS),
            runtime=RuntimeSpec.from_dict(runtime) if runtime is not None else None,
        )


#: Anything :func:`create_campaign` can resolve into a spec.
CampaignLike = Union[str, Mapping, CampaignSpec]


def create_campaign(ref: CampaignLike) -> CampaignSpec:
    """Resolve a campaign reference: a spec, a payload dict, or JSON text.

    Mirrors :func:`repro.scenario.create_scenario` (minus the name registry —
    campaigns are authored, not preset): strings must be inline JSON or a path
    handled by the caller.
    """
    if isinstance(ref, CampaignSpec):
        return ref
    if isinstance(ref, Mapping):
        return CampaignSpec.from_dict(ref)
    if not isinstance(ref, str):
        raise TypeError(f"cannot resolve a campaign from {type(ref).__name__}")
    text = ref.strip()
    if not text.startswith("{"):
        raise ValueError(
            "campaign references must be inline repro/campaign JSON "
            f"(or a CampaignSpec/payload dict), got {ref!r}"
        )
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"invalid inline campaign JSON: {error}") from None
    return CampaignSpec.from_dict(payload)


def load_campaign(ref: CampaignLike) -> CampaignSpec:
    """Like :func:`create_campaign`, but strings may also name a JSON file.

    This is the resolution every CLI ``--campaign``/``spec`` argument goes
    through: inline JSON (anything starting with ``{``) parses directly,
    anything else is read as a path to a ``repro/campaign`` payload file.
    """
    if isinstance(ref, str) and not ref.strip().startswith("{"):
        path = Path(ref)
        if not path.exists():
            raise ValueError(f"campaign spec file not found: {ref!r}")
        return CampaignSpec.from_json(path.read_text(encoding="utf-8"))
    return create_campaign(ref)


def build_campaign(
    *,
    name: str = "campaign",
    description: str = "",
    scenarios: Sequence[ScenarioLike] = ("paper-default",),
    methods: Sequence[Union[str, SchedulerSpec]] = ("static",),
    n_systems: int = 1,
    utilisations: Sequence[float] = (),
    replications: int = 1,
    metrics: Sequence[str] = CAMPAIGN_METRICS,
    execution_models: Sequence[Union[str, ExecutionModelSpec]] = (),
    runtime: Optional[RuntimeSpec] = None,
) -> CampaignSpec:
    """Keyword-flavoured constructor used by the CLI's flag-builder mode.

    ``execution_models`` is the convenience form of the ``runtime`` section:
    a non-empty sequence builds a default :class:`RuntimeSpec` around it.
    """
    if execution_models and runtime is not None:
        raise ValueError("pass either execution_models or a runtime section, not both")
    if execution_models:
        runtime = RuntimeSpec(execution_models=tuple(execution_models))
    return CampaignSpec(
        name=name,
        description=description,
        scenarios=tuple(scenarios),
        methods=tuple(methods),
        n_systems=n_systems,
        utilisations=tuple(utilisations),
        replications=replications,
        metrics=tuple(metrics),
        runtime=runtime,
    )
