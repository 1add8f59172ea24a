"""repro.scenario — declarative, versioned evaluation scenarios.

One :class:`Scenario` value describes everything an evaluation run needs
beyond the scheduling method: the synthetic workload
(:class:`WorkloadSpec`), the execution platform (:class:`PlatformSpec` —
controller + NoC), and the injected faults (:class:`FaultPlanSpec`).
Scenarios round-trip losslessly through versioned JSON
(``kind="repro/scenario"``), are content-addressable, and materialise
deterministically: :func:`materialize` is a pure function of
``(scenario, system_index)``, bit-identical at any worker count.

Named presets (``paper-default``, ``paper-scale``, ``short-hyperperiod``,
``bursty-periods``, ``faulty-controller``, ``wide-noc``) resolve through
:func:`create_scenario`, which also accepts inline JSON and payload dicts —
the scheduling service, the experiment engine and both CLIs all consume
scenarios through that one function, so a new workload/platform variant is a
data change, not a code change.
"""

from repro.scenario.materialize import (
    MaterializedScenario,
    Platform,
    build_platform,
    materialize,
    pinned_scenario,
    system_seed,
)
from repro.scenario.registry import (
    PRESET_SCENARIOS,
    available_scenarios,
    create_scenario,
    format_scenario_listing,
    list_scenarios,
    register_scenario,
    scenario_registered,
    unregister_scenario,
)
from repro.scenario.spec import (
    DEVICE_TYPES,
    FAULT_KINDS,
    MISSING_REQUEST_POLICIES,
    SCENARIO_KIND,
    SCENARIO_VERSION,
    FaultPlanSpec,
    FaultSpec,
    PlatformSpec,
    Scenario,
    ScenarioLike,
    WorkloadSpec,
)

__all__ = [
    "Scenario",
    "WorkloadSpec",
    "PlatformSpec",
    "FaultPlanSpec",
    "FaultSpec",
    "FAULT_KINDS",
    "ScenarioLike",
    "SCENARIO_KIND",
    "SCENARIO_VERSION",
    "DEVICE_TYPES",
    "MISSING_REQUEST_POLICIES",
    "register_scenario",
    "unregister_scenario",
    "create_scenario",
    "scenario_registered",
    "available_scenarios",
    "list_scenarios",
    "format_scenario_listing",
    "PRESET_SCENARIOS",
    "materialize",
    "MaterializedScenario",
    "Platform",
    "build_platform",
    "pinned_scenario",
    "system_seed",
]
