"""Scenario registry — named, reusable scenario presets.

Presets register themselves under short names in :data:`SCENARIOS`, and every
entry point resolves them through :func:`create_scenario` without knowing how
they are built.  A preset is registered as a zero-argument factory (or a
ready :class:`Scenario`), so registering costs nothing until the scenario is
actually requested.

:func:`create_scenario` is deliberately liberal in what it accepts — a
:class:`Scenario`, a registered name, inline JSON text, or a plain payload
dict — because that is exactly the set of forms a scenario takes on its way
through CLIs, request envelopes and config files.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

from repro.core.registry import Registry
from repro.hardware.faults import FaultSpec
from repro.scenario.spec import FaultPlanSpec, PlatformSpec, Scenario, WorkloadSpec
from repro.taskgen import GeneratorConfig

#: Every scenario preset, by name: a zero-argument factory returning it.
SCENARIOS = Registry("scenario")


def register_scenario(
    name: str,
    factory: Optional[Union[Scenario, Callable[[], Scenario]]] = None,
    *,
    overwrite: bool = False,
):
    """Register a scenario (or factory) under ``name``.

    Usable as a decorator on a zero-argument factory function or called
    directly with a ready :class:`Scenario`.  A name registered to another
    factory raises ``ValueError`` unless ``overwrite=True``.
    """

    def _register(target: Union[Scenario, Callable[[], Scenario]]):
        build = (lambda: target) if isinstance(target, Scenario) else target
        SCENARIOS.register(name, build, overwrite=overwrite)
        return target

    return _register if factory is None else _register(factory)


unregister_scenario = SCENARIOS.unregister
scenario_registered = SCENARIOS.__contains__
available_scenarios = SCENARIOS.names


def list_scenarios() -> Dict[str, str]:
    """Name -> one-line description of every registered preset (CLI listings)."""
    return {name: SCENARIOS.create(name).description for name in SCENARIOS.names()}


def format_scenario_listing() -> str:
    """The ``--list-scenarios`` text the CLIs print, one preset per line.

    Each line carries the name, the preset's content key (the hash that
    addresses its cache entries — so two listings agree on whether a cached
    schedule is reusable), and the one-line description.
    """
    lines = []
    for name in SCENARIOS.names():
        scenario = SCENARIOS.create(name)
        lines.append(f"{name:<20} {scenario.content_key()}  {scenario.description}")
    return "\n".join(lines)


def create_scenario(ref: Union[str, Mapping, Scenario]) -> Scenario:
    """Resolve any scenario reference into a concrete :class:`Scenario`.

    Accepts (in order): a ready :class:`Scenario`; a payload mapping
    (:meth:`Scenario.from_dict`); a registered preset name; inline JSON text
    (anything starting with ``{``).  Unknown names raise ``KeyError`` listing
    the registered presets.
    """
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, Mapping):
        return Scenario.from_dict(ref)
    if not isinstance(ref, str):
        raise TypeError(f"cannot resolve a scenario from {type(ref).__name__}")
    text = ref.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid inline scenario JSON: {error}") from None
        return Scenario.from_dict(payload)
    return SCENARIOS.create(text)


# -- the built-in presets ------------------------------------------------------


@register_scenario("paper-default")
def _paper_default() -> Scenario:
    return Scenario(
        name="paper-default",
        description="the paper's evaluation setup: UUniFast at 0.05 U/task, "
        "1440 ms hyper-period, one GPIO controller on a 4x4 mesh",
    )


@register_scenario("paper-scale")
def _paper_scale() -> Scenario:
    return Scenario(
        name="paper-scale",
        description="the paper's setup at evaluation scale: four devices, "
        "full period spread, an 8x8 mesh with heavier background traffic",
        workload=WorkloadSpec(
            utilisation=0.7,
            generator=GeneratorConfig(min_period_ms=10, max_period_ms=None, n_devices=4),
        ),
        platform=PlatformSpec(mesh_width=8, mesh_height=8, background_packets_per_job=4),
    )


@register_scenario("short-hyperperiod")
def _short_hyperperiod() -> Scenario:
    return Scenario(
        name="short-hyperperiod",
        description="a 360 ms hyper-period with 12-120 ms periods: more jobs "
        "per task, denser scheduling tables",
        workload=WorkloadSpec(
            utilisation=0.4,
            generator=GeneratorConfig(
                hyperperiod_ms=360, min_period_ms=12, max_period_ms=120
            ),
        ),
    )


@register_scenario("bursty-periods")
def _bursty_periods() -> Scenario:
    return Scenario(
        name="bursty-periods",
        description="periods confined to the 48-96 ms band: near-harmonic "
        "release bursts contending for the same window",
        workload=WorkloadSpec(
            utilisation=0.6,
            generator=GeneratorConfig(min_period_ms=48, max_period_ms=96),
        ),
    )


@register_scenario("faulty-controller")
def _faulty_controller() -> Scenario:
    return Scenario(
        name="faulty-controller",
        description="the paper's setup with run-time faults: a missing enable "
        "request, a late request and a corrupted command sequence",
        faults=FaultPlanSpec(
            faults=(
                FaultSpec(kind="missing-request", task_name="tau0"),
                FaultSpec(kind="late-request", task_name="tau1", delay=3),
                FaultSpec(kind="corrupted-command", task_name="tau2"),
            )
        ),
    )


@register_scenario("wide-noc")
def _wide_noc() -> Scenario:
    return Scenario(
        name="wide-noc",
        description="an 8x8 mesh with slower links and heavy background "
        "traffic: long, jittery request paths for CPU-instigated I/O",
        workload=WorkloadSpec(utilisation=0.5),
        platform=PlatformSpec(
            mesh_width=8,
            mesh_height=8,
            routing_delay=3,
            flit_delay=2,
            background_packets_per_job=6,
        ),
    )


#: The preset names, in registration (documentation) order.
PRESET_SCENARIOS: Sequence[str] = (
    "paper-default",
    "paper-scale",
    "short-hyperperiod",
    "bursty-periods",
    "faulty-controller",
    "wide-noc",
)
