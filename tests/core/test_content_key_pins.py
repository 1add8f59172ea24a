"""Literal content keys of every envelope kind that addresses a store.

Schedule and simulation caches, campaign directories and the per-system
seeds are all addressed by content keys (the first 16 hex digits of a
SHA-256 over canonical JSON).  A change to how any envelope builds its
payload must leave these bytes alone, or existing stores go cold and drawn
systems change.  The values below were computed once and are literals on
purpose: do not update them to make a change pass.
"""

import hashlib

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.spec import RuntimeSpec
from repro.core import MS, IOTask, TaskSet
from repro.core.serialization import canonical_json
from repro.runtime import SimulationRequest
from repro.scenario import (
    FaultSpec,
    PlatformSpec,
    Scenario,
    WorkloadSpec,
    create_scenario,
    system_seed,
)
from repro.service import ScheduleRequest
from repro.taskgen import GeneratorConfig


def preset() -> Scenario:
    return create_scenario("paper-default")


def faulty_pinned() -> Scenario:
    """The preset with a two-entry fault plan and a pinned utilisation."""
    return (
        preset()
        .with_faults(
            [
                FaultSpec("missing-request", "tau0", job_index=1),
                FaultSpec("late-request", "tau1", delay=3),
            ]
        )
        .with_utilisation(0.7)
    )


def custom() -> Scenario:
    """Every spec field off its default, ``None`` values included."""
    return Scenario(
        name="pinned-custom",
        description="every spec field off its default",
        workload=WorkloadSpec(
            utilisation=0.45,
            n_tasks=7,
            seed=11,
            generator=GeneratorConfig(
                hyperperiod_ms=720, min_period_ms=60, max_period_ms=None, n_devices=2
            ),
        ),
        platform=PlatformSpec(
            memory_kb=16,
            device_type="uart",
            mesh_width=3,
            mesh_height=2,
            missing_request_policy="execute",
            background_packets_per_job=0,
        ),
    )


def explicit_task_set() -> TaskSet:
    return TaskSet(
        [
            IOTask(name="tau0", wcet=2 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS),
            IOTask(
                name="tau1",
                wcet=1 * MS,
                period=40 * MS,
                deadline=30 * MS,
                ideal_offset=10 * MS,
                theta=10 * MS,
                device="dev1",
                v_max=3.0,
            ),
        ]
    )


def sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "build, key",
    [
        (preset, "322439112dd925fb"),
        (faulty_pinned, "5b2f9701b8bcf6d6"),
        (custom, "85e4983aa3f39b60"),
    ],
)
def test_scenario_keys(build, key):
    assert build().content_key() == key


def test_scenario_payloads():
    assert sha256(custom().to_dict()) == (
        "8d651dbed08f1c8afd0f71cacca852221278d240668b1b08bcd51cdb8881d993"
    )
    assert sha256(faulty_pinned().to_dict()) == (
        "978f532ef9edba71135da6941ecda0b681fd3199a77069417b7d42772aafd2b2"
    )


def test_scenario_round_trip_keeps_the_key():
    for build in (preset, faulty_pinned, custom):
        scenario = build()
        assert Scenario.from_dict(scenario.to_dict()).content_key() == scenario.content_key()


def test_scenario_drawn_schedule_request_key():
    request = ScheduleRequest(
        scenario="paper-default", system_index=3, spec="ga:population_size=12,generations=6"
    )
    assert request.content_key() == "b6acf439a1829178"


def test_explicit_task_set_schedule_request_key():
    request = ScheduleRequest(task_set=explicit_task_set(), spec="static", horizon=120 * MS)
    assert request.content_key() == "cc601f8eaebd779e"


def test_simulation_request_key():
    request = SimulationRequest(
        scenario=faulty_pinned(),
        system_index=2,
        method="static",
        execution_model="cpu-instigated",
        max_events=5000,
    )
    assert request.content_key() == "28f156fbf4fc6ed7"


def test_campaign_spec_with_runtime_section_key():
    spec = CampaignSpec(
        name="pinned",
        scenarios=("paper-default", "faulty-controller"),
        methods=("static", "ga:generations=5"),
        n_systems=3,
        utilisations=(0.3, 0.6),
        replications=2,
        runtime=RuntimeSpec(execution_models=("dedicated-controller", "cpu-instigated")),
    )
    assert spec.content_key() == "c5ff20e6afc84c9d"


def test_system_seed():
    assert system_seed(faulty_pinned(), 4) == 0xA00010C92E6CD1E
