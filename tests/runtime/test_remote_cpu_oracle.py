"""The CPU-instigated models against their packet-by-packet oracle.

Both models hand a run's packets to ``NoCNetwork.transport`` in one call;
``remote_cpu_oracle.execute`` sends the same packets one ``NoCNetwork.send``
at a time on a fresh platform.  Every observable of the run must be equal:
the runtime start times, the request latencies, ``events_processed``,
``exhausted``, ``skipped_jobs`` and the trace counts, over background
bursts of 0–4 packets, jitter windows of 1–6, meshes from 1×2 to 5×5 and
event budgets from none at all to more than the run needs.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remote_cpu_oracle
from repro.runtime import create_execution_model
from repro.scenario import build_platform, create_scenario, materialize
from repro.service import ScheduleRequest, SchedulerSpec
from repro.service.service import execute_request

MODELS = ("cpu-instigated", "cpu-instigated-prioritized")


@pytest.fixture(scope="module")
def systems():
    """(task set, static schedules) of a one-device and a two-device system."""
    base = create_scenario("short-hyperperiod")
    two_devices = base.with_workload(generator=replace(base.workload.generator, n_devices=2))
    systems = []
    for scenario in (base, two_devices):
        request = ScheduleRequest(scenario=scenario, spec=SchedulerSpec.parse("static"))
        response = execute_request(request)
        task_set = materialize(scenario, 0).task_set
        systems.append((task_set, response.device_schedules(task_set)))
    return systems


def observables(outcome):
    return {
        "starts": {
            device: [(entry.job.key, entry.start) for entry in schedule.entries]
            for device, schedule in outcome.runtime_schedules.items()
        },
        "latency": (outcome.mean_noc_latency, outcome.max_noc_latency),
        "counts": (
            outcome.executed_jobs,
            outcome.skipped_jobs,
            outcome.events_processed,
            outcome.exhausted,
        ),
        "trace_counts": outcome.trace_counts,
    }


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    model_name=st.sampled_from(MODELS),
    system=st.integers(0, 1),
    background=st.integers(0, 4),
    jitter_window=st.integers(1, 6),
    request_size=st.integers(1, 8),
    background_size=st.integers(1, 8),
    mesh=st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda wh: wh[0] * wh[1] >= 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_models_match_the_packet_by_packet_oracle(
    systems, data, model_name, system, background, jitter_window, request_size,
    background_size, mesh, seed,
):
    task_set, schedules = systems[system]
    spec = replace(
        create_scenario("short-hyperperiod").platform,
        background_packets_per_job=background,
        mesh_width=mesh[0],
        mesh_height=mesh[1],
    )
    packets = (1 + background) * sum(len(s.entries) for s in schedules.values())
    max_events = data.draw(st.none() | st.integers(0, packets + 2 * (1 + background)))
    model = create_execution_model(
        model_name,
        jitter_window=jitter_window,
        request_size_flits=request_size,
        background_size_flits=background_size,
    )
    outcome = model.execute(
        task_set, schedules, build_platform(spec), seed=seed, max_events=max_events
    )
    oracle = remote_cpu_oracle.execute(
        model, task_set, schedules, build_platform(spec), seed=seed, max_events=max_events
    )
    assert observables(outcome) == observables(oracle)
    assert outcome.exhausted == (max_events is not None and max_events < packets)


@pytest.mark.parametrize("model_name", MODELS)
def test_the_default_platform_matches_the_oracle_with_contention(systems, model_name):
    """On the scenario's own platform packets queue for links, and the two
    paths still agree."""
    task_set, schedules = systems[0]
    platform_spec = create_scenario("short-hyperperiod").platform
    model = create_execution_model(model_name)
    outcome = model.execute(task_set, schedules, build_platform(platform_spec), seed=7)
    oracle_platform = build_platform(platform_spec)
    oracle = remote_cpu_oracle.execute(model, task_set, schedules, oracle_platform, seed=7)
    assert observables(outcome) == observables(oracle)
    assert oracle_platform.network.total_blocking() > 0
