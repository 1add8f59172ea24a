"""Benchmarks of the run-time simulation subsystem (``repro.runtime``).

Three numbers track the subsystem's performance trajectory in
``BENCH_results.json``:

* **simulated events per second** — the cold path: materialise the scenario,
  obtain the schedule, execute it on the dedicated-controller model, which
  loads the controller's tables and fires them in one pass;
* **one large partition** — ``model.execute`` alone on a 476-job
  single-device partition, on the dedicated controller and on CPU-instigated
  I/O, where the cost of a trigger or a request grows with the table size if
  anything rescans the table;
* **cache-hit latency** — the warm path: answering the same simulation
  request from the content-addressed response cache, which is what makes
  long-horizon runtime sweeps near-free on reruns.
"""

import pytest

from repro.runtime import (
    SimulationRequest,
    SimulationService,
    create_execution_model,
    execute_simulation,
)
from repro.scenario import create_scenario, materialize
from repro.service.service import execute_request

SCENARIO = create_scenario("short-hyperperiod")

#: System 0 of this scenario is a 476-job partition on a single device.
LARGE_PARTITION = (
    create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
)


@pytest.mark.benchmark(group="runtime")
def test_execute_simulation_events_per_second(benchmark):
    request = SimulationRequest(
        scenario=SCENARIO, execution_model="dedicated-controller"
    )
    response = benchmark(execute_simulation, request)
    assert response.schedulable
    assert response.matches_offline
    events_per_second = response.events_processed / benchmark.stats.stats.median
    print(
        f"\n{response.events_processed} events/run, "
        f"{events_per_second:,.0f} simulated events/s"
    )


@pytest.fixture(scope="module")
def large_partition():
    """The task set and offline schedules of the 476-job partition."""
    request = SimulationRequest(scenario=LARGE_PARTITION, method="static")
    task_set = materialize(LARGE_PARTITION, 0).task_set
    response = execute_request(request.schedule_request())
    assert response.schedulable
    return task_set, response.device_schedules(task_set)


@pytest.mark.benchmark(group="runtime")
@pytest.mark.parametrize(
    "model, events", [("dedicated-controller", 476), ("cpu-instigated", 1428)]
)
def test_large_partition_execution(benchmark, large_partition, model, events):
    task_set, schedules = large_partition
    execution_model = create_execution_model(model)

    def fresh_platform():
        # Simulation objects are stateful: every round gets its own platform.
        return (task_set, schedules, materialize(LARGE_PARTITION, 0).platform), {"seed": 0}

    outcome = benchmark.pedantic(
        execution_model.execute, setup=fresh_platform, rounds=7, iterations=1
    )
    assert outcome.executed_jobs == 476
    assert outcome.events_processed == events
    if model == "dedicated-controller":
        assert outcome.matches_offline


@pytest.mark.benchmark(group="runtime")
def test_simulation_cache_hit_latency(benchmark):
    request = SimulationRequest(
        scenario=SCENARIO, execution_model="dedicated-controller"
    )
    with SimulationService() as service:
        service.submit(request)  # warm the cache

        responses = benchmark(service.submit_batch, [request] * 10)
    assert all(response.cache == "hit" for response in responses)
    per_hit = benchmark.stats.stats.median / len(responses)
    print(f"\ncache-hit latency: {per_hit * 1e6:.1f} us/request")
