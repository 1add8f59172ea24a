"""The benchmark's traced-layer wrappers still see the service layers.

``perfbench/tracer.py`` wraps methods through each class's own ``__dict__``
and module functions wherever a ``repro`` module bound them by name.  If a
service stopped defining ``submit_batch`` in its own class body, or bound
``execute_simulation`` / ``build_response`` / the cache accessors at import
time, the traced benchmark would silently report zero for those layers.
This test installs the wrappers and drives each layer once, in-process.
"""

import asyncio
import sys
from collections import Counter
from pathlib import Path

from repro.runtime import SimulationRequest, SimulationService
from repro.scenario import Scenario, WorkloadSpec
from repro.server.dispatcher import Dispatcher
from repro.service import ScheduleRequest, SchedulingService
from repro.taskgen import GeneratorConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = Scenario(
    name="tiny",
    workload=WorkloadSpec(
        utilisation=0.4,
        generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
    ),
)


def test_traced_layers_record_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as perfbench_tracer

    tracer = perfbench_tracer.Tracer()
    perfbench_tracer.install(tracer, daemon=True)
    try:
        with SchedulingService() as scheduling:
            schedule_requests = [
                ScheduleRequest(scenario=TINY, system_index=i, spec="static")
                for i in range(2)
            ]
            scheduling.submit_batch(schedule_requests)
            with SimulationService(scheduling=scheduling) as simulation:
                simulation.submit_batch(
                    [SimulationRequest(scenario=TINY, system_index=i) for i in range(2)]
                )
                dispatcher = Dispatcher(scheduling=scheduling, simulation=simulation)
                response = asyncio.run(dispatcher.schedule(schedule_requests[0]))
        assert response.cache == "hit"
    finally:
        perfbench_tracer.uninstall(tracer)
        sys.modules.pop("tracer", None)

    calls = Counter(tracer.layers[layer] for layer in tracer.layer)
    for layer in ("service.batch", "service.envelope", "runtime.simulate", "server.cache"):
        assert calls[layer] > 0, f"no {layer} spans recorded"
    assert tracer.counts["runtime.events"] > 0
