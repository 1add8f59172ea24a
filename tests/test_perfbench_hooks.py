"""The benchmark's traced-layer wrappers still see the service layers.

``perfbench/tracer.py`` wraps methods through each class's own ``__dict__``
and module functions wherever a ``repro`` module bound them by name.  If a
service stopped defining ``submit_batch`` in its own class body, or bound
``execute_simulation`` / ``build_response`` / the cache accessors at import
time, the traced benchmark would silently report zero for those layers.
These tests install the wrappers and drive each layer once, in-process.
"""

import asyncio
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repro.experiments import ExperimentConfig, ExperimentEngine
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


@contextmanager
def installed_tracer(monkeypatch, **options):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as perfbench_tracer

    tracer = perfbench_tracer.Tracer()
    perfbench_tracer.install(tracer, **options)
    try:
        yield tracer
    finally:
        perfbench_tracer.uninstall(tracer)
        sys.modules.pop("tracer", None)


def test_traced_layers_record_calls(monkeypatch):
    with installed_tracer(monkeypatch, daemon=True) as tracer:
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

    calls = Counter(tracer.layers[layer] for layer in tracer.layer)
    for layer in ("service.batch", "service.envelope", "runtime.simulate", "server.cache"):
        assert calls[layer] > 0, f"no {layer} spans recorded"
    assert tracer.counts["runtime.events"] > 0


def test_traced_layers_attribute_a_sweep(monkeypatch):
    """A sweep's service batches are recorded inside its ``experiments`` spans."""
    config = ExperimentConfig.smoke().with_overrides(n_systems=1)
    with installed_tracer(monkeypatch) as tracer:
        with ExperimentEngine(config) as engine:
            engine.schedulability_sweep(utilisations=[0.3], methods=["static"])

    layers = [tracer.layers[layer] for layer in tracer.layer]
    batches = [index for index, layer in enumerate(layers) if layer == "service.batch"]
    assert "experiments" in layers
    assert batches, "no service.batch spans recorded"
    parents = [tracer.parent[index] for index in batches]
    assert all(parent >= 0 and layers[parent] == "experiments" for parent in parents)
