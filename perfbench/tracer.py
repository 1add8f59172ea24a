"""In-memory span tracer that wraps the program's public layer boundaries.

The traced run of every workload installs these wrappers from the
benchmark's own files; the program itself is not modified.  Each wrapped
call records one span: layer name, start, end, parent span and the op it
belongs to.  Spans live in compact arrays and are written once, when the
run ends.  A layer's self time is its span durations minus the part covered
by its child spans, so the self times of all layers plus the unattributed
remainder of the outermost ``op`` spans add up to the traced wall time.

Methods are patched on their class; module functions are patched in every
loaded ``repro`` module that bound them by name (``from x import f``), so a
call through any import site is seen.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: The outermost span of one unit of benchmark work (a sweep, a campaign
#: slice, a warm rerun, a round of daemon requests).
OP_LAYER = "op"

_perf = time.perf_counter


class Tracer:
    """Records spans into parallel arrays; one instance per process."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.current_op = -1
        self.enabled = True
        #: Work counted at the same boundaries (keys per batch, events, ...).
        self.counts: Dict[str, float] = {}
        #: ``(owner, attribute, original)`` of every installed wrapper.
        self.patches: List[Tuple[Any, str, Any]] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def begin(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_perf())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _perf()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_op(self, op_index: int) -> "_OpSpan":
        """Context manager for the outermost span of one unit of work."""
        return _OpSpan(self, op_index)

    def reset(self) -> None:
        """Forget every span (a forked child must not report its parent's)."""
        self.__init__()

    def clear(self) -> None:
        """Forget the spans and counts recorded so far; installed wrappers
        keep their layers."""
        for name in ("layer", "parent", "op"):
            setattr(self, name, array("i"))
        for name in ("start", "end"):
            setattr(self, name, array("d"))
        self._stack = [-1]
        self.current_op = -1
        self.counts = {}

    # -- aggregation ---------------------------------------------------------------

    def arrays(self) -> Dict[str, Any]:
        """The spans as NumPy arrays (what :meth:`write` stores)."""
        import numpy as np

        return {
            "layers": np.array(self.layers),
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        return layer_table(self.arrays())

    def op_walls_ms(self) -> Dict[int, float]:
        """Wall time of each outermost ``op`` span, by op index."""
        import numpy as np

        if OP_LAYER not in self._layer_ids:
            return {}
        spans = self.arrays()
        mine = spans["layer"] == self._layer_ids[OP_LAYER]
        walls = (spans["end"][mine] - spans["start"][mine]) * 1000.0
        return {int(op): float(wall) for op, wall in zip(spans["op"][mine], walls)}

    def write(self, path: Path) -> None:
        """Write every span as one compact NumPy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def layer_table(spans: Dict[str, Any], keep=None) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_ms", "total_ms", "calls"}}`` from span arrays.

    A span's self time is its duration minus the durations of its direct
    children.  ``keep`` (a boolean array) restricts the table to some spans,
    for instance those inside a time window.
    """
    import numpy as np

    names = [str(name) for name in spans["layers"]]
    layer, parent = spans["layer"], spans["parent"]
    n = len(layer)
    if n == 0:
        return {}
    duration = np.maximum(spans["end"] - spans["start"], 0.0)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - covered
    # A layer's total counts only its outermost spans, so nested calls of
    # one layer are not counted twice.
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
    outer = parent_layer != layer
    if keep is None:
        keep = np.ones(n, dtype=bool)
    k = len(names)
    self_ms = np.bincount(layer[keep], weights=self_time[keep], minlength=k) * 1000.0
    calls = np.bincount(layer[keep], minlength=k)
    both = keep & outer
    total_ms = np.bincount(layer[both], weights=duration[both], minlength=k) * 1000.0
    return {
        name: {"self_ms": float(self_ms[i]), "total_ms": float(total_ms[i]), "calls": int(calls[i])}
        for i, name in enumerate(names)
    }


class _OpSpan:
    def __init__(self, tracer: Tracer, op_index: int):
        self.tracer = tracer
        self.op_index = op_index

    def __enter__(self) -> None:
        self.tracer.current_op = self.op_index
        self.index = self.tracer.begin(self.tracer.layer_id(OP_LAYER))

    def __exit__(self, *exc_info) -> None:
        self.tracer.finish(self.index)
        self.tracer.current_op = -1


# -- wrapping ----------------------------------------------------------------------


def _wrap(tracer: Tracer, layer: str, fn: Callable, on_call=None) -> Callable:
    layer_id = tracer.layer_id(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if on_call is not None:
            args, kwargs = on_call(tracer, args, kwargs)
        index = tracer.begin(layer_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(index)

    return wrapper


def _count_events(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    inner = _wrap(tracer, layer, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        response = inner(*args, **kwargs)
        if tracer.enabled:
            tracer.count("runtime.events", int(response.events_processed))
        return response

    return wrapper


def _counting_keys(counter: str, position: int):
    """``on_call`` hook materialising an iterable argument and counting it."""

    def on_call(tracer, args, kwargs):
        items = list(args[position])
        tracer.count(counter, len(items))
        return args[:position] + (items,) + args[position + 1 :], kwargs

    return on_call


def _patch(tracer: Tracer, owner: Any, attribute: str, value: Any) -> None:
    tracer.patches.append((owner, attribute, getattr(owner, "__dict__", {})[attribute]))
    setattr(owner, attribute, value)


def patch_method(tracer: Tracer, cls: type, name: str, layer: str, on_call=None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        _patch(tracer, cls, name, classmethod(_wrap(tracer, layer, raw.__func__, on_call)))
    else:
        _patch(tracer, cls, name, _wrap(tracer, layer, raw, on_call))


def patch_function(tracer: Tracer, fn: Callable, layer: str, wrapper=None) -> None:
    """Replace ``fn`` in every loaded ``repro`` module that bound it."""
    wrapped = (wrapper or _wrap)(tracer, layer, fn)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is fn:
                _patch(tracer, module, attribute, wrapped)


def install(tracer: Tracer, *, daemon: bool = False) -> None:
    """Wrap every layer boundary the benchmark reports on; :func:`uninstall`
    puts the originals back.

    ``daemon`` adds the wire framing and per-key cache of a serving daemon.
    """
    import repro.campaign.runner as runner
    import repro.core.schedule as core_schedule
    import repro.core.serialization as serialization
    import repro.experiments.engine as engine
    import repro.hardware.controller as controller
    import repro.noc.network as network
    import repro.runtime.service as runtime_service
    import repro.scheduling.base as scheduling_base
    import repro.scheduling.fps as fps
    import repro.scheduling.ga.scheduler as ga
    import repro.scheduling.gpiocp as gpiocp
    import repro.scheduling.heuristic as heuristic
    import repro.scheduling.lccd as lccd
    import repro.server.client as server_client
    import repro.server.protocol as protocol
    import repro.service.service as service_service
    import repro.sim.engine as sim_engine
    import repro.taskgen.generator as generator
    from repro.analysis.schedulability import FPSOnlineTest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Trace
    from repro.runtime.messages import SimulationResponse
    from repro.scenario import materialize
    from repro.service.cache import ScheduleCache
    from repro.service.messages import ScheduleResponse
    from repro.store.backends import SqliteBackend

    # Scheduling: the static heuristic, its LCCD allocator, the GA, baselines.
    patch_method(tracer, heuristic.HeuristicScheduler, "schedule_jobs", "scheduling.static")
    patch_method(tracer, lccd.LCCDAllocator, "allocate", "scheduling.lccd")
    patch_method(tracer, ga.GAScheduler, "schedule_jobs", "scheduling.ga")
    patch_method(tracer, fps.FPSOfflineScheduler, "schedule_jobs", "scheduling.baseline")
    patch_method(tracer, gpiocp.GPIOCPScheduler, "schedule_jobs", "scheduling.baseline")
    patch_method(tracer, FPSOnlineTest, "analyse", "analysis")
    patch_function(tracer, runner.max_response_time, "analysis")
    # Metrics and validation, wherever the schedulers and metrics call them.
    patch_function(tracer, scheduling_base.schedule_metrics, "core.metrics")
    patch_function(tracer, core_schedule.validate_schedule, "core.metrics")
    # Workload generation and the experiments engine.
    patch_method(tracer, generator.SystemGenerator, "generate", "taskgen")
    patch_method(tracer, engine.ExperimentEngine, "run_cells", "experiments")
    patch_function(tracer, engine.evaluate_cell, "experiments")
    patch_function(tracer, materialize, "scenario.materialize")
    # Run-time simulation: the pure entry, the event loop, controller, NoC.
    patch_function(
        tracer, runtime_service.execute_simulation, "runtime.simulate", _count_events
    )
    patch_method(tracer, sim_engine.Simulator, "run", "sim.run")
    patch_method(tracer, controller.IOController, "run", "hardware.controller")
    patch_method(tracer, network.NoCNetwork, "send", "noc.send")
    patch_function(tracer, serialization.content_hash, "core.content_key")
    patch_function(tracer, serialization.canonical_json, "core.content_key")
    # Services: batch pipelines, response envelopes, observability.
    patch_method(tracer, service_service.SchedulingService, "submit_batch", "service.batch")
    patch_method(tracer, runtime_service.SimulationService, "submit_batch", "service.batch")
    patch_function(tracer, service_service.build_response, "service.envelope")
    for response_cls in (ScheduleResponse, SimulationResponse):
        patch_method(tracer, response_cls, "from_result_dict", "service.envelope")
        patch_method(tracer, response_cls, "to_dict", "service.envelope")
    for cls in (MetricsRegistry, Trace):
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("_"):
                patch_method(tracer, cls, name, "obs")
    patch_method(
        tracer, SqliteBackend, "get_many", "store.get_many",
        _counting_keys("store.get_many.keys", 1),
    )
    patch_method(
        tracer, SqliteBackend, "put_many", "store.put_many",
        _counting_keys("store.put_many.keys", 1),
    )
    # Campaign orchestration.
    patch_method(tracer, runner.CampaignRunner, "run", "campaign")
    for fn in (runner.cell_request, runner.runtime_cell_request, runner.cell_values):
        patch_function(tracer, fn, "campaign")
    if daemon:
        patch_method(tracer, protocol.FrameDecoder, "feed", "server.frame")
        patch_function(tracer, protocol.decode_request_line, "server.frame")
        patch_function(tracer, protocol.encode_response, "server.frame")
        patch_method(tracer, ScheduleCache, "get", "server.cache")
        patch_method(tracer, ScheduleCache, "put", "server.cache")
    else:
        patch_function(tracer, server_client.encode_request, "client.codec")
        patch_function(tracer, server_client.decode_answer_line, "client.codec")


def uninstall(tracer: Tracer) -> None:
    """Put back everything :func:`install` replaced; spans recorded so far stay."""
    while tracer.patches:
        owner, attribute, original = tracer.patches.pop()
        setattr(owner, attribute, original)


def disable_in_forked_children(tracer: Tracer) -> None:
    """Pool workers forked from a traced process keep the wrappers but must
    record nothing: their internals are reported through the program's own
    metrics, and their spans could never be written."""

    def _after_fork() -> None:
        tracer.reset()
        tracer.enabled = False

    os.register_at_fork(after_in_child=_after_fork)
