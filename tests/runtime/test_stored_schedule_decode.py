"""What ``execute_simulation`` makes of stored schedules no scheduler writes.

A run-time cell reads the per-device ``entries`` list a ``ScheduleResponse``
stores, ``[{"task", "job", "start"}, ...]``.  A scheduler writes them in
``(start, task, index)`` order, one entry per job, naming tasks of the
request's task set.  A hand-built response need not: these cases pin what
``execute_simulation`` does then, on every built-in execution model.

* A task the task set lacks raises ``KeyError: "no task named 'x'"``.
* A negative job index raises ``ValueError``.
* Entries listed out of order, or one entry listed twice, give pinned
  ``result_dict()`` bytes.  The platform enables no task at start-up
  (``request_latency=0``), so the listed order decides the order of the
  dedicated controller's request FIFOs, and a request listed early but
  released late holds back the ones behind it.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.runtime import SimulationRequest, execute_simulation
from repro.runtime.models import BUILTIN_EXECUTION_MODELS
from repro.scenario import create_scenario
from repro.service.service import execute_request

BASE = create_scenario("short-hyperperiod")
SCENARIO = BASE.with_workload(
    generator=replace(BASE.workload.generator, n_devices=2)
).with_platform(request_latency=0)

ORDERS = {
    "reversed": lambda entries: entries[::-1],
    "rotated": lambda entries: entries[3:] + entries[:3],
    "listed-twice": lambda entries: entries[:5] + entries[4:],
}

#: SHA-256 of ``json.dumps(result_dict(), sort_keys=True)`` and the
#: ``(executed, skipped, faults)`` counts, per ``model/order``.
PINNED = {
    "dedicated-controller/listed-twice": (
        "5f39cdb4f051e1a52bd7c60d2d245d937da49b58fe763f4841522ee2dd1ef99c",
        (89, 0, 0),
    ),
    "dedicated-controller/reversed": (
        "6dc611c85bb8413ad6c6b7c2e2ad8ec126cb4340932f9f5f2b6804e8000f12c2",
        (7, 82, 82),
    ),
    "dedicated-controller/rotated": (
        "5e09b0dd3b8131d5712676c8953a904e4194c78d390af9f38a02f7ab144f8433",
        (83, 6, 6),
    ),
    "cpu-instigated/listed-twice": (
        "30c560a0b3599feb5d32f119c2690a839ffcdcd090915272eaf8077f39af513a",
        (89, 0, 0),
    ),
    "cpu-instigated/reversed": (
        "30c560a0b3599feb5d32f119c2690a839ffcdcd090915272eaf8077f39af513a",
        (89, 0, 0),
    ),
    "cpu-instigated/rotated": (
        "30c560a0b3599feb5d32f119c2690a839ffcdcd090915272eaf8077f39af513a",
        (89, 0, 0),
    ),
    "cpu-instigated-prioritized/listed-twice": (
        "39bc83d5bf332ebf9e768cc08640aff30a942b0cfb89c9aedfe7478fe8c0035f",
        (89, 0, 0),
    ),
    "cpu-instigated-prioritized/reversed": (
        "39bc83d5bf332ebf9e768cc08640aff30a942b0cfb89c9aedfe7478fe8c0035f",
        (89, 0, 0),
    ),
    "cpu-instigated-prioritized/rotated": (
        "39bc83d5bf332ebf9e768cc08640aff30a942b0cfb89c9aedfe7478fe8c0035f",
        (89, 0, 0),
    ),
}


def request(model):
    return SimulationRequest(scenario=SCENARIO, method="static", execution_model=model)


def stored(model, order):
    """The scheduler's response for ``model``'s cell, each device's entries
    listed in ``order``."""
    response = execute_request(request(model).schedule_request())
    per_device = {}
    for device, entry in response.per_device.items():
        schedule = dict(entry["schedule"], entries=order(list(entry["schedule"]["entries"])))
        per_device[device] = dict(entry, schedule=schedule)
    return replace(response, per_device=per_device)


def broken(field, value):
    """The dedicated controller's stored response with the fourth entry of
    its first device's list given ``field=value``."""

    def order(entries):
        entries[3] = dict(entries[3], **{field: value})
        return entries

    return stored("dedicated-controller", order)


@pytest.mark.parametrize("model", BUILTIN_EXECUTION_MODELS)
def test_a_task_the_task_set_lacks_raises_key_error(model):
    with pytest.raises(KeyError) as raised:
        execute_simulation(request(model), schedule_response=broken("task", "x"))
    assert raised.value.args == ("no task named 'x'",)


@pytest.mark.parametrize("model", BUILTIN_EXECUTION_MODELS)
def test_a_negative_job_index_raises_value_error(model):
    with pytest.raises(ValueError, match="job index must be non-negative"):
        execute_simulation(request(model), schedule_response=broken("job", -1))


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("model", BUILTIN_EXECUTION_MODELS)
def test_entries_in_any_order_give_the_pinned_bytes(model, order):
    response = execute_simulation(request(model), schedule_response=stored(model, ORDERS[order]))
    text = json.dumps(response.result_dict(), sort_keys=True)
    counts = (response.executed_jobs, response.skipped_jobs, response.faults_detected)
    assert (hashlib.sha256(text.encode()).hexdigest(), counts) == PINNED[f"{model}/{order}"]


def test_the_listed_order_moves_the_dedicated_controller():
    """The pins are not all one run: out of order, requests wait behind
    later ones and jobs are skipped; listed twice, a job still runs once."""
    skipped = {order: PINNED[f"dedicated-controller/{order}"][1][1] for order in ORDERS}
    assert skipped["listed-twice"] == 0
    assert skipped["reversed"] > skipped["rotated"] > 0
