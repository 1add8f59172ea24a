"""A schedule request is answered from start vectors, without schedule objects.

On the first 0.8-utilisation system of the quick Fig. 5 configuration,
``execute_request`` builds no ``ScheduleEntry`` and no ``Schedule`` for any
method that produces a schedule: the schedulers emit start vectors, and the
response's entries, Psi and Upsilon are written from them.  The object API
still works: ``per_device[d].schedule`` on a ``schedule_taskset`` result
builds the schedule on first read, with the entries, in the order, that the
schedulers' ``Schedule`` objects held (pinned).
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.schedule import Schedule, ScheduleEntry
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EvalJob, cell_request
from repro.service import execute_request

METHODS = ("static", "gpiocp", "fps-offline", "ga")

#: SHA-256 of each device's schedule entries as (task, index, start), in the
#: order the schedule lists them; computed with the object-building schedulers.
ENTRY_DIGESTS = {
    "static": "32763ed034e441f1149d289ea2bcb4d912d57d7559607155e124683d1858516e",
    "gpiocp": "75237a6b06d485d1ae61039364d5a65edc556431a13ef3fd2cda50706ac4f950",
    "fps-offline": "484c4535c90f46bc08cfe9561a3042c50babe8f628669d73273eda19b54c8263",
    "ga": "9600203c94c0caf5e1b558748554f29e37806873e85001ff51e113392f5aecbf",
}


def request(method: str):
    return cell_request(ExperimentConfig.quick(), EvalJob(0.8, 0, method))


def counting_init(built, cls):
    """``cls.__init__``, counting each call under the class's name."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built[cls.__name__] += 1
        init(self, *args, **kwargs)

    return counted


@pytest.mark.parametrize("method", METHODS)
def test_a_response_builds_no_schedule_object(method, monkeypatch):
    built = Counter()
    for cls in (ScheduleEntry, Schedule):
        monkeypatch.setattr(cls, "__init__", counting_init(built, cls))
    response = execute_request(request(method))
    assert any(entry["schedule"] for entry in response.per_device.values())
    assert built == Counter()


@pytest.mark.parametrize("method", METHODS)
def test_the_object_view_lists_the_same_entries(method):
    cell = request(method)
    result = cell.spec.resolve().schedule_taskset(cell.effective_task_set())
    listed = {
        device: [[e.job.task.name, e.job.index, e.start] for e in device_result.schedule.entries]
        for device, device_result in result.per_device.items()
        if device_result.schedule is not None
    }
    assert listed
    digest = hashlib.sha256(json.dumps(listed, sort_keys=True).encode()).hexdigest()
    assert digest == ENTRY_DIGESTS[method]
