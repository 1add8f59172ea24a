"""What every built-in scheduler answers, pinned byte for byte.

* Responses: the SHA-256 of ``execute_request(...).result_dict()`` (sorted
  JSON) for every built-in method on four-device ``paper-scale`` systems,
  some devices infeasible, and on ``paper-default`` and ``bursty-periods``
  systems at utilisations 0.3 and 0.7.  ``paper-scale`` system 0 is the
  order canary of the system Upsilon: static and the GA store the same
  schedules on its two feasible devices, yet their Upsilon differ in the
  last bit, because each scheduler lists its jobs in its own order and the
  qualities are added in that order.
* ``schedule_jobs`` edge cases: an empty list, a job listed twice, jobs of
  two devices, two tasks sharing a name, an LC-CD failure and a GA whose
  archive stays empty.  A result is pinned as its flag, metrics, scalar
  diagnostics and the entries of its schedule in the order it lists them.
  A job listed twice keeps the place it was first given and the start it
  was last given, as a ``Schedule`` keeps it.  Two different tasks of one
  name raise ``ValueError``: start vectors name a job by its task's
  position in a table of tasks by name, so they cannot hold what a
  ``Schedule`` once made of them (one task's job in the other's place).

The values were computed once and are literals on purpose: do not update
them to make a change pass.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import MS, IOTask
from repro.scenario import create_scenario
from repro.scheduling import (
    FPSOfflineScheduler,
    GAConfig,
    GAScheduler,
    GPIOCPScheduler,
    HeuristicScheduler,
)
from repro.service import ScheduleRequest, execute_request

GA_SPEC = "ga:population_size=8,generations=2"
METHODS = ("static", "gpiocp", "fps-offline", "fps-online", GA_SPEC)

SYSTEMS = {
    **{f"paper-scale/{index}": ("paper-scale", None, index) for index in range(4)},
    "paper-default@0.3": ("paper-default", 0.3, 0),
    "paper-default@0.7": ("paper-default", 0.7, 0),
    "bursty-periods@0.3": ("bursty-periods", 0.3, 0),
    "bursty-periods@0.7": ("bursty-periods", 0.7, 0),
}

RESPONSE_DIGESTS = {
    ("paper-scale/0", "static"):
        "f93f22708cdc35a76e74a0286af6cf6ebe6f390695a2afcab22e8962fb72fc81",
    ("paper-scale/0", "gpiocp"):
        "dc90bbfdb185bf2199b395932bb42e4d0aaac862b8bdedbb915843c812f6fd92",
    ("paper-scale/0", "fps-offline"):
        "d359966a458bc974ae0af2c0601e11352ac3de6a69febb23c9164e5e0ec2b777",
    ("paper-scale/0", "fps-online"):
        "41953feaa0449fa260fb9f38f1819947be6d58769f954481970bdd7d0a67eb9f",
    ("paper-scale/0", GA_SPEC):
        "1ceee2c4dc8516d8ca50f8002e51a3d24cc8938f93be0a47a8d97a54b3f550af",
    ("paper-scale/1", "static"):
        "5de0c8492ef921e7d2c7455d2d76c3c825a94a29913e41d0a8ea17ace9e07da9",
    ("paper-scale/1", "gpiocp"):
        "3d5ec7c377e1985b79c19dd32a5f8d7c17e6136e03e0fe0687a8fc3e1a1aa17f",
    ("paper-scale/1", "fps-offline"):
        "e453ab8d0b209bbae47cd7efe7abccdd78eba8e1e3c5205c72b9f2b931149286",
    ("paper-scale/1", "fps-online"):
        "41953feaa0449fa260fb9f38f1819947be6d58769f954481970bdd7d0a67eb9f",
    ("paper-scale/1", GA_SPEC):
        "f836d2055eee20986dde4db1b6a39d6e187863a667d38f0681f30222ece2373a",
    ("paper-scale/2", "static"):
        "23b44d266010023ad797d07bb1e3815a1b8c413b8f54160621635b6675eacd5c",
    ("paper-scale/2", "gpiocp"):
        "e1a40614310cc58980f5626aa720187fd5969c82da5b1cb6595283013e29f8df",
    ("paper-scale/2", "fps-offline"):
        "2efd0c7494f32a86d80a8050094e273345e135abdc85a694d88d1536d5d3e299",
    ("paper-scale/2", "fps-online"):
        "41953feaa0449fa260fb9f38f1819947be6d58769f954481970bdd7d0a67eb9f",
    ("paper-scale/2", GA_SPEC):
        "f6943edcd66412a49b49632a1c79c8a7103dfea0cfeefcbb030a43038ce5d740",
    ("paper-scale/3", "static"):
        "9084d099c14ab30b6ec2dbba550108e2f3be04d4a450f10f69eeb1ec1fc86f4b",
    ("paper-scale/3", "gpiocp"):
        "67098c392144072c48be35ed661e98f3accedd2cd62604a37cf87aeea288a1c3",
    ("paper-scale/3", "fps-offline"):
        "70c1e2bedf6f7d7f1c52e6cce780c1895a66ca25a7635fd4ec248d6e42e77ae8",
    ("paper-scale/3", "fps-online"):
        "41953feaa0449fa260fb9f38f1819947be6d58769f954481970bdd7d0a67eb9f",
    ("paper-scale/3", GA_SPEC):
        "09efff42b086224f1b9553505ae848afeefd6d6885c01facdaeb165c6ad1560d",
    ("paper-default@0.3", "static"):
        "91a68a0f389bdf7904ade0a1ddf4f58f3a9bcae87d3a6137bb1ab798e9c97fa4",
    ("paper-default@0.3", "gpiocp"):
        "5824fe2786fe74c2f9d07817b51aeff1998d7e9d185b70e25c8d8e9a2f833638",
    ("paper-default@0.3", "fps-offline"):
        "5bf689b6fff42f2e90be3b9503fef5f9a1d3103ea198b5d78cc858bddaef2bc7",
    ("paper-default@0.3", "fps-online"):
        "7d174f7a6f077757b7d474d603075ba686d15507b1b45ccdb017327ce9f17577",
    ("paper-default@0.3", GA_SPEC):
        "6a2c076600edd94b955584f4fc2f4c8a97124b9176e8ec49c7ba752149ec61b5",
    ("paper-default@0.7", "static"):
        "42c2c961cc2416064ef19c6e4109ff2e5ce1f290440915dbb442a31a61aaf5a5",
    ("paper-default@0.7", "gpiocp"):
        "3c84d2c487a887b7f147c4b27509a21bb2c2ab7f1448285102771953e411d7a6",
    ("paper-default@0.7", "fps-offline"):
        "9d0cbe8c216b810be02511d01b5fbfe9e9b4c0df2090998edfc726f8dcefb24a",
    ("paper-default@0.7", "fps-online"):
        "41953feaa0449fa260fb9f38f1819947be6d58769f954481970bdd7d0a67eb9f",
    ("paper-default@0.7", GA_SPEC):
        "91a302aa6e6a3514805bcbc709c1cfc3e63ededecf8b826fc2161c2f33f34d5d",
    ("bursty-periods@0.3", "static"):
        "b6d17bffc40cf9edf8547a0d12f70f2474db190ebbffb6eb2707710d003fafd5",
    ("bursty-periods@0.3", "gpiocp"):
        "719524ca5c85e57a525654f6e4de511e17e978fee9163f186f82953a574dd980",
    ("bursty-periods@0.3", "fps-offline"):
        "014a1b8c19f86e50970ea3b6ad619d308690ab4ac20d0b3431c2e9e11edaf564",
    ("bursty-periods@0.3", "fps-online"):
        "7d174f7a6f077757b7d474d603075ba686d15507b1b45ccdb017327ce9f17577",
    ("bursty-periods@0.3", GA_SPEC):
        "ba59223445025bdd651df5104851d0eaf64b679f68102312eca4fbdecaee30c7",
    ("bursty-periods@0.7", "static"):
        "682743efc9b5a28339f865961835fd5ce651943afa8c478a287c9c5e2bfb9ce8",
    ("bursty-periods@0.7", "gpiocp"):
        "0072454fb3631408d42cc9687c22dbc49f4b27c607a1c115402aea3effdc01c2",
    ("bursty-periods@0.7", "fps-offline"):
        "829087879a55ca1a77793f0dd232c739244bc17a5f7403a0bc8f7734b36d1eb8",
    ("bursty-periods@0.7", "fps-online"):
        "7d174f7a6f077757b7d474d603075ba686d15507b1b45ccdb017327ce9f17577",
    ("bursty-periods@0.7", GA_SPEC):
        "1051ff6931c593b181ae5635f69d2410d79a688fb78fe558e5329e93aa71e7b1",
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def response(system: str, method: str):
    name, utilisation, index = SYSTEMS[system]
    scenario = create_scenario(name)
    if utilisation is not None:
        scenario = scenario.with_utilisation(utilisation)
    return execute_request(ScheduleRequest(scenario=scenario, system_index=index, spec=method))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_response_bytes(system, method):
    assert digest(response(system, method).result_dict()) == RESPONSE_DIGESTS[system, method]


def test_the_order_canary():
    """Same stored schedules, Upsilon one bit apart."""
    static = response("paper-scale/0", "static")
    ga = response("paper-scale/0", GA_SPEC)
    feasible = [d for d, entry in static.per_device.items() if entry["schedulable"]]
    assert len(feasible) == 2
    for device in feasible:
        assert ga.per_device[device]["schedule"] == static.per_device[device]["schedule"]
    assert static.upsilon == 0.9625984703632886
    assert ga.upsilon == 0.9625984703632887


# -- schedule_jobs edge cases ---------------------------------------------------------


def task(name, wcet, period, delta, *, priority=0, device="dev0", theta=4):
    return IOTask(
        name=name,
        wcet=wcet * MS,
        period=period * MS,
        priority=priority,
        ideal_offset=delta * MS,
        theta=theta * MS,
        device=device,
    )


SCHEDULERS = {
    "static": HeuristicScheduler,
    "gpiocp": GPIOCPScheduler,
    "fps-offline": FPSOfflineScheduler,
    "ga": lambda: GAScheduler(GAConfig(population_size=8, generations=2, seed=3)),
}

A = task("a", 2, 10, 3, priority=2)
B = task("b", 3, 20, 4, priority=1)
A_ELSEWHERE = task("a", 1, 10, 6, priority=3)  # another task named "a"
C_DEV1 = task("c", 2, 20, 1, device="dev1")
HEAVY = task("h", 6, 10, 2, priority=1)
HEAVIER = task("k", 5, 10, 2, priority=2)

CASES = {
    "empty": lambda: [],
    "listed-twice": lambda: [A.job(0), A.job(1), A.job(0), B.job(0)],
    "two-devices": lambda: [C_DEV1.job(0), A.job(0), A.job(1)],
    "shared-name": lambda: [A.job(0), A.job(1), A_ELSEWHERE.job(0)],
    "overloaded": lambda: [HEAVY.job(0), HEAVIER.job(0), HEAVY.job(1), HEAVIER.job(1)],
}

EDGE_DIGESTS = {
('static', 'empty'): '86cc2c79de09deed53a6e8e237f45ad1bf1857bad7b127479a503a9e58461d2f',
    ("static", "listed-twice"):
        "24fe81df6ceaf69ac560e88c0d17d640c22a284f8fed96b8d4db303cda0d9ead",
    ("static", "two-devices"):
        "4ec4da0b8dc8a6eeb3926ef1610b2d1a097de41c588091a1e2aebc31c74cde38",
    ("static", "shared-name"):
        "283c0c6ab38a01f49357929c839fe440eb3ea7112aca8d1cfa196417ff6efb45",
    ("static", "overloaded"):
        "fc4a18714daec33173c972e8b0bb66f22f34948d62155e9c24c5d4cdf48b8b39",
    ("gpiocp", "empty"):
        "86cc2c79de09deed53a6e8e237f45ad1bf1857bad7b127479a503a9e58461d2f",
    ("gpiocp", "listed-twice"):
        "5b760fb8a3c44708f28ad5cfc7dfbc552c90135be62b0b6dc877567c6ad92c60",
    ("gpiocp", "two-devices"):
        "4ec4da0b8dc8a6eeb3926ef1610b2d1a097de41c588091a1e2aebc31c74cde38",
    ("gpiocp", "shared-name"):
        "283c0c6ab38a01f49357929c839fe440eb3ea7112aca8d1cfa196417ff6efb45",
    ("gpiocp", "overloaded"):
        "86993465a063703ea08577f0291f470f04a6774184de444cb3cc93d7ca531943",
    ("fps-offline", "empty"):
        "86cc2c79de09deed53a6e8e237f45ad1bf1857bad7b127479a503a9e58461d2f",
    ("fps-offline", "listed-twice"):
        "2aaa9d2b2ecedc10d770cb2c631308f0c0aebe8dfa73f151c1ca4dbc462e2294",
    ("fps-offline", "two-devices"):
        "69a718db39ba5dda0c78e97a2c185303611481ab050a439a061afd38567da0b0",
    ("fps-offline", "shared-name"):
        "283c0c6ab38a01f49357929c839fe440eb3ea7112aca8d1cfa196417ff6efb45",
    ("fps-offline", "overloaded"):
        "03aeb5b05bb581b2cf13d31f8923b8c1058d00846600ec4b5948ba6ad15fe375",
    ("ga", "empty"):
        "86cc2c79de09deed53a6e8e237f45ad1bf1857bad7b127479a503a9e58461d2f",
    ("ga", "listed-twice"):
        "4f38bdb1bbe1364422ff8451e67645c45909b5f7f6412ac695ec20a9c86dcff6",
    ("ga", "two-devices"):
        "cd9245edebfce6e23d9c3e7569b1b72b92b57641361e44efb6fd2c0d2a70da10",
    ("ga", "shared-name"):
        "283c0c6ab38a01f49357929c839fe440eb3ea7112aca8d1cfa196417ff6efb45",
    ("ga", "overloaded"):
        "e5ab327109f65dc567b43fdbbf61f769fdc9348704eb1c90c8d29875543b17a6",
}


def outcome(method: str, case: str):
    """A result as plain data, or the error it raised."""
    try:
        result = SCHEDULERS[method]().schedule_jobs(CASES[case](), 20 * MS)
    except Exception as error:  # noqa: BLE001 - the error is the pinned outcome
        return {"error": f"{type(error).__name__}: {error}"}
    schedule = result.schedule
    return {
        "schedulable": result.schedulable,
        "metrics": {
            name: repr(value) for name, value in dataclasses.asdict(result.metrics).items()
        },
        "info": {
            key: value
            for key, value in result.info.items()
            if isinstance(value, (bool, int, float, str, type(None)))
        },
        "device": None if schedule is None else schedule.device,
        "entries": None
        if schedule is None
        else [[e.job.task.name, e.job.index, e.job.wcet, e.start] for e in schedule.entries],
    }


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("method", list(SCHEDULERS))
def test_schedule_jobs_edge_cases(method, case):
    assert digest(outcome(method, case)) == EDGE_DIGESTS[method, case]
