"""Golden digests of the run-time simulator.

Each case runs one simulation request twice and compares two SHA-256 values
with pinned literals:

* the canonical JSON of ``execute_simulation(request).result_dict()``, which
  covers the run-time Psi/Upsilon, accuracy, NoC latencies, event counts and
  the exhaustion flag;
* the canonical JSON of the per-device runtime ``(task, index, start)`` lists
  of ``ExecutionOutcome.runtime_schedules`` returned by ``model.execute``, in
  the order the model executed the jobs.

The cases cover every built-in execution model on four scenarios, the
476-job single-device partition, a run cut short by ``max_events`` per model,
and the two edge cases of the CPU-instigated models' random draws: a jitter
window of one (every jitter draw has bound 1) and a platform without
background traffic (only the CPU-tile draws remain).  Any change to table
triggering, the draws, NoC routing or arbitration shows up here as a hard
diff.
"""

import hashlib

import pytest

from repro.core.serialization import canonical_json
from repro.runtime import SimulationRequest, execute_simulation
from repro.runtime.service import derive_execution_seed
from repro.scenario import create_scenario, materialize
from repro.service.service import execute_request

MODELS = ("dedicated-controller", "cpu-instigated", "cpu-instigated-prioritized")


def _scenario(name, **workload):
    scenario = create_scenario(name).with_utilisation(0.7)
    return scenario.with_workload(**workload) if workload else scenario


def _cases():
    cases = {}
    for name in ("paper-default", "bursty-periods", "faulty-controller", "wide-noc"):
        for model in MODELS:
            cases[f"{name}/{model}"] = dict(
                scenario=_scenario(name), execution_model=model, system_index=1
            )
    for model in MODELS:
        cases[f"476-jobs/{model}"] = dict(
            scenario=_scenario("paper-default", n_tasks=40), execution_model=model
        )
        cases[f"exhausted/{model}"] = dict(
            scenario=_scenario("bursty-periods"),
            execution_model=model,
            system_index=1,
            max_events=100,
        )
    cases["jitter-window-1"] = dict(
        scenario=_scenario("bursty-periods"),
        execution_model="cpu-instigated:jitter_window=1",
        system_index=1,
    )
    for model in MODELS[1:]:
        cases[f"no-background/{model}"] = dict(
            scenario=_scenario("bursty-periods").with_platform(
                background_packets_per_job=0
            ),
            execution_model=model,
            system_index=1,
        )
    return {
        name: SimulationRequest(method="static", **fields) for name, fields in cases.items()
    }


CASES = _cases()

#: ``(result_dict digest, runtime start-list digest)`` per case.
GOLDEN = {
    "476-jobs/cpu-instigated": (
        "5099ce2508e95e3cf7b3f05fdd4cd5e1dfe3d989853eb7bfb96076d82514b83d",
        "76dcb360d20ca6960c95c121e8254942d3439d227fa0eec13a7f35a43aaa2ea4",
    ),
    "476-jobs/cpu-instigated-prioritized": (
        "77515f22adf32bf1e0bd751e85e24b642fa936573df2e3f5b038c23443867883",
        "0c6fb70244b0c1d5516069561f0da7451d6a9baee704c8f8063fae3c5935f84f",
    ),
    "476-jobs/dedicated-controller": (
        "9393fda6a8dbd53403f30d9aa314fa18aac876d4e886617ee915a5237c1d48b5",
        "724b40fe798fb879a09ac3aba8d1279e45c7b7fe334d5c1cf80bbf0da46409b3",
    ),
    "bursty-periods/cpu-instigated": (
        "70dca581eda3d9aada64e7a33332c8d1c1f5ed4b327fbddf7d1c7f27ef3ec6a4",
        "f5b16a848d82d3fb1fd754eac4658fa6a3bcf3e54bc19a567c51637eec3bae59",
    ),
    "bursty-periods/cpu-instigated-prioritized": (
        "699998fc6d931e858a67f8615d5989cb5d0cd830d03466eed80d2c06f30f380d",
        "18adb28c6d08fefb66a984b55d588bc3ae328d5930f6323d6f0a2f2b0d4f315c",
    ),
    "bursty-periods/dedicated-controller": (
        "7098964bb2205103dcdd0eb34d837adce703cf09c77edfa63cbca862bdd84ef2",
        "1486cf7b0cd4189df55c751f47c1b9e71e11cc94f61c9b884e42c46353ae4895",
    ),
    "exhausted/cpu-instigated": (
        "ad14e9d41e3593889232708df33c0ea995fa88fbbb4ec609397ddca80c2ca2ec",
        "4c430c245dcdaccc9a0977910ebe49e7ab93b8d080478a907217338c369db57a",
    ),
    "exhausted/cpu-instigated-prioritized": (
        "254a027f970030857be35a4d666e26077f523fde777c231d6dee28a276199e8a",
        "eaaf365343ce6c4d114e2c74b7b89c580d46e4dfe339049296ba7bdf2594f3e3",
    ),
    "exhausted/dedicated-controller": (
        "2a633fa9da93f753fcb4771082b2b0e7d1000086c30f57ad60667b24be815ae3",
        "c9ffc1a01c067dd91f8b4c5d5d47639b028469e859f0c5d02ed88342751e38be",
    ),
    "faulty-controller/cpu-instigated": (
        "20f1b74b74236df6018d42b1a77ab861d447ca33f927534c1b578a3e33b0407d",
        "0dd7ad179e23f28033695549e034877b65422514e0573ac8f245524e952bb773",
    ),
    "faulty-controller/cpu-instigated-prioritized": (
        "cb47ff997a5ee39cc2293d368c83f60556e1475bd836258fec9bc5c6d22e7f2c",
        "0b270f3e620aa2adbb99ef08c97743a1bb28b24cd9d0be78fc32761e55986760",
    ),
    "faulty-controller/dedicated-controller": (
        "fca4a781d730d4e0165d6fffee9eeeabbe4cedd41466595212a46eaf1641acf2",
        "d34a24ee57826d3d1ef7b54ad137bae3ae6a25096a4e9c34ff5c546e9965299f",
    ),
    "jitter-window-1": (
        "d79c6b9cbb7699eb33798e0060685c0986b1c9b6cc8bbac7dc6cffb388ad118b",
        "2a378913ebad00fbca350851e507c18a4f81b55c7e6f8863e838869bbff815cb",
    ),
    "no-background/cpu-instigated": (
        "10e06f76d0e592a257a04f83c3904376971f1ee389f1f043042bd13005122f9e",
        "0c4e7126cefc8ec79749c5136c8848205bb7a99bfb17d7ed7ef341259134b811",
    ),
    "no-background/cpu-instigated-prioritized": (
        "0527915cfd23ddf1e6e3b7a48a2b432b3492f1d69fdd338c48e73cc1da5a9c72",
        "f18bd6a45c9082149edaf458f1a3e7839ff72d448af2c119bf48bd2b5308d489",
    ),
    "paper-default/cpu-instigated": (
        "ee7398bf55b6a2b5d914cc4cc8588e3e355fca58f3b8f118142d08f81da23ee0",
        "507d9ac87ba627ef6dcb339a795e3a4706946b290c5ee5bf5c37ace9d14cdb95",
    ),
    "paper-default/cpu-instigated-prioritized": (
        "73f9fb9804c146add5c285d451653578bdb9cd2b8436097d371030d7ab4d5f19",
        "c3a29b8ba8700f0f23966f034626e826d5e2d84f148a5372eda30263e3cebde6",
    ),
    "paper-default/dedicated-controller": (
        "54d394262ab066b3b2a38d54cd6f1d548f3e5f9705bb193f6b6ed92f24881f74",
        "a0e718501c1b098a53f34b751c4961608fdf03f7476970d256f1cfc903b1cf25",
    ),
    "wide-noc/cpu-instigated": (
        "3c44e1c8679b3bc3469c69f12e09adcda85a7a88eb960412423139225fca7cd3",
        "5ee30b54074e47c05f7cd28d974da6eb2db25770faeb3bd35e1ea1fd10dc9cce",
    ),
    "wide-noc/cpu-instigated-prioritized": (
        "71dd7dbe1b8aedfff6eaa62ab836f7ed43f3d50e834875bf66ad3c55c5c8ab5a",
        "94aae305ee77825bc0c188136acc35bfff4af88d91eeb900b3c0f39cd1ee8b19",
    ),
    "wide-noc/dedicated-controller": (
        "0d9ffdfed06752fb0ee87360bb8e49d0e60fe1b455b1d1770f05644660fb6983",
        "bb02ee29f11ae2423d66fcd892cf34d8ca2c0d10118a2a720c709d0d494cf4f8",
    ),
}


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def runtime_starts(request: SimulationRequest):
    """One ``model.execute`` run, built the way ``execute_simulation`` builds
    its inputs: ``(outcome, per-device (task, index, start) lists)``."""
    materialized = materialize(request.scenario, request.system_index)
    response = execute_request(request.schedule_request())
    schedules = response.device_schedules(materialized.task_set)
    outcome = request.execution_model.resolve().execute(
        materialized.task_set,
        schedules,
        materialized.platform,
        seed=derive_execution_seed(request),
        max_events=request.max_events,
    )
    return outcome, {
        device: [
            [entry.job.task.name, entry.job.index, entry.start] for entry in schedule.entries
        ]
        for device, schedule in outcome.runtime_schedules.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulation_matches_pinned_digests(name):
    request = CASES[name]
    result = execute_simulation(request).result_dict()
    _, starts = runtime_starts(request)
    assert (digest(result), digest(starts)) == GOLDEN[name]


def test_cases_cover_what_they_claim():
    """The edge cases exercise the paths they are named after."""
    outcomes = {name: runtime_starts(CASES[name])[0] for name in CASES}
    for model in MODELS:
        assert outcomes[f"exhausted/{model}"].exhausted
        assert outcomes[f"476-jobs/{model}"].executed_jobs == 476
        assert len(outcomes[f"476-jobs/{model}"].runtime_schedules) == 1
        assert outcomes[f"paper-default/{model}"].executed_jobs > 0
        assert outcomes[f"wide-noc/{model}"].executed_jobs > 0
    for model in MODELS[1:]:
        outcome = outcomes[f"no-background/{model}"]
        assert outcome.events_processed == outcome.executed_jobs
    assert outcomes["476-jobs/dedicated-controller"].matches_offline
    assert outcomes["faulty-controller/dedicated-controller"].faults_detected > 0
