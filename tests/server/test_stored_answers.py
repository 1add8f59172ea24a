"""Cache hits answered from stored text, request payloads parsed once.

A cache renders the answer text of an entry on the entry's first hit and
the daemon places that text in every later hit frame; the daemon parses each
distinct request payload once.  Both are counted here, never timed: renders
through :meth:`ScheduleCache.text`, parses through ``from_dict``.  A
property test shows that a spliced frame is the frame the plain encoder
writes, for any tag and id on both response kinds.
"""

import copy
import json
import socket
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import SimulationRequest, SimulationService
from repro.server import ThreadedServer
from repro.server.protocol import ProtocolError, encode_response
from repro.service import ScheduleRequest, SchedulingService
from repro.service.cache import ScheduleCache

SCENARIO = "short-hyperperiod"
REQUEST_CLS = {"schedule": ScheduleRequest, "simulate": SimulationRequest}


def schedule_request(**fields) -> ScheduleRequest:
    return ScheduleRequest(scenario=SCENARIO, spec="static", **fields)


def request_for(op: str, **fields):
    if op == "schedule":
        return schedule_request(**fields)
    return SimulationRequest(scenario=SCENARIO, method="static", **fields)


@pytest.fixture
def renders(monkeypatch):
    """Keys whose answer text a cache rendered, in order."""
    rendered = []
    text = ScheduleCache.text

    def counting(self, key, render):
        def counted():
            rendered.append(key)
            return render()

        return text(self, key, counted)

    monkeypatch.setattr(ScheduleCache, "text", counting)
    return rendered


@pytest.fixture
def parses(monkeypatch):
    """Names of the request classes whose ``from_dict`` ran, in order."""
    parsed = []
    for cls in REQUEST_CLS.values():
        from_dict = cls.__dict__["from_dict"].__func__

        def counting(cls, payload, from_dict=from_dict):
            parsed.append(cls.__name__)
            return from_dict(cls, payload)

        monkeypatch.setattr(cls, "from_dict", classmethod(counting))
    return parsed


@contextmanager
def wire(threaded):
    with socket.create_connection((threaded.host, threaded.port)) as raw:
        with raw.makefile("rb") as reader:

            def ask(line: dict) -> dict:
                raw.sendall((json.dumps(line) + "\n").encode())
                return json.loads(reader.readline())

            yield ask


def server_request(op: str, payload: dict, tag) -> dict:
    return {"kind": "repro/server-request", "version": 1, "data": {"op": op, "tag": tag, "payload": payload}}


class TestStoredAnswerText:
    def test_hits_on_one_key_render_its_text_once(self, renders):
        request = schedule_request()
        with SchedulingService() as service:
            service.submit(request)
            answers = [service.lookup(request.with_request_id(f"r{i}")) for i in range(5)]
        assert renders == [request.content_key()]
        assert len({id(answer.result_text) for answer in answers}) == 1
        assert answers[0].result_text == json.dumps(answers[0].result_dict(), sort_keys=True)
        assert [answer.request_id for answer in answers] == [f"r{i}" for i in range(5)]

    def test_batch_answers_carry_no_text(self, renders):
        request = schedule_request()
        with SchedulingService() as service:
            (miss,) = service.submit_batch([request])
            (hit,) = service.submit_batch([request])
        assert (miss.cache, hit.cache) == ("miss", "hit")
        assert miss.result_text is None and hit.result_text is None
        assert renders == []

    def test_clear_memory_drops_the_text_with_its_entry(self, renders, tmp_path):
        request = schedule_request()
        key = request.content_key()
        with SchedulingService(cache_backend=f"sqlite:path={tmp_path / 'cache.db'}") as service:
            service.submit(request)
            first = service.lookup(request)
            service.lookup(request)
            service.cache.clear_memory([key])
            again = service.lookup(request)
            service.lookup(request)
        assert renders == [key, key]
        assert again.result_text == first.result_text

    def test_a_memory_only_cache_keeps_its_texts(self, renders):
        request = schedule_request()
        with SchedulingService() as service:
            service.submit(request)
            service.lookup(request)
            service.cache.clear_memory()
            service.lookup(request)
        assert renders == [request.content_key()]


class TestDaemonHitPath:
    @pytest.mark.parametrize("op", sorted(REQUEST_CLS))
    def test_copies_of_one_payload_parse_once_and_keep_their_ids(self, op, parses, renders):
        payload = request_for(op).to_dict()
        with ThreadedServer(n_workers=1, port=0) as threaded:
            with wire(threaded) as ask:
                answers = []
                for index in range(6):
                    copy_ = copy.deepcopy(payload)
                    copy_["data"]["id"] = f"id-{index}"
                    answers.append(ask(server_request(op, copy_, f"tag-{index}")))
        assert parses == [REQUEST_CLS[op].__name__]
        assert renders == [request_for(op).content_key()]
        assert [answer["data"]["tag"] for answer in answers] == [f"tag-{i}" for i in range(6)]
        results = [answer["data"]["payload"]["data"] for answer in answers]
        assert [data["id"] for data in results] == [f"id-{i}" for i in range(6)]
        assert [data["cache"]["status"] for data in results] == ["miss"] + ["hit"] * 5
        assert all(data["result"] == results[0]["result"] for data in results)

    def test_payloads_that_parse_apart_never_share_a_parse(self, parses):
        base = schedule_request().to_dict()
        reordered = {"data": base["data"], "version": base["version"], "kind": base["kind"]}
        variants = [base, reordered]
        for value in (1, 1.0, True):
            payload = copy.deepcopy(base)
            payload["data"]["spec"] = {
                "name": "static",
                "options": {"prefer_ideal_placement": value},
            }
            variants.append(payload)
        with ThreadedServer(n_workers=1, port=0) as threaded:
            parse = threaded.server._parse_payload
            requests = [parse(ScheduleRequest, payload, tag=None) for payload in variants]
            again = [parse(ScheduleRequest, payload, tag=None) for payload in variants]
        assert len(parses) == len(variants)
        keys = [request.content_key() for request in requests]
        assert [request.content_key() for request in again] == keys
        assert keys[0] == keys[1]
        assert len(set(keys[2:])) == 3
        assert [request.spec for request in requests[2:]] == [
            ScheduleRequest.from_dict(payload).spec for payload in variants[2:]
        ]

    def test_a_payload_that_fails_to_parse_is_not_kept(self, parses):
        bad = schedule_request().to_dict()
        bad["data"]["system_index"] = 1.0
        with ThreadedServer(n_workers=1, port=0) as threaded:
            for _ in range(3):
                with pytest.raises(ProtocolError, match="system_index must be an integer"):
                    threaded.server._parse_payload(ScheduleRequest, bad, tag="t")
            kept = len(threaded.server._parsed)
        assert parses == ["ScheduleRequest"] * 3
        assert kept == 0


SCHEDULE_RESULT = {
    "spec": "static",
    "horizon": 360000.0,
    "schedulable": 1,
    "psi": 1,
    "upsilon": 0.25,
    "best_psi": 1,
    "best_upsilon": 2,
}
SIMULATION_RESULT = {
    "scenario": SCENARIO,
    "method": "static",
    "execution_model": "dedicated-controller",
    "system_index": 0,
    "horizon": 360000,
    "schedulable": True,
    "accuracy": 1,
    "psi": 0.5,
    "upsilon": 0,
    "offline_psi": 1,
    "offline_upsilon": 0,
    "matches_offline": 0,
    "executed_jobs": 12,
    "skipped_jobs": 0,
    "faults_detected": 0,
    "mean_noc_latency": 3,
    "max_noc_latency": 5.0,
    "events_processed": 40,
    "exhausted": False,
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(
    op=st.sampled_from(sorted(REQUEST_CLS)),
    tag=st.none() | st.text(),
    request_id=JSON_VALUES,
    mapping=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
)
def test_spliced_hit_frame_is_the_encoded_frame(op, tag, request_id, mapping):
    request = request_for(op)
    if op == "schedule":
        service, result = SchedulingService(), {**SCHEDULE_RESULT, "per_device": mapping}
    else:
        service, result = SimulationService(), {**SIMULATION_RESULT, "trace": mapping}
    with service:
        service.cache.put(request.content_key(), result)
        response = service.lookup(request.with_request_id(request_id))
    assert response.result_text is not None
    payload = response.to_dict()
    assert encode_response(op, tag, payload, result_text=response.result_text) == (
        encode_response(op, tag, payload)
    )
