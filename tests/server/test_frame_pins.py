"""Exact bytes of the serving daemon's answer frames.

Every request line gets one answer line.  These tests send raw lines over a
socket and pin the answers byte for byte, for ``schedule`` and ``simulate``:
a computed miss (``timing.elapsed_s`` masked in the raw bytes, the one
wall-clock field), cache hits, an in-flight dedup follower, each error a
line can meet before anything is computed, and hits read back from a SQLite
store whose stored numbers have the wrong type (``psi: 1`` must answer as
``1.0``).  Tags and ids hold quotes, backslashes, control and non-ASCII
characters, other JSON values, or are missing.

Computed frames are pinned by SHA-256, the rest literally.  The values were
computed once and are literals on purpose: do not update them to make a
change pass.
"""

import hashlib
import json
import re
import socket
from contextlib import contextmanager

import pytest

from repro.runtime import SimulationRequest
from repro.runtime.service import SimulationCache
from repro.server import ThreadedServer
from repro.service import ScheduleRequest
from repro.service.cache import ScheduleCache
from repro.store.registry import schedule_backend, simulation_backend

SCENARIO = "short-hyperperiod"
MAX_LINE_BYTES = 16384
TRICKY = 'q"uote \\ back\x01\x1f\n tab\t é ☃ \U0001f600'
ELAPSED = re.compile(rb'"elapsed_s": [-+0-9.eE]+')
OPS = ("schedule", "simulate")


def request_payload(op: str, system_index: int, request_id) -> dict:
    if op == "schedule":
        request = ScheduleRequest(
            scenario=SCENARIO, system_index=system_index, spec="static", request_id=request_id
        )
    else:
        request = SimulationRequest(
            scenario=SCENARIO, system_index=system_index, method="static", request_id=request_id
        )
    return request.to_dict()


def wrapped(op: str, payload, **tag) -> bytes:
    data = {"op": op, **tag, "payload": payload}
    return (json.dumps({"kind": "repro/server-request", "version": 1, "data": data}) + "\n").encode()


def bare(payload) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def masked(frame: bytes) -> bytes:
    return ELAPSED.sub(b'"elapsed_s": 0.0', frame)


def digest(frame: bytes) -> str:
    return hashlib.sha256(frame).hexdigest()


@contextmanager
def wire(threaded):
    with socket.create_connection((threaded.host, threaded.port)) as raw:
        with raw.makefile("rb") as reader:

            def ask(*lines: bytes):
                raw.sendall(b"".join(lines))
                return [reader.readline() for _ in lines]

            yield ask


def answers_by_tag(frames):
    return {json.loads(frame)["data"]["tag"]: frame for frame in frames}


@pytest.fixture(scope="module")
def memory_frames():
    """Frames of one memory-cached daemon, by name."""
    frames = {}
    with ThreadedServer(n_workers=1, port=0, max_line_bytes=MAX_LINE_BYTES) as threaded:
        dispatcher = threaded.server.dispatcher
        with wire(threaded) as ask:
            for op in OPS:
                kind = "schedule" if op == "schedule" else "simulation"
                (frames[f"{op}/miss"],) = ask(wrapped(op, request_payload(op, 0, TRICKY), tag=TRICKY))
                (frames[f"{op}/hit"],) = ask(wrapped(op, request_payload(op, 0, None), tag="hit"))
                (frames[f"{op}/hit-untagged"],) = ask(wrapped(op, request_payload(op, 0, "plain")))
                (frames[f"{op}/hit-int-id"],) = ask(
                    wrapped(op, request_payload(op, 0, 7), tag="int-id")
                )
                (frames[f"{op}/hit-object-id"],) = ask(
                    wrapped(op, request_payload(op, 0, {"b": [1, 2.5], "a": None}), tag=None)
                )
                no_id = request_payload(op, 0, None)
                del no_id["data"]["id"]
                (frames[f"{op}/hit-no-id"],) = ask(wrapped(op, no_id, tag="no-id"))
                (frames[f"{op}/hit-bare"],) = ask(bare(request_payload(op, 0, TRICKY)))
                (frames[f"{op}/hit-bare-untagged"],) = ask(bare(request_payload(op, 0, None)))
                deduped = dispatcher.deduped(kind)
                both = answers_by_tag(
                    ask(
                        wrapped(op, request_payload(op, 1, "leader"), tag="leader"),
                        wrapped(op, request_payload(op, 1, None), tag=TRICKY),
                    )
                )
                assert dispatcher.deduped(kind) == deduped + 1
                frames[f"{op}/dedup-leader"] = both["leader"]
                frames[f"{op}/dedup-follower"] = both[TRICKY]
                (frames[f"{op}/hit-after-dedup"],) = ask(
                    wrapped(op, request_payload(op, 1, "again"), tag="again")
                )
                newer = request_payload(op, 0, "v")
                newer["version"] = 99
                (frames[f"{op}/inner-version-mismatch"],) = ask(wrapped(op, newer, tag=TRICKY))
                strict = request_payload(op, 0, "s")
                strict["data"]["system_index"] = 1.0
                (frames[f"{op}/strict-integer"],) = ask(wrapped(op, strict, tag="strict"))
                (frames[f"{op}/strict-integer-bare"],) = ask(bare(strict))
                (frames[f"{op}/no-payload"],) = ask(wrapped(op, None, tag="none"))
            (frames["invalid-json"],) = ask(b"not json\n")
            (frames["not-an-object"],) = ask(b"[1, 2]\n")
            (frames["unknown-kind"],) = ask(b'{"kind": "nope", "version": 1, "data": {"id": "x"}}\n')
            (frames["unknown-op"],) = ask(wrapped("dance", None, tag=TRICKY))
            (frames["version-mismatch"],) = ask(
                b'{"kind": "repro/server-request", "version": 2,'
                b' "data": {"op": "health", "tag": "v2"}}\n'
            )
            (frames["oversized-line"],) = ask(b"x" * (MAX_LINE_BYTES + 10) + b"\n")
            (frames["bad-tag"],) = ask(wrapped("schedule", request_payload("schedule", 0, 1), tag=5))
    return frames


SCHEDULE_RESULT = {
    "spec": "static",
    "horizon": 360000.0,
    "schedulable": 1,
    "psi": 1,
    "upsilon": 0,
    "best_psi": 1,
    "best_upsilon": 2,
    "per_device": {"dev0": {"schedulable": True, "psi": 1, "n_jobs": 3, "schedule": None}},
}
SIMULATION_RESULT = {
    "scenario": SCENARIO,
    "method": "static",
    "execution_model": "dedicated-controller",
    "system_index": 2.0,
    "horizon": 360000.0,
    "schedulable": 1,
    "accuracy": 1,
    "psi": 1,
    "upsilon": 0,
    "offline_psi": 1,
    "offline_upsilon": 0,
    "matches_offline": 0,
    "executed_jobs": 12.0,
    "skipped_jobs": 0.0,
    "faults_detected": 0.0,
    "mean_noc_latency": 3,
    "max_noc_latency": 5.0,
    "events_processed": 40.0,
    "exhausted": 0,
    "trace": {"events": {"start": 12}},
}


@pytest.fixture(scope="module")
def sqlite_frames(tmp_path_factory):
    """Frames of daemons answering from one SQLite file, by name.

    System 2's entries are written by hand with int-valued floats; system 0's
    are computed by a first daemon and read back by a second.
    """
    spec = f"sqlite:path={tmp_path_factory.mktemp('frame-pins') / 'cache.db'}"
    for cache, request, result in (
        (
            ScheduleCache(backend=schedule_backend(spec)),
            ScheduleRequest(scenario=SCENARIO, system_index=2, spec="static"),
            SCHEDULE_RESULT,
        ),
        (
            SimulationCache(backend=simulation_backend(spec)),
            SimulationRequest(scenario=SCENARIO, system_index=2, method="static"),
            SIMULATION_RESULT,
        ),
    ):
        cache.put(request.content_key(), result)
        cache.close()
    frames = {}
    with ThreadedServer(n_workers=1, port=0, cache_backend=spec) as threaded:
        with wire(threaded) as ask:
            for op in OPS:
                (frames[f"{op}/computed"],) = ask(wrapped(op, request_payload(op, 0, "c"), tag="c"))
    with ThreadedServer(n_workers=1, port=0, cache_backend=spec) as threaded:
        with wire(threaded) as ask:
            for op in OPS:
                (frames[f"{op}/stored-hit"],) = ask(
                    wrapped(op, request_payload(op, 0, TRICKY), tag=TRICKY)
                )
                (frames[f"{op}/stored-hit-again"],) = ask(
                    wrapped(op, request_payload(op, 0, None), tag="again")
                )
                (frames[f"{op}/written-hit"],) = ask(
                    wrapped(op, request_payload(op, 2, TRICKY), tag=TRICKY)
                )
                (frames[f"{op}/written-hit-bare"],) = ask(bare(request_payload(op, 2, None)))
        assert threaded.server.dispatcher.computed("schedule") == 0
        assert threaded.server.dispatcher.computed("simulation") == 0
    return frames


MASKED_DIGESTS = {
    "schedule/dedup-follower": "085abe37bd0839866c3c170659702ed8f466b33ac5f5230264cd21d883b0320d",
    "schedule/dedup-leader": "501538ac033bd6b27ccc8a173cd40b535911af02453e505ee2d2bc243102e386",
    "schedule/miss": "1bd48ed90ec7a8efaad1b1016dd191bb3b52195a2b3204904fdf70b2b395f752",
    "simulate/dedup-follower": "8c5a6385c7cca9fcc9b485a51d94739b8ffbd9864cd1d80548bc410e5d7ea75a",
    "simulate/dedup-leader": "c6c9b4f9b0cad52aa5e801f012f2c9c2ff066c6ee432a4f1f266006b7a27dbe3",
    "simulate/miss": "5f340afeffd4617fd29a952f5c919b3c7ca86c244626afb2c19f0ee0a82a402b",
}
DIGESTS = {
    "schedule/hit": "ef5bba9ab89646001d6d2715a92cde5947ad948279952421307e337045cf6f82",
    "schedule/hit-after-dedup": "296c35d59280fbdae4624e5807965d96d2e09a207970939d87bd99fcf16e04d7",
    "schedule/hit-bare": "f19c7de9995a446a474eb32e19a40d8f46940050b2c1862e6e80734e38c65b9f",
    "schedule/hit-bare-untagged": "5661f4c73d550b0f285664e06b0e645fbd32a426c326abdbe104d68a724affdf",
    "schedule/hit-int-id": "19995b4dbd5a9416bc76e72db52169b1a082717ec9a108efc000355d2b9f9356",
    "schedule/hit-no-id": "e46317dec8bd6853a595bb11844169a68084c7498c27be1af738cb32c9c4a251",
    "schedule/hit-object-id": "e52d883e4aca84753dad3dd2ccb0e4be46ab57c759feb1b4bf66b5c9e3be5292",
    "schedule/hit-untagged": "3efd24db7dca78c9a4a05a24fc021ff5d5faa6435c3596e4ff2df1a7634cf09f",
    "simulate/hit": "dfbb7a4ca04edc20f34937222ecc387f1883120a376882a2e6a5f539152de83e",
    "simulate/hit-after-dedup": "3709d6afa0d8e954924bc03e9e598b2c3a3c7e3f0be74b10c8f0a01eb8af6b21",
    "simulate/hit-bare": "6ae87a99ca5024a2ecd0d2bfe8d37f3592368e1d0c832d16c3879acf59f91e34",
    "simulate/hit-bare-untagged": "e60697e4d7ad9772af187c946cb9171d70addd4012431c33b1a207553fb58110",
    "simulate/hit-int-id": "e930a4597964f99b98f1dcf849655ffa61e79d386a57a01e840e69b03bcb5830",
    "simulate/hit-no-id": "b570150a4351ae1f65787daa445e0d11c131af6d6ec021c543c4f7430a256c8a",
    "simulate/hit-object-id": "ffc43e00735e7b1915962c9071fcc5c60b536fb26dafc1ccb810e85f95b997f8",
    "simulate/hit-untagged": "d306971ef7317803b316219cf5c75ec06d3543516c36343ad2d1444e9dd1695b",
}
LITERALS = {
    "bad-tag": (
        b'{"data": {"error": "invalid-request", "message": "tag must be a string, '
        b'got 5", "tag": null}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "invalid-json": (
        b'{"data": {"error": "invalid-json", '
        b'"message": "invalid JSON: Expecting value: line 1 column 1 (char 0)", '
        b'"tag": null}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "not-an-object": (
        b'{"data": {"error": "invalid-json", "message": "expected a JSON object, '
        b'got list", "tag": null}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "oversized-line": (
        b'{"data": {"error": "oversized-line", '
        b'"message": "line of 16394 bytes exceeds the 16384-byte limit", "tag": null}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "schedule/inner-version-mismatch": (
        b'{"data": {"error": "version-mismatch", '
        b'"message": "payload kind \'repro/schedule-request\' has version 99, '
        b'but this reader only understands versions <= 2", '
        b'"tag": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00"}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "schedule/no-payload": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "op \'schedule\' requires a payload object", "tag": "none"}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "schedule/strict-integer": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "invalid ScheduleRequest: system_index must be an integer, '
        b'got 1.0", "tag": "strict"}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "schedule/strict-integer-bare": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "invalid ScheduleRequest: system_index must be an integer, '
        b'got 1.0", "tag": "s"}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "simulate/inner-version-mismatch": (
        b'{"data": {"error": "version-mismatch", '
        b'"message": "payload kind \'repro/sim-request\' has version 99, '
        b'but this reader only understands versions <= 1", '
        b'"tag": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00"}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "simulate/no-payload": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "op \'simulate\' requires a payload object", "tag": "none"}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "simulate/strict-integer": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "invalid SimulationRequest: system_index must be an integer, '
        b'got 1.0", "tag": "strict"}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "simulate/strict-integer-bare": (
        b'{"data": {"error": "invalid-request", '
        b'"message": "invalid SimulationRequest: system_index must be an integer, '
        b'got 1.0", "tag": "s"}, "kind": "repro/server-error", "version": 1}\n'
    ),
    "unknown-kind": (
        b'{"data": {"error": "unknown-kind", '
        b'"message": "unknown envelope kind \'nope\'", "tag": null}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "unknown-op": (
        b'{"data": {"error": "unknown-op", '
        b'"message": "unknown op \'dance\' (expected one of schedule, simulate, stats, '
        b'health, metrics, shutdown)", '
        b'"tag": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00"}, '
        b'"kind": "repro/server-error", "version": 1}\n'
    ),
    "version-mismatch": (
        b'{"data": {"error": "version-mismatch", '
        b'"message": "server-request version 2 is newer than this server understands (<= 1)", '
        b'"tag": "v2"}, "kind": "repro/server-error", "version": 1}\n'
    ),
}
SQLITE_MASKED_DIGESTS = {
    "schedule/computed": "4b2b2e436e4ce091aad6d6b3bae55d0a2e1ea2a6bbe3ca0fcb1350ae529e91f0",
    "simulate/computed": "9edeadca2a19f0296bd947e1062b9d44a17462b60f8cfce3d9a15dedcdb7ff2f",
}
SQLITE_DIGESTS = {
    "schedule/stored-hit": "f19c7de9995a446a474eb32e19a40d8f46940050b2c1862e6e80734e38c65b9f",
    "schedule/stored-hit-again": "7e06cfd07bdecc961a9c0490b3e31b4fc3b69e900e2e83f9d706e7de29c809f8",
    "simulate/stored-hit": "6ae87a99ca5024a2ecd0d2bfe8d37f3592368e1d0c832d16c3879acf59f91e34",
    "simulate/stored-hit-again": "db02e564da3603057d6ad87d0ce886bc153433f218107baa65fd3554fbea31ac",
}
SQLITE_LITERALS = {
    "schedule/written-hit": (
        b'{"data": {"op": "schedule", '
        b'"payload": {"data": {"cache": {"key": "132e4b531eddbddc", "status": "hit"}, '
        b'"id": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00", '
        b'"result": {"best_psi": 1.0, "best_upsilon": 2.0, "horizon": 360000, '
        b'"per_device": {"dev0": {"n_jobs": 3, "psi": 1, "schedulable": true, '
        b'"schedule": null}}, "psi": 1.0, "schedulable": true, "spec": "static", '
        b'"upsilon": 0.0}, "timing": {"elapsed_s": 0.0}}, '
        b'"kind": "repro/schedule-response", "version": 1}, '
        b'"tag": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00"}, '
        b'"kind": "repro/server-response", "version": 1}\n'
    ),
    "schedule/written-hit-bare": (
        b'{"data": {"op": "schedule", '
        b'"payload": {"data": {"cache": {"key": "132e4b531eddbddc", "status": "hit"}, '
        b'"id": null, "result": {"best_psi": 1.0, "best_upsilon": 2.0, '
        b'"horizon": 360000, "per_device": {"dev0": {"n_jobs": 3, "psi": 1, '
        b'"schedulable": true, "schedule": null}}, "psi": 1.0, "schedulable": true, '
        b'"spec": "static", "upsilon": 0.0}, "timing": {"elapsed_s": 0.0}}, '
        b'"kind": "repro/schedule-response", "version": 1}, "tag": null}, '
        b'"kind": "repro/server-response", "version": 1}\n'
    ),
    "simulate/written-hit": (
        b'{"data": {"op": "simulate", '
        b'"payload": {"data": {"cache": {"key": "512eec8764b62303", "status": "hit"}, '
        b'"id": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00", '
        b'"result": {"accuracy": 1.0, "events_processed": 40, "executed_jobs": 12, '
        b'"execution_model": "dedicated-controller", "exhausted": false, '
        b'"faults_detected": 0, "horizon": 360000, "matches_offline": false, '
        b'"max_noc_latency": 5, "mean_noc_latency": 3.0, "method": "static", '
        b'"offline_psi": 1.0, "offline_upsilon": 0.0, "psi": 1.0, '
        b'"scenario": "short-hyperperiod", "schedulable": true, "skipped_jobs": 0, '
        b'"system_index": 2, "trace": {"events": {"start": 12}}, "upsilon": 0.0}, '
        b'"timing": {"elapsed_s": 0.0}}, "kind": "repro/sim-response", "version": 1}, '
        b'"tag": "q\\"uote \\\\ back\\u0001\\u001f\\n tab\\t \\u00e9 \\u2603 \\ud83d\\ude00"}, '
        b'"kind": "repro/server-response", "version": 1}\n'
    ),
    "simulate/written-hit-bare": (
        b'{"data": {"op": "simulate", '
        b'"payload": {"data": {"cache": {"key": "512eec8764b62303", "status": "hit"}, '
        b'"id": null, "result": {"accuracy": 1.0, "events_processed": 40, '
        b'"executed_jobs": 12, "execution_model": "dedicated-controller", '
        b'"exhausted": false, "faults_detected": 0, "horizon": 360000, '
        b'"matches_offline": false, "max_noc_latency": 5, "mean_noc_latency": 3.0, '
        b'"method": "static", "offline_psi": 1.0, "offline_upsilon": 0.0, "psi": 1.0, '
        b'"scenario": "short-hyperperiod", "schedulable": true, "skipped_jobs": 0, '
        b'"system_index": 2, "trace": {"events": {"start": 12}}, "upsilon": 0.0}, '
        b'"timing": {"elapsed_s": 0.0}}, "kind": "repro/sim-response", "version": 1}, '
        b'"tag": null}, "kind": "repro/server-response", "version": 1}\n'
    ),
}


class TestMemoryCachedDaemon:
    def test_every_frame_is_pinned(self, memory_frames):
        assert sorted(memory_frames) == sorted([*MASKED_DIGESTS, *DIGESTS, *LITERALS])

    @pytest.mark.parametrize("name", sorted(MASKED_DIGESTS))
    def test_computed_frame(self, memory_frames, name):
        assert digest(masked(memory_frames[name])) == MASKED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_hit_frame(self, memory_frames, name):
        assert digest(memory_frames[name]) == DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(LITERALS))
    def test_literal_frame(self, memory_frames, name):
        assert memory_frames[name] == LITERALS[name]


class TestSqliteStoredDaemon:
    def test_every_frame_is_pinned(self, sqlite_frames):
        assert sorted(sqlite_frames) == sorted(
            [*SQLITE_MASKED_DIGESTS, *SQLITE_DIGESTS, *SQLITE_LITERALS]
        )

    @pytest.mark.parametrize("name", sorted(SQLITE_MASKED_DIGESTS))
    def test_computed_frame(self, sqlite_frames, name):
        assert digest(masked(sqlite_frames[name])) == SQLITE_MASKED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(SQLITE_DIGESTS))
    def test_hit_frame(self, sqlite_frames, name):
        assert digest(sqlite_frames[name]) == SQLITE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(SQLITE_LITERALS))
    def test_literal_frame(self, sqlite_frames, name):
        assert sqlite_frames[name] == SQLITE_LITERALS[name]
