"""Pins of what requests that name a method or model by an alias answer.

``heuristic`` is a second name of ``static``, ``fps`` of ``fps-offline`` and
``controller`` of ``dedicated-controller``.  These tests send both spellings
through the service and runtime CLIs, the serving daemon and a campaign, and
pin what each writes:

- every answer line, as a SHA-256 of its bytes with the echoed spec names,
  the ``cache`` object and ``timing.elapsed_s`` masked;
- the masked fields themselves: the spec name each answer echoes, and its
  cache key and status;
- the stderr summaries and the daemon's computed counters;
- a campaign's journal, report and timing sidecar (``elapsed_ms`` and the
  per-cell cache status masked, the statuses pinned on their own).

The values were computed once and are literals on purpose: do not update
them to make a change pass.
"""

import contextlib
import hashlib
import io
import json
import re
import socket

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.core.memo import reset_memos
from repro.runtime import SimulationRequest
from repro.runtime.__main__ import main as runtime_main
from repro.server import ThreadedServer
from repro.service import ScheduleRequest
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"
ELAPSED = re.compile(r'"elapsed_s": [-+0-9.eE]+')
ELAPSED_MS = re.compile(r'"elapsed_ms": [-+0-9.eE]+')
CACHE = re.compile(r'"cache": \{"key": "[0-9a-f]+", "status": "[a-z]+"\}')
CELL_CACHE = re.compile(r'"cache": "[a-z]+"')
ECHOED = re.compile(r'"(spec|method|execution_model)": "[^"]*"')


def masked(text: str) -> str:
    """``text`` with the echoed names, cache provenance and wall clock masked."""
    text = ELAPSED.sub('"elapsed_s": 0.0', text)
    text = CACHE.sub('"cache": {}', text)
    return ECHOED.sub(lambda match: f'"{match.group(1)}": ""', text)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(main, argv):
    """``main(argv)`` in-process: ``(status, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def answer_row(line: str, data: dict):
    """``(masked digest, echoed names, (cache key, status))`` of one answer line
    whose response envelope holds ``data``."""
    result = data["result"]
    echoed = tuple(result[name] for name in ("spec", "method", "execution_model") if name in result)
    return sha(masked(line)), echoed, (data["cache"]["key"], data["cache"]["status"])


def answers(text: str):
    """One :func:`answer_row` per response line, by request id."""
    rows = {}
    for line in text.splitlines():
        data = json.loads(line)["data"]
        rows[data["id"]] = answer_row(line, data)
    return rows


def assert_rows(rows, bodies, echoes, cache):
    assert list(rows) == list(bodies)
    assert {key: row[0] for key, row in rows.items()} == bodies
    assert {key: row[1] for key, row in rows.items()} == echoes
    assert {key: row[2] for key, row in rows.items()} == cache


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


# -- the service CLI -----------------------------------------------------------------

SERVICE_ARGV = ["--scenario", SCENARIO, "--methods", "static", "heuristic", "fps-offline", "fps"]
SERVICE_BODIES = {
    "short-hyperperiod/0/static": (
        "2e4be94aa50b44a922339f1c6c17598d5c3a70fd13522ad969737d16be24bb9d"
    ),
    "short-hyperperiod/0/heuristic": (
        "a1df14006f930e5dfa2f73e567d371c602a3315decb9fa658d2c45095d01f890"
    ),
    "short-hyperperiod/0/fps-offline": (
        "4a2098c85e49de9d3fe09258c257f810da2f3ead6d56d409fae7c097039c4d65"
    ),
    "short-hyperperiod/0/fps": (
        "a6b00339d7370d051b2ab76b82162e3273a127fdcd91984e586fa25e49ccc198"
    ),
}
SERVICE_ECHOES = {
    "short-hyperperiod/0/static": ("static",),
    "short-hyperperiod/0/heuristic": ("static",),
    "short-hyperperiod/0/fps-offline": ("fps-offline",),
    "short-hyperperiod/0/fps": ("fps-offline",),
}
SERVICE_CACHE = {
    "short-hyperperiod/0/static": ("0ef5d72da0fc27d5", "miss"),
    "short-hyperperiod/0/heuristic": ("0ef5d72da0fc27d5", "hit"),
    "short-hyperperiod/0/fps-offline": ("01dfaf20b91c03ed", "miss"),
    "short-hyperperiod/0/fps": ("01dfaf20b91c03ed", "hit"),
}
SERVICE_SUMMARY = "4 response(s): 2 computed, 2 served from cache\n"


class TestServiceCli:
    @pytest.fixture(scope="class")
    def output(self):
        reset_memos()
        return run_cli(service_main, SERVICE_ARGV)

    def test_summary(self, output):
        status, _, err = output
        assert (status, err) == (0, SERVICE_SUMMARY)

    def test_answers(self, output):
        assert_rows(answers(output[1]), SERVICE_BODIES, SERVICE_ECHOES, SERVICE_CACHE)


# -- the runtime CLI -----------------------------------------------------------------

RUNTIME_ARGV = [
    "--scenario", SCENARIO,
    "--methods", "static", "heuristic",
    "--execution-models", "dedicated-controller", "controller",
]
RUNTIME_BODIES = {
    "short-hyperperiod/0/static/dedicated-controller": (
        "17d92c0034ddc8f6f87b67bb68d517353f59651e9fb7191d24a4fb56b9cae641"
    ),
    "short-hyperperiod/0/static/controller": (
        "1f6506ff70bbb9d3f01a7710af5fb974e6b4351c84f2599b96937013fc4abcfb"
    ),
    "short-hyperperiod/0/heuristic/dedicated-controller": (
        "39438f5a991a558a2581a4ee4f133132f51660c9c50d7b63077a55ab70d2b435"
    ),
    "short-hyperperiod/0/heuristic/controller": (
        "c562888ea314161392092ba544e53bac05caf9c758003edc131e0fd5a4ee2302"
    ),
}
RUNTIME_ECHOES = {
    "short-hyperperiod/0/static/dedicated-controller": ("static", "dedicated-controller"),
    "short-hyperperiod/0/static/controller": ("static", "dedicated-controller"),
    "short-hyperperiod/0/heuristic/dedicated-controller": ("static", "dedicated-controller"),
    "short-hyperperiod/0/heuristic/controller": ("static", "dedicated-controller"),
}
RUNTIME_CACHE = {
    "short-hyperperiod/0/static/dedicated-controller": ("08b19afb37d5bad8", "miss"),
    "short-hyperperiod/0/static/controller": ("08b19afb37d5bad8", "hit"),
    "short-hyperperiod/0/heuristic/dedicated-controller": ("08b19afb37d5bad8", "hit"),
    "short-hyperperiod/0/heuristic/controller": ("08b19afb37d5bad8", "hit"),
}
RUNTIME_SUMMARY = "4 response(s): 1 simulated, 3 served from cache\n"


class TestRuntimeCli:
    @pytest.fixture(scope="class")
    def output(self):
        reset_memos()
        return run_cli(runtime_main, RUNTIME_ARGV)

    def test_summary(self, output):
        status, _, err = output
        assert (status, err) == (0, RUNTIME_SUMMARY)

    def test_answers(self, output):
        assert_rows(answers(output[1]), RUNTIME_BODIES, RUNTIME_ECHOES, RUNTIME_CACHE)


# -- the serving daemon --------------------------------------------------------------


def frame_request(op: str, name: str, model: str = "dedicated-controller") -> bytes:
    if op == "schedule":
        request = ScheduleRequest(scenario=SCENARIO, spec=name, request_id=name)
    else:
        request = SimulationRequest(
            scenario=SCENARIO, method=name, execution_model=model, request_id=f"{name}/{model}"
        )
    data = {"op": op, "tag": request.request_id, "payload": request.to_dict()}
    frame = {"kind": "repro/server-request", "version": 1, "data": data}
    return (json.dumps(frame) + "\n").encode()


#: The daemon's requests, one at a time, in this order.
FRAME_REQUESTS = (
    ("schedule", "static"),
    ("schedule", "heuristic"),
    ("simulate", "static", "dedicated-controller"),
    ("simulate", "static", "controller"),
    ("simulate", "heuristic", "controller"),
)


@pytest.fixture(scope="module")
def daemon_frames():
    """``(frames by tag, computed counters by kind)`` of one memory-cached daemon."""
    reset_memos()
    frames = {}
    with ThreadedServer(n_workers=1, port=0) as threaded:
        with socket.create_connection((threaded.host, threaded.port)) as raw:
            with raw.makefile("rb") as reader:
                for request in FRAME_REQUESTS:
                    raw.sendall(frame_request(*request))
                    frame = reader.readline().decode()
                    frames[json.loads(frame)["data"]["tag"]] = frame
        dispatcher = threaded.server.dispatcher
        computed = {
            kind: (dispatcher.computed(kind), dispatcher.stats()[kind]["computed"])
            for kind in ("schedule", "simulation")
        }
    return frames, computed


FRAME_BODIES = {
    "static": "608acfaca1c96adf43f2c16085e4c1f4db307918345995acecef9f6b3a383be8",
    "heuristic": "fa04add2140e90e4399edc74ff7cab276326c2e32dbd89a36c5ce5cf459f8a97",
    "static/dedicated-controller": (
        "1003c0b8a80cd72de2e830ac97d9a840e4252f2bd8355bf84768d7d90349e2c8"
    ),
    "static/controller": "4bacfca308553328a852004261366f95dbb5a3db95538fe778363ca554bad370",
    "heuristic/controller": "12d1c4349b97aa5f3a064bd61dec97af418191c61d4ec13675200c61404af77a",
}
FRAME_ECHOES = {
    "static": ("static",),
    "heuristic": ("static",),
    "static/dedicated-controller": ("static", "dedicated-controller"),
    "static/controller": ("static", "dedicated-controller"),
    "heuristic/controller": ("static", "dedicated-controller"),
}
FRAME_CACHE = {
    "static": ("0ef5d72da0fc27d5", "miss"),
    "heuristic": ("0ef5d72da0fc27d5", "hit"),
    "static/dedicated-controller": ("08b19afb37d5bad8", "miss"),
    "static/controller": ("08b19afb37d5bad8", "hit"),
    "heuristic/controller": ("08b19afb37d5bad8", "hit"),
}
FRAME_COMPUTED = {
    "schedule": (1, 1),
    "simulation": (1, 1),
}


class TestDaemonFrames:
    def test_frames(self, daemon_frames):
        rows = {
            tag: answer_row(frame, json.loads(frame)["data"]["payload"]["data"])
            for tag, frame in daemon_frames[0].items()
        }
        assert_rows(rows, FRAME_BODIES, FRAME_ECHOES, FRAME_CACHE)

    def test_computed_counters(self, daemon_frames):
        assert daemon_frames[1] == FRAME_COMPUTED


# -- a campaign ----------------------------------------------------------------------

CAMPAIGN_FLAGS = [
    "--name", "aliases",
    "--scenarios", SCENARIO,
    "--methods", "static", "heuristic",
    "--systems", "1",
    "--utilisations", "0.35",
    "--execution-models", "dedicated-controller", "controller",
]
CAMPAIGN_KEY = "62da9712e2f37403"
CAMPAIGN_STDERR = (
    f"campaign 'aliases' ({CAMPAIGN_KEY}): 6 evaluated, 0 resumed, 2/2 cells done, "
    "4/4 runtime cells done\n"
)
CAMPAIGN_DIGESTS = {
    "journal": "d1a46575784fee4542c21d74e69bf2bf9edb6367b06773ebf92d6130d809aab1",
    "timings": "c0c35d6a06bd8d721b1b6a5fb1af41ac375522d291ea4080aff47ee4bb5d61a1",
    "report-json": "80be0fb83739664a60419af6ca7ffabf4f338c5463eb4f29d0a6a8f680761600",
    "report-md": "4dd9f203db3abf29213f752c2f5467115666684afd2bc35519b1a09ef93fae91",
}
#: The timing sidecar's per-cell cache status, in journal order.
CAMPAIGN_CELL_CACHE = [
    ("schedule", "static", None, "miss"),
    ("schedule", "heuristic", None, "hit"),
    ("simulation", "static", "dedicated-controller", "miss"),
    ("simulation", "static", "controller", "hit"),
    ("simulation", "heuristic", "dedicated-controller", "hit"),
    ("simulation", "heuristic", "controller", "hit"),
]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    reset_memos()
    root = tmp_path_factory.mktemp("aliases")
    artifact = str(root)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert campaign_main(
            ["run", *CAMPAIGN_FLAGS, "--artifact-dir", artifact, "--timings",
             "--report", "json", "-o", str(root / "report.json")]
        ) == 0
        assert campaign_main(
            ["report", "--artifact-dir", artifact, "--format", "md", "-o", str(root / "report.md")]
        ) == 0
    (directory,) = [path for path in root.iterdir() if path.is_dir()]
    timings = (directory / "campaign.metrics.jsonl").read_text(encoding="utf-8")
    return {
        "key": directory.name,
        "stderr": stderr.getvalue(),
        "journal": (directory / "campaign.jsonl").read_text(encoding="utf-8"),
        "timings": CELL_CACHE.sub('"cache": ""', ELAPSED_MS.sub('"elapsed_ms": 0', timings)),
        "report-json": (root / "report.json").read_text(encoding="utf-8"),
        "report-md": (root / "report.md").read_text(encoding="utf-8"),
        "cell-cache": [
            (cell["kind"], cell["m"], cell.get("x"), cell["cache"])
            for cell in map(json.loads, timings.splitlines())
        ],
    }


class TestCampaign:
    def test_key_and_stderr(self, campaign):
        assert campaign["key"] == CAMPAIGN_KEY
        assert campaign["stderr"] == CAMPAIGN_STDERR

    @pytest.mark.parametrize("name", sorted(CAMPAIGN_DIGESTS))
    def test_bytes(self, campaign, name):
        assert sha(campaign[name]) == CAMPAIGN_DIGESTS[name]

    def test_journal_names_each_spelling(self, campaign):
        methods = [json.loads(line)["m"] for line in campaign["journal"].splitlines()]
        assert methods == ["static", "heuristic", "static", "static", "heuristic", "heuristic"]

    def test_cell_cache_status(self, campaign):
        assert campaign["cell-cache"] == CAMPAIGN_CELL_CACHE
