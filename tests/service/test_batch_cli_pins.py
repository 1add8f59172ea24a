"""Pins of the three JSONL batch CLIs and the parsers that share their flags.

``python -m repro.service``, ``python -m repro.runtime`` and
``python -m repro.server request`` read request envelopes (from a file,
stdin or a declarative source), write one response envelope per line and
summarise on stderr.  These tests pin, for every request source, the output
bytes (with ``timing.elapsed_s`` zeroed, the one wall-clock field), the
stderr summary and ``--verbose`` lines, the exit code and message of every
error path, the combined ``--list-*`` output, and each parser's option
strings, defaults, metavars, ``nargs``, choices, consts and types.

The digests were computed once and are literals on purpose: do not update
them to make a change pass.
"""

import argparse
import contextlib
import hashlib
import io
import re
import sys

import pytest

from repro.campaign import build_campaign
from repro.campaign.__main__ import build_parser as campaign_parser
from repro.core import MS, IOTask, TaskSet
from repro.core.memo import reset_memos
from repro.experiments.__main__ import build_parser as experiments_parser
from repro.experiments.__main__ import main as experiments_main
from repro.runtime import SimulationRequest, format_execution_model_listing
from repro.runtime.__main__ import build_parser as runtime_parser
from repro.runtime.__main__ import main as runtime_main
from repro.scenario import available_scenarios, format_scenario_listing
from repro.scheduling import format_scheduler_listing
from repro.server import ThreadedServer
from repro.server.__main__ import build_parser as server_parser
from repro.server.__main__ import main as server_main
from repro.service import ScheduleRequest
from repro.service.__main__ import build_parser as service_parser
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"
ELAPSED = re.compile(r'"elapsed_s": [-+0-9.eE]+')


def tiny_task_set() -> TaskSet:
    return TaskSet(
        [
            IOTask(name="tau0", wcet=2 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS),
            IOTask(name="tau1", wcet=1 * MS, period=40 * MS, ideal_offset=10 * MS, theta=8 * MS),
        ]
    )


def schedule_lines() -> str:
    requests = [
        ScheduleRequest(task_set=tiny_task_set(), spec="static", request_id="v1/static"),
        ScheduleRequest(scenario=SCENARIO, system_index=1, spec="gpiocp", request_id="v2/gpiocp"),
    ]
    return "\n".join(request.to_json() for request in requests) + "\n\n"


def simulation_lines() -> str:
    requests = [
        SimulationRequest(scenario=SCENARIO, method="static", request_id="drawn"),
        SimulationRequest(
            scenario=SCENARIO,
            task_set=tiny_task_set(),
            method="static",
            execution_model="cpu-instigated",
            seed=7,
            request_id="explicit",
        ),
    ]
    return "\n".join(request.to_json() for request in requests) + "\n"


def run_cli(main, argv, *, stdin=None):
    """``main(argv)`` as the interpreter would run it: ``(status, out, err)``.

    A ``SystemExit`` carrying a message exits with status 1 after printing
    the message to stderr, exactly as ``python -m`` does.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as stop:
                if stop.code is None or isinstance(stop.code, int):
                    status = stop.code or 0
                else:
                    print(stop.code, file=sys.stderr)
                    status = 1
    finally:
        sys.stdin = saved_stdin
    return status, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    """SHA-256 of the output with the wall-clock field zeroed."""
    return hashlib.sha256(ELAPSED.sub('"elapsed_s": 0.0', text).encode()).hexdigest()


def last_line(text: str) -> str:
    return text.rstrip("\n").rsplit("\n", 1)[-1]


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schedule.jsonl").write_text(schedule_lines())
    (tmp_path / "sim.jsonl").write_text(simulation_lines())
    (tmp_path / "mixed.jsonl").write_text(schedule_lines() + simulation_lines())
    (tmp_path / "bad.jsonl").write_text(schedule_lines() + "not json\n")
    (tmp_path / "incomplete.jsonl").write_text(
        '{"kind": "repro/schedule-request", "version": 1, "data": {"taskset": null}}\n'
    )
    (tmp_path / "sim-incomplete.jsonl").write_text(
        '{"kind": "repro/sim-request", "version": 1, "data": {"method": "static"}}\n'
    )
    return tmp_path


def campaign_json() -> str:
    return build_campaign(
        name="pin", scenarios=(SCENARIO,), methods=("static", "gpiocp"), n_systems=2,
        utilisations=(0.4,),
    ).to_json()


# -- output bytes per request source ------------------------------------------------

SERVICE_OUTPUTS = {
    "file": "bbce1aa562696b19f2466499ba810851bf073661177ac2b5ebd26aabd25586d6",
    "stdin": "bbce1aa562696b19f2466499ba810851bf073661177ac2b5ebd26aabd25586d6",
    "scenario": "33f57e482f2d54b8ecbb43e57e71349b4f5388c17a25ed21b256168ae4b5f73f",
    "campaign": "1c6d4058f9bb74381ed5e3393ee81e82a6f35fa71e843e6f507d717372d268bf",
}
SERVICE_SUMMARIES = {
    "file": "2 response(s): 2 computed, 0 served from cache\n",
    "stdin": "2 response(s): 2 computed, 0 served from cache\n",
    "scenario": "4 response(s): 4 computed, 0 served from cache\n",
    "campaign": "4 response(s): 4 computed, 0 served from cache\n",
}


def service_argv(source):
    return {
        "file": ["schedule.jsonl"],
        "stdin": ["-"],
        "scenario": ["--scenario", SCENARIO, "--systems", "2", "--methods", "static", "gpiocp"],
        "campaign": ["--campaign", campaign_json()],
    }[source]


class TestServiceOutput:
    @pytest.mark.parametrize("source", sorted(SERVICE_OUTPUTS))
    def test_stdout_bytes_and_summary(self, workdir, source):
        stdin = schedule_lines() if source == "stdin" else None
        status, out, err = run_cli(service_main, service_argv(source), stdin=stdin)
        assert status == 0
        assert digest(out) == SERVICE_OUTPUTS[source]
        assert err == SERVICE_SUMMARIES[source]

    def test_output_file_holds_the_stdout_bytes(self, workdir):
        status, out, err = run_cli(service_main, ["schedule.jsonl", "-o", "out.jsonl"])
        assert (status, out) == (0, "")
        assert digest((workdir / "out.jsonl").read_text()) == SERVICE_OUTPUTS["file"]
        assert err == SERVICE_SUMMARIES["file"]

    def test_verbose_lines(self, workdir):
        status, _, err = run_cli(service_main, service_argv("scenario") + ["-v"])
        assert status == 0
        assert err == (
            "4 response(s): 4 computed, 0 served from cache\n"
            "schedule cache: 4 entries, 0 hits, 4 misses, 4 stores [backend: memory]\n"
            "memo caches: heuristic 0 hits / 2 misses, materialize 2 hits / 2 misses\n"
        )

    def test_warm_rerun_summary(self, workdir):
        argv = ["schedule.jsonl", "--cache-dir", "cache", "-v"]
        assert run_cli(service_main, argv)[0] == 0
        status, out, err = run_cli(service_main, argv)
        assert status == 0
        assert err == (
            "2 response(s): 0 computed, 2 served from cache\n"
            "schedule cache: 0 entries, 2 hits, 0 misses, 0 stores "
            "[backend: directory at cache]\n"
            "memo caches: (no activity)\n"
        )


RUNTIME_OUTPUTS = {
    "file": "d48630262ae73a34b12e8fe32d0038dcd6799f9c2bc9ab25e3d318464262a563",
    "stdin": "d48630262ae73a34b12e8fe32d0038dcd6799f9c2bc9ab25e3d318464262a563",
    "scenario": "b28fb45a471cf1efa5b9af58ad08cabdcacaa679630b261a4b07b86110fa56b2",
    "budget": "742f7bf62d1ca2052a448b81816b86fbb878e086ca848380ecee74905bd83cdd",
}
RUNTIME_SUMMARIES = {
    "file": "2 response(s): 2 simulated, 0 served from cache\n",
    "stdin": "2 response(s): 2 simulated, 0 served from cache\n",
    "scenario": "2 response(s): 2 simulated, 0 served from cache\n",
    "budget": "1 response(s): 1 simulated, 0 served from cache\n",
}


def runtime_argv(source):
    return {
        "file": ["sim.jsonl"],
        "stdin": ["-"],
        "scenario": [
            "--scenario", SCENARIO, "--methods", "static",
            "--execution-models", "dedicated-controller", "cpu-instigated",
        ],
        "budget": [
            "--scenario", SCENARIO, "--systems", "1", "--methods", "gpiocp",
            "--horizon", "120000", "--max-events", "200",
        ],
    }[source]


class TestRuntimeOutput:
    @pytest.mark.parametrize("source", sorted(RUNTIME_OUTPUTS))
    def test_stdout_bytes_and_summary(self, workdir, source):
        stdin = simulation_lines() if source == "stdin" else None
        status, out, err = run_cli(runtime_main, runtime_argv(source), stdin=stdin)
        assert status == 0
        assert digest(out) == RUNTIME_OUTPUTS[source]
        assert err == RUNTIME_SUMMARIES[source]

    def test_output_file_holds_the_stdout_bytes(self, workdir):
        status, out, err = run_cli(runtime_main, ["sim.jsonl", "-o", "out.jsonl"])
        assert (status, out) == (0, "")
        assert digest((workdir / "out.jsonl").read_text()) == RUNTIME_OUTPUTS["file"]
        assert err == RUNTIME_SUMMARIES["file"]

    def test_verbose_lines(self, workdir):
        status, _, err = run_cli(runtime_main, runtime_argv("scenario") + ["--verbose"])
        assert status == 0
        assert err == (
            "2 response(s): 2 simulated, 0 served from cache\n"
            "sim cache: 2 entries, 0 hits, 2 misses, 2 stores [backend: memory]\n"
            "schedule cache: 1 entries, 1 hits, 1 misses, 1 stores [backend: memory]\n"
            "memo caches: heuristic 0 hits / 1 misses, materialize 2 hits / 1 misses\n"
        )


SERVER_OUTPUTS = {
    "file": "e742c7dc87e7c7744b1beee8ad8bf8d831489ee93b7170826a9c091cdc40c57b",
    "file-warm": "a0264ffc5398ea620b093cb01cd9f251058822c07793ee435a9a7e4e79fe13d1",
    "scenario": "32da885130247915260056656cc75db5ba13b4eb4f31b458e87eb0f5e9db18b5",
    "scenario-warm": "49e9b20cb601025db19868aae457a24f026a3e4f8ee03737eee9c16a2407dfec",
}
SERVER_SUMMARIES = {
    "file": "4 response(s): 4 computed, 0 served from cache\n",
    "file-warm": "4 response(s): 0 computed, 4 served from cache\n",
    "scenario": "2 response(s): 2 computed, 0 served from cache\n",
    "scenario-warm": "2 response(s): 0 computed, 2 served from cache\n",
}


class TestServerRequestOutput:
    @pytest.mark.parametrize("source", ["file", "scenario"])
    def test_cold_stdout_and_warm_output_file(self, workdir, source):
        argv = {
            "file": ["mixed.jsonl"],
            "scenario": ["--scenario", SCENARIO, "--systems", "2", "--methods", "static"],
        }[source]
        with ThreadedServer(n_workers=1, port=0) as threaded:
            request = ["request", "--server", f"{threaded.host}:{threaded.port}", *argv]
            cold = run_cli(server_main, request)
            warm = run_cli(server_main, [*request, "-o", "out.jsonl"])
        status, out, err = cold
        assert status == 0
        assert digest(out) == SERVER_OUTPUTS[source]
        assert err == SERVER_SUMMARIES[source]
        status, out, err = warm
        assert (status, out) == (0, "")
        assert digest((workdir / "out.jsonl").read_text()) == SERVER_OUTPUTS[f"{source}-warm"]
        assert err == SERVER_SUMMARIES[f"{source}-warm"]


# -- error paths ---------------------------------------------------------------------

SERVICE = "python -m repro.service: error: "
RUNTIME = "python -m repro.runtime: error: "
SERVER = "python -m repro.server: error: "
BOTH_CACHES = ["--cache-dir", "d", "--cache-backend", "sqlite:path=c.db"]
SERVICE_ERRORS = {
    "no source": (
        [], 2, SERVICE + "provide exactly one of an input file, --scenario and --campaign"
    ),
    "two sources": (
        ["schedule.jsonl", "--scenario", SCENARIO],
        2,
        SERVICE + "provide exactly one of an input file, --scenario and --campaign",
    ),
    "scenario and campaign": (
        ["--scenario", SCENARIO, "--campaign", "{}"],
        2,
        SERVICE + "provide exactly one of an input file, --scenario and --campaign",
    ),
    "workers 0": (
        ["--scenario", SCENARIO, "--workers", "0"], 2, SERVICE + "--workers must be >= 1, got 0"
    ),
    "systems 0": (
        ["--scenario", SCENARIO, "--systems", "0"], 2, SERVICE + "--systems must be >= 1, got 0"
    ),
    "bad line": (
        ["bad.jsonl"],
        1,
        "bad.jsonl:4: invalid request: Expecting value: line 1 column 1 (char 0)",
    ),
    "incomplete line": (["incomplete.jsonl"], 1, "incomplete.jsonl:1: invalid request: 'spec'"),
    "cache dir and backend": (
        ["--scenario", SCENARIO, *BOTH_CACHES],
        2,
        SERVICE + "pass either --cache-dir or --cache-backend, not both",
    ),
    "bad cache backend": (
        ["--scenario", SCENARIO, "--cache-backend", "nosuch:x=1"],
        2,
        SERVICE + "--cache-backend: unknown cache backend 'nosuch' (available: directory, sqlite)",
    ),
}
RUNTIME_ERRORS = {
    "no source": ([], 2, RUNTIME + "provide exactly one of an input file and --scenario"),
    "two sources": (
        ["sim.jsonl", "--scenario", SCENARIO],
        2,
        RUNTIME + "provide exactly one of an input file and --scenario",
    ),
    "workers 0": (
        ["--scenario", SCENARIO, "--workers", "0"], 2, RUNTIME + "--workers must be >= 1, got 0"
    ),
    "systems 0": (
        ["--scenario", SCENARIO, "--systems", "0"], 2, RUNTIME + "--systems must be >= 1, got 0"
    ),
    "bad line": (
        ["bad.jsonl"],
        1,
        "bad.jsonl:1: invalid request: expected payload kind 'repro/sim-request', "
        "found 'repro/schedule-request'",
    ),
    "incomplete line": (
        ["sim-incomplete.jsonl"], 1, "sim-incomplete.jsonl:1: invalid request: 'scenario'"
    ),
    "cache dir and backend": (
        ["--scenario", SCENARIO, *BOTH_CACHES],
        2,
        RUNTIME + "pass either --cache-dir or --cache-backend, not both",
    ),
    "bad cache backend": (
        ["--scenario", SCENARIO, "--cache-backend", "nosuch:x=1"],
        2,
        RUNTIME + "--cache-backend: unknown cache backend 'nosuch' (available: directory, sqlite)",
    ),
}
SERVER_ERRORS = {
    "no source": (["request"], 2, SERVER + "provide exactly one of an input file and --scenario"),
    "two sources": (
        ["request", "mixed.jsonl", "--scenario", SCENARIO],
        2,
        SERVER + "provide exactly one of an input file and --scenario",
    ),
    "systems 0": (
        ["request", "--scenario", SCENARIO, "--systems", "0"],
        2,
        SERVER + "--systems must be >= 1, got 0",
    ),
    "bad address": (
        ["request", "--server", "nowhere", "mixed.jsonl"],
        2,
        SERVER + "--server: expected HOST:PORT, got 'nowhere'",
    ),
}
CLIS = {"service": service_main, "runtime": runtime_main, "server": server_main}
ERRORS = [
    (cli, name, *case)
    for cli, table in (
        ("service", SERVICE_ERRORS), ("runtime", RUNTIME_ERRORS), ("server", SERVER_ERRORS)
    )
    for name, case in table.items()
]


class TestErrorPaths:
    @pytest.mark.parametrize(
        "cli, name, argv, status, message", ERRORS, ids=[f"{e[0]}-{e[1]}" for e in ERRORS]
    )
    def test_status_and_message(self, workdir, cli, name, argv, status, message):
        got_status, out, err = run_cli(CLIS[cli], argv)
        assert (got_status, out) == (status, "")
        assert last_line(err) == message

    @pytest.mark.parametrize("cli", ["service", "runtime"])
    def test_bad_stdin_line(self, cli):
        status, out, err = run_cli(CLIS[cli], ["-"], stdin="\n[1, 2\n")
        assert (status, out) == (1, "")
        assert err == (
            "<stdin>:2: invalid request: Expecting ',' delimiter: line 1 column 6 (char 5)\n"
        )

    @pytest.mark.parametrize("cli", ["service", "runtime", "server"])
    def test_unknown_scenario(self, workdir, cli):
        argv = ["--scenario", "no-such-scenario"]
        if cli == "server":
            argv = ["request", *argv]
        status, out, err = run_cli(CLIS[cli], argv)
        assert (status, out) == (2, "")
        prog = {"service": "repro.service", "runtime": "repro.runtime", "server": "repro.server"}
        assert last_line(err) == (
            f"python -m {prog[cli]}: error: --scenario: \"unknown scenario "
            f"'no-such-scenario'; registered: {', '.join(available_scenarios())}\""
        )


# -- listings ------------------------------------------------------------------------

LISTINGS = {
    "methods": format_scheduler_listing,
    "scenarios": format_scenario_listing,
    "execution-models": format_execution_model_listing,
}


class TestListings:
    @pytest.mark.parametrize(
        "main, order",
        [
            (service_main, ("methods", "scenarios", "execution-models")),
            (runtime_main, ("execution-models", "methods", "scenarios")),
            (experiments_main, ("methods", "scenarios", "execution-models")),
        ],
        ids=["service", "runtime", "experiments"],
    )
    def test_combined_listing_order(self, main, order):
        expected = "".join(LISTINGS[name]() + "\n" for name in order)
        status, out, err = run_cli(main, [f"--list-{name}" for name in reversed(order)])
        assert (status, out, err) == (0, expected, "")
        for name in order:
            assert run_cli(main, [f"--list-{name}"]) == (0, LISTINGS[name]() + "\n", "")


# -- parsers -------------------------------------------------------------------------


def describe(parser: argparse.ArgumentParser, prefix: str = ""):
    """One sorted line per option: flags, action, and every attribute that is set."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows.extend(describe(sub, f"{prefix}{name} "))
            continue
        if isinstance(action, argparse._HelpAction):
            continue
        attributes = {
            "dest": action.dest,
            "default": action.default,
            "metavar": action.metavar,
            "nargs": action.nargs,
            "choices": None if action.choices is None else list(action.choices),
            "const": action.const,
            "type": getattr(action.type, "__name__", None),
        }
        flags = "/".join(action.option_strings) or f"<{action.dest}>"
        rows.append(
            f"{prefix}{flags} {type(action).__name__.strip('_')}"
            + "".join(f" {key}={value!r}" for key, value in attributes.items() if value is not None)
        )
    return sorted(rows)


PARSERS = {
    "service": (
        service_parser,
        [
            "--cache-backend StoreAction dest='cache_backend' metavar='SPEC'",
            "--cache-dir StoreAction dest='cache_dir' metavar='DIR'",
            "--campaign StoreAction dest='campaign' metavar='SPEC_OR_FILE'",
            "--list-execution-models StoreTrueAction dest='list_execution_models' default=False nargs=0 const=True",
            "--list-methods StoreTrueAction dest='list_methods' default=False nargs=0 const=True",
            "--list-scenarios StoreTrueAction dest='list_scenarios' default=False nargs=0 const=True",
            "--log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "--methods StoreAction dest='methods' default=['static'] metavar='SPEC' nargs='+'",
            "--metrics-out StoreAction dest='metrics_out' metavar='FILE'",
            "--profile StoreAction dest='profile' metavar='PSTATS' nargs='?' const='repro-profile.pstats'",
            "--scenario StoreAction dest='scenario' metavar='NAME_OR_JSON'",
            "--systems StoreAction dest='systems' default=1 metavar='N' type='int'",
            "--workers StoreAction dest='workers' default=1 metavar='N' type='int'",
            "-o/--output StoreAction dest='output' metavar='FILE'",
            "-v/--verbose StoreTrueAction dest='verbose' default=False nargs=0 const=True",
            "<input> StoreAction dest='input' nargs='?'",
        ],
    ),
    "runtime": (
        runtime_parser,
        [
            "--cache-backend StoreAction dest='cache_backend' metavar='SPEC'",
            "--cache-dir StoreAction dest='cache_dir' metavar='DIR'",
            "--execution-models StoreAction dest='execution_models' default=['dedicated-controller'] metavar='MODEL' nargs='+'",
            "--horizon StoreAction dest='horizon' metavar='T' type='int'",
            "--list-execution-models StoreTrueAction dest='list_execution_models' default=False nargs=0 const=True",
            "--list-methods StoreTrueAction dest='list_methods' default=False nargs=0 const=True",
            "--list-scenarios StoreTrueAction dest='list_scenarios' default=False nargs=0 const=True",
            "--log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "--max-events StoreAction dest='max_events' metavar='N' type='int'",
            "--methods StoreAction dest='methods' default=['static'] metavar='SPEC' nargs='+'",
            "--metrics-out StoreAction dest='metrics_out' metavar='FILE'",
            "--scenario StoreAction dest='scenario' metavar='NAME_OR_JSON'",
            "--systems StoreAction dest='systems' default=1 metavar='N' type='int'",
            "--workers StoreAction dest='workers' default=1 metavar='N' type='int'",
            "-o/--output StoreAction dest='output' metavar='FILE'",
            "-v/--verbose StoreTrueAction dest='verbose' default=False nargs=0 const=True",
            "<input> StoreAction dest='input' nargs='?'",
        ],
    ),
    "server": (
        server_parser,
        [
            "health --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "health --server StoreAction dest='server' default='127.0.0.1:7341' metavar='HOST:PORT'",
            "metrics --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "metrics --server StoreAction dest='server' default='127.0.0.1:7341' metavar='HOST:PORT'",
            "request --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "request --methods StoreAction dest='methods' default=['static'] metavar='SPEC' nargs='+'",
            "request --scenario StoreAction dest='scenario' metavar='NAME_OR_JSON'",
            "request --server StoreAction dest='server' default='127.0.0.1:7341' metavar='HOST:PORT'",
            "request --systems StoreAction dest='systems' default=1 metavar='N' type='int'",
            "request --window StoreAction dest='window' default=32 metavar='N' type='int'",
            "request -o/--output StoreAction dest='output' metavar='FILE'",
            "request <input> StoreAction dest='input' nargs='?'",
            "serve --cache-backend StoreAction dest='cache_backend' metavar='SPEC'",
            "serve --cache-dir StoreAction dest='cache_dir' metavar='DIR'",
            "serve --host StoreAction dest='host' default='127.0.0.1'",
            "serve --log-level StoreAction dest='log_level' default='info' choices=['debug', 'info', 'warning', 'error', 'off']",
            "serve --max-line-bytes StoreAction dest='max_line_bytes' default=33554432 metavar='N' type='int'",
            "serve --max-queue StoreAction dest='max_queue' default=64 metavar='N' type='int'",
            "serve --metrics-out StoreAction dest='metrics_out' metavar='FILE'",
            "serve --no-remote-shutdown StoreTrueAction dest='no_remote_shutdown' default=False nargs=0 const=True",
            "serve --port StoreAction dest='port' default=7341 type='int'",
            "serve --port-file StoreAction dest='port_file' metavar='FILE'",
            "serve --workers StoreAction dest='workers' default=1 metavar='N' type='int'",
            "shutdown --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "shutdown --server StoreAction dest='server' default='127.0.0.1:7341' metavar='HOST:PORT'",
            "stats --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "stats --server StoreAction dest='server' default='127.0.0.1:7341' metavar='HOST:PORT'",
        ],
    ),
    "experiments": (
        experiments_parser,
        [
            "--artifact-dir StoreAction dest='artifact_dir' metavar='DIR'",
            "--campaign StoreAction dest='campaign' metavar='SPEC_OR_FILE'",
            "--list-execution-models StoreTrueAction dest='list_execution_models' default=False nargs=0 const=True",
            "--list-methods StoreTrueAction dest='list_methods' default=False nargs=0 const=True",
            "--list-scenarios StoreTrueAction dest='list_scenarios' default=False nargs=0 const=True",
            "--log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "--methods StoreAction dest='methods' metavar='SPEC' nargs='+'",
            "--metrics-out StoreAction dest='metrics_out' metavar='FILE'",
            "--no-ga StoreTrueAction dest='no_ga' default=False nargs=0 const=True",
            "--profile StoreAction dest='profile' metavar='PSTATS' nargs='?' const='repro-profile.pstats'",
            "--scale StoreAction dest='scale' default='quick' choices=['paper', 'quick', 'smoke']",
            "--scenario StoreAction dest='scenario' metavar='NAME_OR_JSON'",
            "--workers StoreAction dest='workers' default=1 metavar='N' type='int'",
            "<figure> StoreAction dest='figure' nargs='?' choices=['fig5', 'fig6', 'fig7', 'table1', 'all']",
        ],
    ),
    "campaign": (
        campaign_parser,
        [
            "--list StoreTrueAction dest='list' default=False nargs=0 const=True",
            "--list-execution-models StoreTrueAction dest='list_execution_models' default=False nargs=0 const=True",
            "--list-methods StoreTrueAction dest='list_methods' default=False nargs=0 const=True",
            "--list-scenarios StoreTrueAction dest='list_scenarios' default=False nargs=0 const=True",
            "merge --artifact-dir StoreAction dest='artifact_dir' metavar='DIR'",
            "merge --key StoreAction dest='key' metavar='CONTENT_KEY'",
            "merge --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "merge <spec> StoreAction dest='spec' nargs='?'",
            "report --artifact-dir StoreAction dest='artifact_dir' metavar='DIR'",
            "report --format StoreAction dest='report_format' default='table' choices=['table', 'md', 'json']",
            "report --key StoreAction dest='key' metavar='CONTENT_KEY'",
            "report --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "report --timings StoreTrueAction dest='timings' default=False nargs=0 const=True",
            "report -o/--output StoreAction dest='output' metavar='FILE'",
            "report <spec> StoreAction dest='spec' nargs='?'",
            "run --artifact-dir StoreAction dest='artifact_dir' metavar='DIR'",
            "run --cache-backend StoreAction dest='cache_backend' metavar='SPEC'",
            "run --cache-dir StoreAction dest='cache_dir' metavar='DIR'",
            "run --description StoreAction dest='description'",
            "run --execution-models StoreAction dest='execution_models' metavar='MODEL' nargs='+'",
            "run --log-level StoreAction dest='log_level' default='off' choices=['debug', 'info', 'warning', 'error', 'off']",
            "run --max-cells StoreAction dest='max_cells' metavar='N' type='int'",
            "run --methods StoreAction dest='methods' metavar='SPEC' nargs='+'",
            "run --metrics StoreAction dest='metrics' nargs='+' choices=['schedulable', 'psi', 'upsilon', 'best_psi', 'best_upsilon', 'response_time']",
            "run --metrics-out StoreAction dest='metrics_out' metavar='FILE'",
            "run --name StoreAction dest='name'",
            "run --replications StoreAction dest='replications' metavar='N' type='int'",
            "run --report StoreAction dest='report_format' default='table' choices=['table', 'md', 'json', 'none']",
            "run --resume StoreTrueAction dest='resume' default=False nargs=0 const=True",
            "run --scenarios StoreAction dest='scenarios' metavar='NAME_OR_JSON' nargs='+'",
            "run --server StoreAction dest='server' metavar='HOST:PORT'",
            "run --shard StoreAction dest='shard' metavar='I/N'",
            "run --systems StoreAction dest='systems' metavar='N' type='int'",
            "run --timings StoreTrueAction dest='timings' default=False nargs=0 const=True",
            "run --utilisations StoreAction dest='utilisations' metavar='U' nargs='+' type='float'",
            "run --workers StoreAction dest='workers' default=1 metavar='N' type='int'",
            "run -o/--output StoreAction dest='output' metavar='FILE'",
            "run <spec> StoreAction dest='spec' nargs='?'",
        ],
    ),
}


class TestParsers:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    def test_options(self, name):
        build, expected = PARSERS[name]
        assert describe(build()) == expected
