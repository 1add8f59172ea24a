"""``python -m repro.server request`` fails with one stderr line, never a traceback.

A line the client cannot route stops the CLI before anything is sent, with
the batch CLIs' ``source:line: invalid request: …`` message.  An error answer
from the daemon, or no daemon at the address, becomes one stderr line naming
the address, and exit status 1.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import ThreadedServer
from repro.server.__main__ import main as server_main
from repro.service import ScheduleRequest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO = "short-hyperperiod"


def good_line() -> str:
    return ScheduleRequest(scenario=SCENARIO, spec="static", request_id="ok").to_json()


def unknown_scheduler_line() -> str:
    payload = ScheduleRequest(scenario=SCENARIO, spec="static", request_id="bad").to_dict()
    payload["data"]["spec"] = {"name": "no-such-scheduler", "options": {}}
    return json.dumps(payload)


@pytest.fixture(scope="module")
def threaded_server():
    with ThreadedServer(n_workers=1, port=0) as threaded:
        yield threaded


def request(threaded, path):
    return server_main(["request", "--server", f"{threaded.host}:{threaded.port}", str(path)])


class TestLinesTheClientRefuses:
    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"kind": "nope", "version": 1, "data": {}}',
                "invalid request: cannot send envelope of kind 'nope' to the server "
                "(expected one of repro/schedule-request, repro/sim-request)",
            ),
            ("[1, 2]", "invalid request: cannot send envelope of kind None to the server"),
            ("not json", "invalid request: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["unknown-kind", "not-an-object", "not-json"],
    )
    def test_named_by_source_and_line_before_sending(
        self, threaded_server, tmp_path, line, message
    ):
        path = tmp_path / "requests.jsonl"
        path.write_text(f"{good_line()}\n\n{line}\n")
        connections = threaded_server.server.connections_total
        with pytest.raises(SystemExit) as stop:
            request(threaded_server, path)
        assert stop.value.code.startswith(f"{path}:3: {message}")
        # The good first line was not sent either: no connection was opened.
        assert threaded_server.server.connections_total == connections


class TestDaemonErrorAnswers:
    def test_unknown_scheduler_is_one_line(self, threaded_server, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(f"{good_line()}\n{unknown_scheduler_line()}\n")
        address = f"{threaded_server.host}:{threaded_server.port}"
        with pytest.raises(SystemExit) as stop:
            request(threaded_server, path)
        assert stop.value.code.startswith(f"{address}: invalid-request: ")
        assert "unknown scheduler 'no-such-scheduler'" in stop.value.code
        assert "\n" not in stop.value.code

    def test_exit_status_and_stderr_of_the_process(self, threaded_server, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(unknown_scheduler_line() + "\n")
        address = f"{threaded_server.host}:{threaded_server.port}"
        done = subprocess.run(
            [sys.executable, "-m", "repro.server", "request", "--server", address, str(path)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith(f"{address}: invalid-request: ")
        assert "Traceback" not in done.stderr

    def test_no_daemon_at_the_address(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        path = tmp_path / "requests.jsonl"
        path.write_text(good_line() + "\n")
        with pytest.raises(SystemExit) as stop:
            server_main(["request", "--server", f"127.0.0.1:{port}", str(path)])
        assert stop.value.code.startswith(f"127.0.0.1:{port}: ")
        assert "\n" not in stop.value.code


class TestWindow:
    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_below_one_is_a_usage_error_before_connecting(self, tmp_path, capsys, window):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        path = tmp_path / "requests.jsonl"
        path.write_text(good_line() + "\n")
        with pytest.raises(SystemExit) as stop:
            server_main(["request", "--server", f"127.0.0.1:{port}", "--window", window, str(path)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"error: --window must be >= 1, got {window}\n")
