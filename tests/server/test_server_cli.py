"""CLI tests: `python -m repro.server` request path vs the batch CLIs.

The acceptance bar is byte-parity: a batch of requests sent through a daemon
must produce the same JSONL lines as `python -m repro.service` /
`python -m repro.runtime` given the same requests — cold modulo wall-clock
timing, warm identically.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server import ThreadedServer
from repro.server.__main__ import main as server_main
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"
REPO_ROOT = Path(__file__).resolve().parents[2]


def normalize_line(line: str) -> str:
    payload = json.loads(line)
    payload["data"]["timing"]["elapsed_s"] = 0.0
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def threaded_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("server-cache")
    with ThreadedServer(n_workers=1, port=0, cache_dir=cache_dir) as threaded:
        yield threaded


def run_request_cli(threaded, capsys, *arguments) -> tuple:
    code = server_main(
        [
            "request",
            "--server",
            f"{threaded.host}:{threaded.port}",
            *arguments,
        ]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRequestCli:
    def test_scenario_mode_matches_batch_cli_cold(self, threaded_server, capsys, tmp_path):
        code, server_out, server_err = run_request_cli(
            threaded_server, capsys, "--scenario", SCENARIO, "--systems", "2"
        )
        assert code == 0
        assert service_main(["--scenario", SCENARIO, "--systems", "2"]) == 0
        batch = capsys.readouterr()
        server_lines = server_out.splitlines()
        batch_lines = batch.out.splitlines()
        assert len(server_lines) == len(batch_lines) == 2
        assert [normalize_line(line) for line in server_lines] == [
            normalize_line(line) for line in batch_lines
        ]
        assert "2 response(s)" in server_err

    def test_warm_resend_is_byte_identical_and_recomputes_nothing(
        self, threaded_server, capsys, tmp_path
    ):
        cache_dir = tmp_path / "batch-cache"
        arguments = ["--scenario", SCENARIO, "--methods", "gpiocp", "--systems", "2"]
        code, first_out, _ = run_request_cli(threaded_server, capsys, *arguments)
        assert code == 0
        code, second_out, second_err = run_request_cli(threaded_server, capsys, *arguments)
        assert code == 0
        # Warm responses all come from cache...
        assert "0 computed, 2 served from cache" in second_err
        for line in second_out.splitlines():
            payload = json.loads(line)
            assert payload["data"]["cache"]["status"] == "hit"
            assert payload["data"]["timing"]["elapsed_s"] == 0.0
        # ...and are byte-identical to a warm batch-CLI run of the same batch.
        assert service_main([*arguments, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert service_main([*arguments, "--cache-dir", str(cache_dir)]) == 0
        warm_batch = capsys.readouterr()
        assert second_out == warm_batch.out

    def test_request_file_mode_mixed_kinds(self, threaded_server, capsys, tmp_path):
        from repro.runtime.__main__ import scenario_requests as sim_requests
        from repro.service.__main__ import scenario_requests as schedule_requests

        mixed = [
            schedule_requests(SCENARIO, ["static"], 1)[0],
            sim_requests(SCENARIO, ["static"], ["controller"], 1)[0],
        ]
        request_file = tmp_path / "mixed.jsonl"
        request_file.write_text(
            "".join(json.dumps(request.to_dict(), sort_keys=True) + "\n" for request in mixed)
        )
        output_file = tmp_path / "out.jsonl"
        code, _, _ = run_request_cli(
            threaded_server, capsys, str(request_file), "-o", str(output_file)
        )
        assert code == 0
        answers = [
            json.loads(line) for line in output_file.read_text().splitlines()
        ]
        assert [answer["kind"] for answer in answers] == [
            "repro/schedule-response",
            "repro/sim-response",
        ]
        # Answers come back in input order with the requests' ids.
        assert [answer["data"]["id"] for answer in answers] == [
            request.request_id for request in mixed
        ]

    def test_invalid_input_line_fails_cleanly(self, threaded_server, capsys, tmp_path):
        request_file = tmp_path / "bad.jsonl"
        request_file.write_text("this is not json\n")
        with pytest.raises(SystemExit):
            run_request_cli(threaded_server, capsys, str(request_file))

    def test_requires_exactly_one_input_source(self, threaded_server, capsys):
        with pytest.raises(SystemExit):
            server_main(
                ["request", "--server", f"{threaded_server.host}:{threaded_server.port}"]
            )

    def test_bad_server_address_rejected(self, capsys):
        with pytest.raises(SystemExit):
            server_main(["request", "--server", "nonsense", "--scenario", SCENARIO])


class TestOneShotOps:
    def test_stats_and_health(self, threaded_server, capsys):
        address = f"{threaded_server.host}:{threaded_server.port}"
        assert server_main(["health", "--server", address]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"
        assert server_main(["stats", "--server", address]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["server"]["n_workers"] == 1
        assert "schedule" in stats and "simulation" in stats


class TestServeSubprocess:
    """End-to-end over a real `python -m repro.server serve` process."""

    def test_serve_request_warm_shutdown(self, tmp_path):
        port_file = tmp_path / "port"
        cache_dir = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--cache-dir",
                str(cache_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                assert daemon.poll() is None, daemon.stderr.read()
                time.sleep(0.05)
            address = f"127.0.0.1:{int(port_file.read_text())}"

            def request_batch():
                return subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "repro.server",
                        "request",
                        "--server",
                        address,
                        "--scenario",
                        SCENARIO,
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )

            cold = request_batch()
            assert cold.returncode == 0, cold.stderr
            assert "1 computed" in cold.stderr
            warm = request_batch()
            assert warm.returncode == 0, warm.stderr
            assert "0 computed, 1 served from cache" in warm.stderr
            # The persistent cache reached disk in the batch CLIs' layout.
            assert list((cache_dir / "schedules").glob("*.json"))

            shutdown = subprocess.run(
                [sys.executable, "-m", "repro.server", "shutdown", "--server", address],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert shutdown.returncode == 0, shutdown.stderr
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()
            daemon.stdout.close()
            daemon.stderr.close()
