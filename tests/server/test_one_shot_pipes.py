"""One-shot CLIs whose reader has gone exit 1 with nothing on stderr.

Each command runs in a subprocess whose stdout is a pipe with its read end
closed before the process starts, as in ``python -m repro.store stats x.db
| true``: the first write fails with ``EPIPE``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import ThreadedServer
from repro.store.registry import create_backend

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_without_reader(*args: str) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.fixture(scope="module")
def daemon_address():
    with ThreadedServer(n_workers=1, port=0) as threaded:
        yield f"{threaded.host}:{threaded.port}"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipes") / "cache.db"
    backend = create_backend(f"sqlite:path={path}")
    for index in range(3):
        backend.put(f"key-{index}", {"kind": "repro/test-entry", "version": 1, "data": {}})
    backend.close()
    return str(path)


@pytest.mark.parametrize("command", ["stats", "health", "metrics"])
def test_server_one_shot(daemon_address, command):
    done = run_without_reader("repro.server", command, "--server", daemon_address)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("command", ["stats", "ls"])
def test_store(store, command):
    done = run_without_reader("repro.store", command, store)
    assert (done.returncode, done.stderr) == (1, b"")
