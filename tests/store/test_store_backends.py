"""repro.store backends: round-trips, first-write-wins, specs, maintenance."""

import json
import sqlite3
import time

import pytest

from repro.store import (
    SCHEDULE_CACHE_SUBDIR,
    SIM_CACHE_SUBDIR,
    DirectoryBackend,
    SqliteBackend,
    backend_names,
    create_backend,
    format_backend_listing,
    parse_backend_spec,
    schedule_backend,
    simulation_backend,
)

PAYLOAD = {"kind": "repro/test-entry", "version": 1, "data": {"answer": 42}}
OTHER = {"kind": "repro/test-entry", "version": 1, "data": {"answer": 99}}


@pytest.fixture(params=["directory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "directory":
        with DirectoryBackend(tmp_path / "store") as instance:
            yield instance
    else:
        with SqliteBackend(tmp_path / "store.db") as instance:
            yield instance


class TestBackendContract:
    def test_round_trip(self, backend):
        assert backend.get("aa" * 8) is None
        backend.put("aa" * 8, PAYLOAD)
        assert backend.get("aa" * 8) == PAYLOAD

    def test_rewrite_never_tears(self, backend):
        # Real writers of one key always hold identical content-addressed
        # payloads; whichever write lands, the entry must stay complete.
        backend.put("aa" * 8, PAYLOAD)
        backend.put("aa" * 8, OTHER)
        assert backend.get("aa" * 8) in (PAYLOAD, OTHER)
        assert len(backend) == 1

    def test_keys_sorted_len_contains(self, backend):
        for key in ("cc" * 8, "aa" * 8, "bb" * 8):
            backend.put(key, PAYLOAD)
        assert backend.keys() == sorted(["aa" * 8, "bb" * 8, "cc" * 8])
        assert len(backend) == 3
        assert ("aa" * 8) in backend
        assert ("dd" * 8) not in backend

    def test_delete(self, backend):
        backend.put("aa" * 8, PAYLOAD)
        assert backend.delete("aa" * 8) is True
        assert backend.delete("aa" * 8) is False
        assert backend.get("aa" * 8) is None

    def test_stats_shape(self, backend):
        backend.put("aa" * 8, PAYLOAD)
        stats = backend.stats()
        assert stats["name"] == backend.name
        assert stats["entries"] == 1
        assert stats["size_bytes"] > 0
        assert stats["location"]

    def test_kind_counts(self, backend):
        backend.put("aa" * 8, PAYLOAD)
        backend.put("bb" * 8, {"kind": "repro/other", "version": 1, "data": {}})
        assert backend.kind_counts() == {"repro/test-entry": 1, "repro/other": 1}

    def test_prune_explicit_keys(self, backend):
        backend.put("aa" * 8, PAYLOAD)
        backend.put("bb" * 8, PAYLOAD)
        assert backend.prune(["aa" * 8, "ee" * 8]) == 1
        assert backend.keys() == ["bb" * 8]

    def test_spec_reopens_same_store(self, backend):
        backend.put("aa" * 8, PAYLOAD)
        spec = backend.spec()
        assert spec is not None
        with create_backend(spec) as reopened:
            assert reopened.get("aa" * 8) == PAYLOAD


class TestCorruptEntries:
    def test_directory_corrupt_entry_is_a_miss_and_prunable(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "store")
        backend.put("aa" * 8, PAYLOAD)
        (tmp_path / "store" / ("bb" * 8 + ".json")).write_text("{not json")
        assert backend.get("bb" * 8) is None
        assert len(backend) == 2  # corrupt entries still occupy a key
        assert backend.prune() == 1  # default prune: corrupt only
        assert backend.keys() == ["aa" * 8]

    def test_sqlite_corrupt_entry_is_a_miss_and_prunable(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store.db")
        backend.put("aa" * 8, PAYLOAD)
        backend._connection.execute(
            "INSERT INTO entries (key, kind, version, payload) VALUES (?, '', 0, ?)",
            ("bb" * 8, "{not json"),
        )
        assert backend.get("bb" * 8) is None
        assert backend.prune() == 1
        assert backend.keys() == ["aa" * 8]


class TestSqliteSpecifics:
    def test_first_write_wins_transactionally(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store.db")
        backend.put("aa" * 8, PAYLOAD)
        backend.put("aa" * 8, OTHER)
        assert backend.get("aa" * 8) == PAYLOAD

    def test_invalid_synchronous_mode(self, tmp_path):
        with pytest.raises(ValueError, match="synchronous"):
            SqliteBackend(tmp_path / "store.db", synchronous="sometimes")

    def test_spec_includes_only_non_default_options(self, tmp_path):
        plain = SqliteBackend(tmp_path / "a.db")
        assert plain.spec() == f"sqlite:path={tmp_path / 'a.db'}"
        tuned = SqliteBackend(tmp_path / "b.db", timeout=5.0, synchronous="full")
        spec = tuned.spec()
        assert "timeout=5" in spec and "synchronous=full" in spec

    def test_one_file_survives_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        with SqliteBackend(path) as backend:
            backend.put("aa" * 8, PAYLOAD)
        with SqliteBackend(path) as backend:
            assert backend.get("aa" * 8) == PAYLOAD


class FailingConnection:
    """A real connection whose statements raise ``OperationalError(message)``
    whenever ``error(statement)`` returns a message, as ``database is locked``
    does when other processes open the same fresh file."""

    def __init__(self, connection, error):
        self.connection = connection
        self.error = error
        self.closed = False

    def execute(self, statement, *args):
        message = self.error(statement)
        if message:
            raise sqlite3.OperationalError(message)
        return self.connection.execute(statement, *args)

    def close(self):
        self.closed = True
        self.connection.close()


@pytest.fixture
def failing_connect(monkeypatch):
    """``install(error)`` makes ``sqlite3.connect`` hand out
    :class:`FailingConnection` s, collected in ``install.made``."""
    connect = sqlite3.connect

    def install(error):
        def fake(*args, **kwargs):
            install.made.append(FailingConnection(connect(*args, **kwargs), error))
            return install.made[-1]

        monkeypatch.setattr(sqlite3, "connect", fake)

    install.made = []
    return install


def on_journal_mode(message):
    return lambda statement: message if statement.startswith("PRAGMA journal_mode") else None


class TestSqliteOpenRetry:
    def test_a_first_set_up_statement_that_meets_a_lock_still_opens(
        self, tmp_path, failing_connect
    ):
        attempts = []

        def error(statement):
            attempts.append(statement)
            return "database is locked" if len(attempts) == 1 else None

        failing_connect(error)
        with SqliteBackend(tmp_path / "store.db") as backend:
            backend.put("aa" * 8, PAYLOAD)
            assert backend.get("aa" * 8) == PAYLOAD
        assert attempts[:2] == ["PRAGMA journal_mode=WAL"] * 2

    def test_a_lock_that_outlasts_the_timeout_fails_and_closes(
        self, tmp_path, failing_connect
    ):
        failing_connect(on_journal_mode("database is locked"))
        started = time.monotonic()
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            SqliteBackend(tmp_path / "store.db", timeout=0.2)
        assert time.monotonic() - started >= 0.2
        assert [connection.closed for connection in failing_connect.made] == [True]

    def test_other_errors_fail_at_once(self, tmp_path, failing_connect):
        failing_connect(on_journal_mode("disk I/O error"))
        started = time.monotonic()
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            SqliteBackend(tmp_path / "store.db", timeout=5.0)
        assert time.monotonic() - started < 1.0
        assert [connection.closed for connection in failing_connect.made] == [True]


class TestRegistry:
    def test_backend_names_and_listing(self):
        names = backend_names()
        assert "directory" in names and "sqlite" in names
        listing = format_backend_listing()
        assert "directory" in listing and "sqlite" in listing

    def test_parse_full_spec(self):
        name, options = parse_backend_spec("sqlite:path=cache.db,timeout=5")
        assert name == "sqlite"
        assert options == {"path": "cache.db", "timeout": 5}

    def test_bare_path_shortcuts(self):
        assert parse_backend_spec("cache.db")[0] == "sqlite"
        assert parse_backend_spec("warm.sqlite3")[0] == "sqlite"
        assert parse_backend_spec("my-cache")[0] == "directory"

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            create_backend("redis:host=nope")

    def test_missing_required_option_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="root"):
            create_backend("directory:wrong=1")
        with pytest.raises(ValueError, match="path"):
            create_backend("sqlite:wrong=1")

    def test_directory_subdir_namespaces(self, tmp_path):
        spec = f"directory:root={tmp_path / 'cache'}"
        with schedule_backend(spec) as schedules:
            assert schedules.root == tmp_path / "cache" / SCHEDULE_CACHE_SUBDIR
        with simulation_backend(spec) as sims:
            assert sims.root == tmp_path / "cache" / SIM_CACHE_SUBDIR

    def test_sqlite_ignores_subdir(self, tmp_path):
        spec = f"sqlite:path={tmp_path / 'cache.db'}"
        with schedule_backend(spec) as schedules, simulation_backend(spec) as sims:
            assert schedules.path == sims.path == tmp_path / "cache.db"

    def test_live_backend_passes_through(self, tmp_path):
        live = DirectoryBackend(tmp_path / "store")
        assert create_backend(live) is live
