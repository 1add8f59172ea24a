"""Projected reads: ``get_many(keys, omit=paths)`` leaves JSON paths out.

A warm campaign journals a few scalars per cell, so its lookups ask the
store to leave each payload's mapping fields (``per_device``, ``trace``) out
of what it decodes.  These tests hold the projected read to the full read
with the paths deleted afterwards, on every backend and through both of
SQLite's fallbacks, and hold the caches and the services to answering a
later full lookup in full.
"""

import json
import math
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.store.backends as backends
from repro.campaign import build_campaign
from repro.campaign.runner import CampaignRunner
from repro.core.serialization import PayloadVersionError, canonical_json
from repro.obs.metrics import REQUESTS_TOTAL
from repro.runtime.service import SimulationCache
from repro.scenario import Scenario, WorkloadSpec
from repro.service import SchedulingService
from repro.service.cache import CACHE_ENTRY_KIND, ScheduleCache
from repro.service.core import ContentAddressedService
from repro.service.messages import ScheduleRequest
from repro.store import DirectoryBackend, SqliteBackend
from repro.taskgen import GeneratorConfig

PER_DEVICE = "$.data.result.per_device"
TRACE = "$.data.result.trace"
#: Paths a read may omit: the two mapping fields, another present field,
#: and paths to a missing key and through a non-object, which remove nothing.
OMITTABLE = [PER_DEVICE, TRACE, "$.data.result.absent", "$.data.key", "$.kind.deeper"]

#: Floats whose text a projection must hand back unchanged.
EDGE_FLOATS = [
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1e22,
    0.30000000000000004,
    math.nan,
    math.inf,
    -math.inf,
]

scalars = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=6),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
results = st.one_of(
    st.fixed_dictionaries(
        {"psi": st.sampled_from(EDGE_FLOATS), "value": scalars, "name": st.text(max_size=4)},
        optional={
            "per_device": st.dictionaries(st.text(max_size=4), values, max_size=3),
            "trace": st.dictionaries(st.text(max_size=4), values, max_size=3),
        },
    ),
    values,  # a result that is not an object: the paths through it remove nothing
)
payloads = st.builds(
    lambda kind, key, result: {"kind": kind, "version": 1, "data": {"key": key, "result": result}},
    st.sampled_from([CACHE_ENTRY_KIND, "other", 3]),
    st.text(max_size=4),
    results,
)


def json5_remove(text, *paths):
    """``json_remove`` as SQLite 3.42 and later run it on JSON5 input: it
    reads ``NaN`` and writes ``null`` back."""

    def canonical(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        if isinstance(value, dict):
            return {name: canonical(item) for name, item in value.items()}
        if isinstance(value, list):
            return [canonical(item) for item in value]
        return value

    payload = backends.omit_paths(canonical(json.loads(text)), backends.omit_path_keys(paths))
    return json.dumps(payload, separators=(",", ":"))


def failing_remove(*_args):
    raise RuntimeError("json_remove unavailable")


def open_backend(variant: str, root: Path):
    """A fresh backend of ``variant`` under ``root``."""
    if variant == "directory":
        return DirectoryBackend(root / "d")
    backend = SqliteBackend(root / "c.db")
    if variant == "sqlite-fallback":
        # Every projection raises, as it would without SQLite's JSON functions.
        backend._connection.create_function("json_remove", -1, failing_remove)
    elif variant == "sqlite-json5":
        # The projection a JSON5-reading SQLite needs, here on a stand-in.
        backend._CHECK_STRICT_JSON = True
        backend._connection.create_function("json_remove", -1, json5_remove)
    return backend


def store_corrupt(backend, key: str, text: str) -> None:
    if isinstance(backend, DirectoryBackend):
        (backend.root / f"{key}.json").write_text(text, encoding="utf-8")
    else:
        backend._connection.execute(
            "INSERT INTO entries (key, payload) VALUES (?, ?)", (key, text)
        )


def trimmed(payload, omit):
    return backends.omit_paths(json.loads(canonical_json(payload)), backends.omit_path_keys(omit))


def has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(has_nan(item) for item in value.values())
    if isinstance(value, list):
        return any(has_nan(item) for item in value)
    return False


VARIANTS = ["directory", "sqlite", "sqlite-fallback", "sqlite-json5"]


class TestProjectedReadProperty:
    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=40, deadline=None)
    @given(
        stored=st.lists(payloads, min_size=1, max_size=5),
        omit=st.lists(st.sampled_from(OMITTABLE), max_size=3, unique=True),
        corrupt=st.sets(st.integers(min_value=0, max_value=4), max_size=2),
        query_vars=st.sampled_from([3, 4, 500]),
    )
    def test_projection_equals_full_read_with_paths_deleted(
        self, variant, stored, omit, corrupt, query_vars
    ):
        keys = [f"{index:016x}" for index in range(len(stored))]
        with tempfile.TemporaryDirectory() as root:
            backend = open_backend(variant, Path(root))
            # Small chunks put corrupt and good rows into several SELECTs.
            backend._MAX_QUERY_VARS = query_vars
            try:
                good = [
                    (key, payload)
                    for index, (key, payload) in enumerate(zip(keys, stored))
                    if index not in corrupt
                ]
                backend.put_many(good)
                for index in sorted(corrupt):
                    if index < len(keys):
                        store_corrupt(backend, keys[index], canonical_json(stored[index])[:-1])
                asked = keys + ["f" * 16]
                full = backend.get_many(asked)
                projected = backend.get_many(asked, omit=omit)
            finally:
                backend.close()
        assert sorted(projected) == sorted(full) == sorted(key for key, _ in good)
        for key, payload in good:
            want = trimmed(full[key], omit)
            assert repr(projected[key]) == repr(want) == repr(trimmed(payload, omit))
            assert projected[key] == want or has_nan(want)


class TestProjectedReadEdges:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_omit_is_a_full_read(self, variant, tmp_path):
        backend = open_backend(variant, tmp_path)
        payload = {"kind": "k", "data": {"result": {"per_device": {"d": 1}}}}
        backend.put("a" * 16, payload)
        assert backend.get_many(["a" * 16], omit=()) == {"a" * 16: payload}
        backend.close()

    @pytest.mark.parametrize("path", ["data.result", "$", "$.a[0]", '$."a.b"', "$..a"])
    @pytest.mark.parametrize("variant", ["directory", "sqlite"])
    def test_unsupported_paths_are_refused(self, variant, path, tmp_path):
        backend = open_backend(variant, tmp_path)
        with pytest.raises(ValueError, match="unsupported JSON path"):
            backend.get_many(["a" * 16], omit=[path])
        backend.close()

    def test_every_select_binds_at_most_500_variables(self, tmp_path):
        backend = SqliteBackend(tmp_path / "c.db")
        payload = {"kind": "k", "data": {"result": {"trace": {}}}}
        items = [(f"{index:016x}", payload) for index in range(1200)]
        backend.put_many(items)
        connection = backend._connection
        sizes = []

        def execute(sql, params=()):
            sizes.append(len(params))
            return connection.execute(sql, params)

        backend._connection = types.SimpleNamespace(execute=execute, close=connection.close)
        found = backend.get_many([key for key, _ in items], omit=[PER_DEVICE, TRACE])
        backend.close()
        assert len(found) == 1200
        assert all(payload["data"]["result"] == {} for payload in found.values())
        assert len(sizes) == 3 and max(sizes) == 500

    def test_a_backend_without_the_keyword_serves_full_reads(self, tmp_path):
        class OldBackend(DirectoryBackend):
            def get_many(self, keys):
                return {key: payload for key in keys if (payload := self.get(key)) is not None}

        cache = ScheduleCache(backend=OldBackend(tmp_path / "c"))
        cache.put("a" * 16, {"psi": 1.0, "per_device": {"d": {}}})
        cache.clear_memory()
        assert cache.get_many(["a" * 16], omit=("per_device",)) == {"a" * 16: {"psi": 1.0}}
        assert cache.get("a" * 16) == {"psi": 1.0, "per_device": {"d": {}}}


@pytest.fixture()
def stored_cache(tmp_path):
    """Opens a fresh cache of a class over a store holding one entry."""
    opened = []

    def open_cache(cls=ScheduleCache):
        writer = cls(backend=SqliteBackend(tmp_path / "c.db"))
        writer.put("a" * 16, {"psi": 0.25, "per_device": {"dev0": {"psi": 0.25}}})
        writer.close()
        opened.append(cls(backend=SqliteBackend(tmp_path / "c.db")))
        return opened[-1]

    yield open_cache
    for cache in opened:
        cache.close()


class TestTrimmedEntriesInTheCache:
    def test_a_trimmed_read_keeps_no_entry_in_memory(self, stored_cache):
        cache = stored_cache()
        assert cache.get_many(["a" * 16], omit=("per_device",)) == {"a" * 16: {"psi": 0.25}}
        assert len(cache) == 0
        assert cache.get("a" * 16) == {"psi": 0.25, "per_device": {"dev0": {"psi": 0.25}}}
        assert cache.peek_many(["a" * 16]) == {"a" * 16: cache.peek("a" * 16)}
        # An entry already in memory comes back without the omitted fields.
        assert cache.peek_many(["a" * 16], omit=("per_device",)) == {"a" * 16: {"psi": 0.25}}
        assert cache.hits == 2 and cache.misses == 0

    def test_corrupt_rows_are_misses_beside_good_ones(self, stored_cache):
        cache = stored_cache()
        store_corrupt(cache.backend, "b" * 16, '{"kind": "repro/schedule-cache-entry", "ver')
        foreign = {"kind": "other", "version": 1, "data": {"result": {}}}
        store_corrupt(cache.backend, "c" * 16, canonical_json(foreign))
        store_corrupt(cache.backend, "d" * 16, '{"kind": NaN}')
        found = cache.get_many(["a" * 16, "b" * 16, "c" * 16, "d" * 16], omit=("per_device",))
        assert found == {"a" * 16: {"psi": 0.25}}
        assert cache.hits == 1 and cache.misses == 3

    def test_a_newer_version_still_raises(self, stored_cache):
        cache = stored_cache(SimulationCache)
        newer = {"kind": cache.kind, "version": cache.version + 1, "data": {"result": {}}}
        store_corrupt(cache.backend, "b" * 16, canonical_json(newer))
        with pytest.raises(PayloadVersionError):
            cache.get_many(["b" * 16], omit=("trace",))


def small_requests():
    return [
        ScheduleRequest(
            scenario=tiny_scenario(), spec="static", system_index=index, request_id=str(index)
        )
        for index in range(2)
    ]


def tiny_scenario():
    return Scenario(
        name="tiny",
        workload=WorkloadSpec(
            utilisation=0.4,
            generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
        ),
    )


class TestFlaggedStreams:
    def test_a_flagged_hit_has_empty_mappings_and_later_reads_are_whole(self, tmp_path):
        backend = f"sqlite:path={tmp_path / 'c.db'}"
        with SchedulingService(cache_backend=backend) as service:
            computed = service.submit_batch(small_requests())
        whole = [json.loads(json.dumps(response.result_dict())) for response in computed]
        assert all(result["per_device"] for result in whole)
        with SchedulingService(cache_backend=backend) as service:
            stream = service.submit_stream(small_requests(), scalars_only=True)
            flagged = next(stream)
            assert flagged.cache == "hit" and flagged.per_device == {}
            assert flagged.result_dict() == {**whole[0], "per_device": {}}
            # The window's other hit was read trimmed too; full reads of
            # either key, before and after the window ends, are whole.
            for request, result in zip(small_requests(), whole):
                assert service.cache.get(request.content_key()) == result
                assert service.lookup(request).result_dict() == result
            assert next(stream).per_device == {}
            assert list(stream) == []
            unflagged = service.submit_batch(small_requests())
            assert [response.result_dict() for response in unflagged] == whole


def campaign_spec():
    return build_campaign(
        name="projected",
        scenarios=(tiny_scenario(),),
        methods=("static", "gpiocp"),
        n_systems=2,
        execution_models=("dedicated-controller", "cpu-instigated"),
    )


def warm_rerun(spec, directory: Path, backend: str):
    """Journal bytes and service counters of one rerun over a filled store."""
    with CampaignRunner(spec, artifact_dir=directory, cache_backend=backend) as runner:
        runner.run()
        services = (runner.service, runner.simulation)
        counters = [
            (
                service.stats(),
                service.metrics()["families"][REQUESTS_TOTAL]["samples"],
                len(service.last_traces),
            )
            for service in services
        ]
    return (directory / spec.content_key() / "campaign.jsonl").read_bytes(), counters


class TestWarmCampaignReads:
    def test_a_warm_rerun_decodes_no_mapping_and_counts_as_an_unflagged_one(
        self, tmp_path, monkeypatch
    ):
        spec = campaign_spec()
        backend = f"sqlite:path={tmp_path / 'c.db'}"
        with CampaignRunner(spec, artifact_dir=tmp_path / "fill", cache_backend=backend) as runner:
            runner.run()

        decoded = []

        def loads(text, **kwargs):
            decoded.append(text)
            return json.loads(text, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(backends, "json", types.SimpleNamespace(loads=loads, load=json.load))
            flagged = warm_rerun(spec, tmp_path / "flagged", backend)
        assert len(decoded) == spec.n_cells + spec.n_runtime_cells
        assert not [text for text in decoded if '"per_device"' in text or '"trace"' in text]

        original = ContentAddressedService.submit_stream
        with monkeypatch.context() as patch:
            patch.setattr(
                ContentAddressedService,
                "submit_stream",
                lambda self, requests, scalars_only=False: original(self, requests),
            )
            unflagged = warm_rerun(spec, tmp_path / "unflagged", backend)
        assert flagged == unflagged
        journal, counters = flagged
        assert journal == (tmp_path / "fill" / spec.content_key() / "campaign.jsonl").read_bytes()
        assert [stats["computed"] for stats, _, _ in counters] == [0, 0]
