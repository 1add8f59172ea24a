"""Unit tests for the artifact layer: versioned JSON round-trips and the store."""

import json

import pytest

from repro.core.serialization import (
    canonical_json,
    content_hash,
    parse_versioned_payload,
    versioned_payload,
)
from repro.experiments import ExperimentConfig
from repro.experiments.artifacts import (
    ArtifactStore,
    accuracy_sweep_from_json,
    accuracy_sweep_to_json,
    config_fingerprint,
    sweep_result_from_dict,
    sweep_result_from_json,
    sweep_result_to_dict,
    sweep_result_to_json,
    table1_from_dict,
    table1_to_dict,
)
from repro.experiments.results import AccuracySweepResult, SweepResult


def make_sweep(name="schedulability"):
    return SweepResult(
        name=name,
        utilisations=[0.3, 0.6],
        series={"static": [1.0, 0.5], "ga": [1.0, 0.75]},
    )


class TestVersionedPayloads:
    def test_envelope_round_trip(self):
        payload = versioned_payload("repro/x", 3, {"a": 1})
        version, data = parse_versioned_payload(payload, "repro/x", max_version=3)
        assert version == 3
        assert data == {"a": 1}

    def test_kind_mismatch_rejected(self):
        payload = versioned_payload("repro/x", 1, {})
        with pytest.raises(ValueError, match="kind"):
            parse_versioned_payload(payload, "repro/y", max_version=1)

    def test_newer_version_rejected(self):
        payload = versioned_payload("repro/x", 2, {})
        with pytest.raises(ValueError, match="versions <= 1"):
            parse_versioned_payload(payload, "repro/x", max_version=1)

    def test_invalid_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            parse_versioned_payload({"kind": "repro/x", "version": "two"}, "repro/x", max_version=1)

    def test_content_hash_is_order_insensitive(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})
        assert canonical_json({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'


class TestSweepRoundTrips:
    def test_sweep_result_json_round_trip(self):
        sweep = make_sweep()
        restored = sweep_result_from_json(sweep_result_to_json(sweep))
        assert restored == sweep

    def test_sweep_payload_is_versioned(self):
        payload = sweep_result_to_dict(make_sweep())
        assert payload["kind"] == "repro/sweep-result"
        assert payload["version"] == 1
        with pytest.raises(ValueError):
            sweep_result_from_dict({"kind": "other", "version": 1, "data": {}})

    def test_accuracy_sweep_json_round_trip(self):
        accuracy = AccuracySweepResult(
            psi=make_sweep("psi"),
            upsilon=make_sweep("upsilon"),
            systems_evaluated={0.3: 3, 0.6: 2},
        )
        restored = accuracy_sweep_from_json(accuracy_sweep_to_json(accuracy))
        assert restored == accuracy
        assert restored.systems_evaluated == {0.3: 3, 0.6: 2}

    def test_table1_round_trip(self):
        rows = [{"design": "proposed", "luts": 100}]
        ratios = {"luts_vs_mb_full": 0.236}
        data = table1_from_dict(table1_to_dict(rows, ratios))
        assert data["rows"] == rows
        assert data["ratios"] == ratios


class TestConfigFingerprint:
    def test_same_cell_config_same_fingerprint(self):
        base = ExperimentConfig.smoke()
        assert config_fingerprint(base) == config_fingerprint(base.with_overrides(n_workers=4))
        # Sweep shape does not enter the key: enlarged sweeps reuse old cells.
        assert config_fingerprint(base) == config_fingerprint(
            base.with_overrides(n_systems=7, schedulability_utilisations=(0.2, 0.5))
        )

    def test_cell_relevant_changes_change_fingerprint(self):
        base = ExperimentConfig.smoke()
        assert config_fingerprint(base) != config_fingerprint(base.with_overrides(seed=99))
        assert config_fingerprint(base) != config_fingerprint(
            base.with_overrides(ga=base.ga.__class__(population_size=99, generations=1))
        )


class TestArtifactStore:
    def test_different_configs_use_disjoint_directories(self, tmp_path):
        store_a = ArtifactStore(tmp_path, ExperimentConfig.smoke())
        store_b = ArtifactStore(tmp_path, ExperimentConfig.smoke().with_overrides(seed=1))
        assert store_a.directory != store_b.directory

    def test_save_and_load_result(self, tmp_path):
        store = ArtifactStore(tmp_path, ExperimentConfig.smoke())
        payload = sweep_result_to_dict(make_sweep())
        path = store.save_result("schedulability-test", payload)
        assert path.exists()
        assert store.load_result("schedulability-test") == payload
        assert store.load_result("missing") is None

    def test_config_json_written_for_humans(self, tmp_path):
        config = ExperimentConfig.smoke()
        config_path = ArtifactStore(tmp_path, config).directory / ArtifactStore.CONFIG_FILENAME
        data = json.loads(config_path.read_text())
        assert data["data"]["fingerprint"] == config_fingerprint(config)
        assert data["data"]["full_config"]["n_systems"] == config.n_systems
