"""CampaignSpec: lossless round-trip, content addressing, grid expansion."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CAMPAIGN_KIND,
    CAMPAIGN_METRICS,
    CampaignSpec,
    build_campaign,
    create_campaign,
    load_campaign,
)
from repro.core.serialization import PayloadVersionError
from repro.scenario import create_scenario
from repro.service import SchedulerSpec


def sample_spec() -> CampaignSpec:
    return CampaignSpec(
        name="sample",
        description="two presets, two methods",
        scenarios=("paper-default", "short-hyperperiod"),
        methods=("static", "ga:generations=4,population_size=8"),
        n_systems=2,
        utilisations=(0.3, 0.5),
        replications=2,
        metrics=("psi", "schedulable"),
    )


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        spec = sample_spec()
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.content_key() == spec.content_key()
        # And a second round-trip produces identical bytes.
        assert rebuilt.to_json() == spec.to_json()

    def test_envelope_kind_and_version(self):
        payload = sample_spec().to_dict()
        assert payload["kind"] == CAMPAIGN_KIND
        assert payload["version"] == 1

    def test_newer_version_fails_loudly(self):
        payload = sample_spec().to_dict()
        payload["version"] = 99
        with pytest.raises(PayloadVersionError):
            CampaignSpec.from_dict(payload)

    def test_unknown_fields_are_rejected(self):
        payload = sample_spec().to_dict()
        payload["data"]["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            CampaignSpec.from_dict(payload)

    @pytest.mark.parametrize("field_name", ["n_systems", "replications"])
    @pytest.mark.parametrize("value", [2.9, "3", True, 0], ids=["float", "string", "bool", "zero"])
    def test_counts_are_not_coerced(self, field_name, value):
        payload = sample_spec().to_dict()
        payload["data"][field_name] = value
        with pytest.raises(ValueError, match=f"^{field_name} must be a positive integer"):
            CampaignSpec.from_dict(payload)

    def test_unknown_names_are_rejected(self):
        payload = sample_spec().to_dict()
        payload["data"]["methods"][0]["name"] = "nosuch"
        with pytest.raises(ValueError, match="^unknown scheduler 'nosuch'$"):
            CampaignSpec.from_dict(payload)
        with pytest.raises(ValueError, match="^unknown scheduler 'nosuch'$"):
            CampaignSpec(methods=("static", "nosuch:seed=1"))


class TestContentKey:
    def test_every_field_enters_the_key(self):
        base = sample_spec()
        variants = [
            CampaignSpec(**{**_kwargs(base), "name": "other"}),
            CampaignSpec(**{**_kwargs(base), "description": "changed"}),
            CampaignSpec(**{**_kwargs(base), "scenarios": ("paper-default",)}),
            CampaignSpec(**{**_kwargs(base), "methods": ("static",)}),
            CampaignSpec(**{**_kwargs(base), "n_systems": 3}),
            CampaignSpec(**{**_kwargs(base), "utilisations": (0.3,)}),
            CampaignSpec(**{**_kwargs(base), "replications": 1}),
            CampaignSpec(**{**_kwargs(base), "metrics": ("psi",)}),
        ]
        keys = {base.content_key()} | {variant.content_key() for variant in variants}
        assert len(keys) == len(variants) + 1

    def test_scenario_field_change_changes_the_key(self):
        base = sample_spec()
        tweaked = CampaignSpec(
            **{
                **_kwargs(base),
                "scenarios": (
                    create_scenario("paper-default").with_platform(mesh_width=8),
                    "short-hyperperiod",
                ),
            }
        )
        assert tweaked.content_key() != base.content_key()

    def test_logically_equal_specs_share_a_key(self):
        by_string = CampaignSpec(
            methods=("ga:population_size=12,generations=6",), scenarios=("paper-default",)
        )
        by_spec = CampaignSpec(
            methods=(SchedulerSpec("ga", {"generations": 6, "population_size": 12}),),
            scenarios=(create_scenario("paper-default"),),
        )
        assert by_string.content_key() == by_spec.content_key()


class TestValidation:
    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec(scenarios=("paper-default", "paper-default"))

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec(methods=("static", "static"))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign metrics"):
            CampaignSpec(metrics=("psi", "speedup"))

    def test_metric_order_is_normalised(self):
        spec = CampaignSpec(metrics=("upsilon", "schedulable", "psi"))
        assert spec.metrics == ("schedulable", "psi", "upsilon")

    @pytest.mark.parametrize("field_name", ["n_systems", "replications"])
    def test_counts_must_be_positive(self, field_name):
        with pytest.raises(ValueError, match=field_name):
            CampaignSpec(**{field_name: 0})

    def test_utilisations_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match="utilisations"):
            CampaignSpec(utilisations=(1.5,))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            CampaignSpec(scenarios=())
        with pytest.raises(ValueError, match="method"):
            CampaignSpec(methods=())


class TestGrid:
    def test_cell_count_and_canonical_order(self):
        spec = sample_spec()
        cells = list(spec.cells())
        assert len(cells) == spec.n_cells == 2 * 2 * 2 * 2 * 2
        assert len({cell.key() for cell in cells}) == len(cells)
        # Scenario-major order: all paper-default cells come first.
        assert [cell.scenario for cell in cells[:16]] == ["paper-default"] * 16

    def test_no_utilisations_means_one_point_per_scenario(self):
        spec = CampaignSpec(scenarios=("paper-default",), methods=("static",))
        cells = list(spec.cells())
        assert len(cells) == 1
        assert cells[0].utilisation is None


class TestResolution:
    def test_create_campaign_accepts_spec_dict_and_json(self):
        spec = sample_spec()
        assert create_campaign(spec) is spec
        assert create_campaign(spec.to_dict()) == spec
        assert create_campaign(spec.to_json()) == spec

    def test_create_campaign_rejects_non_json_strings(self):
        with pytest.raises(ValueError, match="inline"):
            create_campaign("some-name")

    def test_load_campaign_reads_files(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json(indent=2))
        assert load_campaign(str(path)) == spec

    def test_load_campaign_missing_file_is_an_error(self):
        with pytest.raises(ValueError, match="not found"):
            load_campaign("does-not-exist.json")

    def test_build_campaign_defaults(self):
        spec = build_campaign()
        assert spec.metrics == CAMPAIGN_METRICS
        assert [scenario.name for scenario in spec.scenarios] == ["paper-default"]
        assert json.loads(spec.to_json())["kind"] == CAMPAIGN_KIND


_method_strings = st.sampled_from(
    ["static", "gpiocp", "fps-offline", "ga:generations=4,population_size=8"]
)

_campaigns = st.builds(
    CampaignSpec,
    name=st.sampled_from(["alpha", "beta-2", "grid run"]).map(str.strip),
    description=st.sampled_from(["", "a campaign"]),
    scenarios=st.lists(
        st.sampled_from(["paper-default", "short-hyperperiod", "bursty-periods"]),
        min_size=1,
        max_size=3,
        unique=True,
    ).map(tuple),
    methods=st.lists(_method_strings, min_size=1, max_size=3, unique=True).map(tuple),
    n_systems=st.integers(min_value=1, max_value=50),
    utilisations=st.lists(
        st.sampled_from([0.2, 0.35, 0.5, 0.75, 1.0]), max_size=3, unique=True
    ).map(tuple),
    replications=st.integers(min_value=1, max_value=4),
    metrics=st.lists(
        st.sampled_from(CAMPAIGN_METRICS), min_size=1, max_size=6, unique=True
    ).map(tuple),
)


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(spec=_campaigns)
    def test_json_round_trip_and_content_key_are_stable(self, spec):
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.content_key() == spec.content_key()
        assert rebuilt.to_json() == spec.to_json()
        cells = list(spec.cells())
        assert len(cells) == spec.n_cells
        assert len({cell.key() for cell in cells}) == len(cells)


def _kwargs(spec: CampaignSpec) -> dict:
    return {
        "name": spec.name,
        "description": spec.description,
        "scenarios": spec.scenarios,
        "methods": spec.methods,
        "n_systems": spec.n_systems,
        "utilisations": spec.utilisations,
        "replications": spec.replications,
        "metrics": spec.metrics,
    }
