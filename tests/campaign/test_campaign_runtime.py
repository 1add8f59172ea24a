"""Tests for the campaign's run-time section (execution-model grid)."""

import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    RuntimeSpec,
    build_campaign,
    load_campaign_records,
    run_campaign,
    runtime_cell_request,
    runtime_label,
)
from repro.campaign.runner import CampaignRunner
from repro.scenario import Scenario, WorkloadSpec
from repro.taskgen import GeneratorConfig


def tiny_scenario(name="tiny"):
    return Scenario(
        name=name,
        workload=WorkloadSpec(
            utilisation=0.4,
            generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
        ),
    )


@pytest.fixture(scope="module")
def runtime_spec():
    return build_campaign(
        name="rt",
        scenarios=(tiny_scenario(),),
        methods=("static", "gpiocp"),
        execution_models=("dedicated-controller", "cpu-instigated"),
    )


class TestRuntimeSpec:
    def test_models_are_coerced_and_validated(self):
        section = RuntimeSpec(execution_models=("cpu-instigated:jitter_window=2",))
        assert str(section.execution_models[0]) == "cpu-instigated:jitter_window=2"
        with pytest.raises(ValueError, match="unique"):
            RuntimeSpec(execution_models=("cpu-instigated", "cpu-instigated"))
        with pytest.raises(ValueError, match="at least one"):
            RuntimeSpec(execution_models=())

    def test_metrics_are_normalised_to_canonical_order(self):
        section = RuntimeSpec(metrics=("psi", "accuracy"))
        assert section.metrics == ("accuracy", "psi")
        with pytest.raises(ValueError, match="unknown runtime metrics"):
            RuntimeSpec(metrics=("latency",))

    @pytest.mark.parametrize("kwargs", [{"max_events": 0}, {"max_events": -1}])
    def test_bounds_are_validated(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeSpec(**kwargs)

    @pytest.mark.parametrize("model", ["nosuch", {"name": "nosuch", "options": {}}])
    def test_unknown_models_are_rejected(self, model):
        with pytest.raises(ValueError, match="^unknown execution model 'nosuch'$"):
            RuntimeSpec(execution_models=("dedicated-controller", model))

    @settings(max_examples=25, deadline=None)
    @given(
        models=st.lists(
            st.sampled_from(
                ["dedicated-controller", "cpu-instigated", "cpu-instigated-prioritized"]
            ),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        metrics=st.lists(
            st.sampled_from(["accuracy", "psi", "upsilon", "faults_detected", "skipped_jobs"]),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    )
    def test_campaign_with_runtime_round_trips_losslessly(
        self, models, metrics, max_events
    ):
        spec = CampaignSpec(
            scenarios=(tiny_scenario(),),
            runtime=RuntimeSpec(
                execution_models=tuple(models),
                metrics=tuple(metrics),
                max_events=max_events,
            ),
        )
        recovered = CampaignSpec.from_json(spec.to_json())
        assert recovered == spec
        assert recovered.content_key() == spec.content_key()


class TestVersioning:
    def test_runtime_section_bumps_the_envelope_version(self):
        without = CampaignSpec(scenarios=(tiny_scenario(),))
        with_runtime = CampaignSpec(scenarios=(tiny_scenario(),), runtime=RuntimeSpec())
        assert without.to_dict()["version"] == 1
        assert with_runtime.to_dict()["version"] == 2

    def test_runtime_section_changes_the_content_key(self):
        without = CampaignSpec(scenarios=(tiny_scenario(),))
        with_runtime = CampaignSpec(scenarios=(tiny_scenario(),), runtime=RuntimeSpec())
        assert without.content_key() != with_runtime.content_key()

    def test_report_without_runtime_stays_version_1(self, tmp_path):
        spec = CampaignSpec(scenarios=(tiny_scenario(),))
        report = run_campaign(spec).report()
        payload = report.to_dict()
        assert payload["version"] == 1
        assert "runtime" not in payload["data"]


class TestGrid:
    def test_runtime_cells_multiply_the_schedule_grid(self, runtime_spec):
        assert runtime_spec.n_cells == 2
        assert runtime_spec.n_runtime_cells == 4
        cells = list(runtime_spec.runtime_cells())
        assert len(cells) == 4
        # Models innermost, schedule-cell order preserved.
        assert [c.execution_model for c in cells[:2]] == [
            "dedicated-controller",
            "cpu-instigated",
        ]

    def test_runtime_request_reuses_the_schedule_cache(self, runtime_spec):
        cell = next(iter(runtime_spec.runtime_cells()))
        sim_request = runtime_cell_request(runtime_spec, cell)
        from repro.campaign import cell_request

        schedule_request = cell_request(runtime_spec, cell.schedule_cell())
        assert (
            sim_request.schedule_request().content_key()
            == schedule_request.content_key()
        )

    def test_max_events_never_enters_the_schedule_question(self):
        # The simulation-side bound must not change which schedule is asked
        # for — otherwise runtime cells would stop sharing the campaign's
        # schedule-cache entries.
        bounded = build_campaign(
            name="rt",
            scenarios=(tiny_scenario(),),
            runtime=RuntimeSpec(
                execution_models=("dedicated-controller",), max_events=1000
            ),
        )
        cell = next(iter(bounded.runtime_cells()))
        sim_request = runtime_cell_request(bounded, cell)
        assert sim_request.max_events == 1000
        from repro.campaign import cell_request

        schedule_request = cell_request(bounded, cell.schedule_cell())
        assert (
            sim_request.schedule_request().content_key()
            == schedule_request.content_key()
        )


class TestRunnerIntegration:
    def test_run_evaluates_schedule_and_runtime_cells(self, runtime_spec):
        result = run_campaign(runtime_spec)
        assert result.complete
        assert len(result.records) == 2
        assert len(result.runtime_records) == 4
        assert result.evaluated == 6
        for values in result.runtime_records.values():
            assert set(values) == set(runtime_spec.runtime.metrics)
        # The dedicated controller is exact; CPU-instigated is not.
        for key, values in result.runtime_records.items():
            if key[2] == "dedicated-controller":
                assert values["accuracy"] == 1.0
            else:
                assert values["accuracy"] < 1.0

    def test_resume_recomputes_nothing(self, runtime_spec, tmp_path):
        first = run_campaign(runtime_spec, artifact_dir=tmp_path)
        assert first.evaluated == 6
        second = run_campaign(runtime_spec, artifact_dir=tmp_path)
        assert second.evaluated == 0
        assert second.resumed == 6
        assert second.records == first.records
        assert second.runtime_records == first.runtime_records

    def test_interrupt_mid_runtime_grid_resumes_cleanly(self, runtime_spec, tmp_path):
        partial = run_campaign(runtime_spec, artifact_dir=tmp_path, max_cells=4)
        assert partial.evaluated == 4  # 2 schedule + 2 runtime cells
        assert not partial.complete
        rest = run_campaign(runtime_spec, artifact_dir=tmp_path)
        assert rest.evaluated == 2
        assert rest.complete

    def test_every_budget_resumes_to_the_uninterrupted_journal(self, runtime_spec, tmp_path):
        """One budget covers both grids: any split of the run counts every
        cell once and journals the same bytes as a run without a budget."""

        def journal_of(root):
            return (root / runtime_spec.content_key() / "campaign.jsonl").read_bytes()

        run_campaign(runtime_spec, artifact_dir=tmp_path / "whole")
        size = runtime_spec.n_cells + runtime_spec.n_runtime_cells
        for budget in range(1, size + 1):
            directory = tmp_path / f"budget-{budget}"
            first = run_campaign(runtime_spec, artifact_dir=directory, max_cells=budget)
            second = run_campaign(runtime_spec, artifact_dir=directory)
            assert (first.evaluated, second.evaluated) == (budget, size - budget)
            assert second.resumed == budget
            assert journal_of(directory) == journal_of(tmp_path / "whole")

    def test_journal_reads_back_both_record_kinds(self, runtime_spec, tmp_path):
        result = run_campaign(runtime_spec, artifact_dir=tmp_path)
        records, runtime_records = load_campaign_records(tmp_path, runtime_spec)
        assert records == result.records
        assert runtime_records == result.runtime_records

    def test_reports_are_byte_identical_at_1_and_4_workers(self, runtime_spec, tmp_path):
        serial = run_campaign(
            runtime_spec, artifact_dir=tmp_path / "serial", n_workers=1
        )
        pooled = run_campaign(
            runtime_spec, artifact_dir=tmp_path / "pooled", n_workers=4
        )
        assert serial.report().to_json() == pooled.report().to_json()
        journal = (
            tmp_path / "serial" / runtime_spec.content_key() / "campaign.jsonl"
        ).read_bytes()
        pooled_journal = (
            tmp_path / "pooled" / runtime_spec.content_key() / "campaign.jsonl"
        ).read_bytes()
        assert journal == pooled_journal

    def test_runner_shares_one_scheduling_service(self, runtime_spec):
        with CampaignRunner(runtime_spec) as runner:
            runner.run()
            # Two schedule cells -> two schedule computations; the four
            # runtime cells hit the schedule cache instead of recomputing.
            assert runner.service.computed == 2

    def test_a_pooled_run_starts_one_worker_pool(self, runtime_spec, tmp_path):
        """Run-time cells run on the scheduling service's pool, so a run with
        ``n_workers=2`` leaves at most two live worker processes."""
        run_campaign(runtime_spec, artifact_dir=tmp_path / "serial")
        before = {child.pid for child in multiprocessing.active_children()}
        with CampaignRunner(
            runtime_spec, artifact_dir=tmp_path / "pooled", n_workers=2
        ) as runner:
            result = runner.run()
            workers = [
                child for child in multiprocessing.active_children() if child.pid not in before
            ]
        assert result.evaluated == 6
        assert runner.simulation.n_workers == 2
        assert len(workers) <= 2
        journal = runtime_spec.content_key() + "/campaign.jsonl"
        assert (tmp_path / "pooled" / journal).read_bytes() == (
            tmp_path / "serial" / journal
        ).read_bytes()


class TestRuntimeReport:
    def test_leaderboard_ranks_method_model_pairs(self, runtime_spec):
        report = run_campaign(runtime_spec).report()
        assert report.has_runtime
        board = report.runtime_leaderboard("accuracy")
        assert len(board) == 4
        top_labels = {label for label, _ in board[:2]}
        assert top_labels == {
            runtime_label("static", "dedicated-controller"),
            runtime_label("gpiocp", "dedicated-controller"),
        }

    def test_report_round_trips_with_runtime_entries(self, runtime_spec):
        report = run_campaign(runtime_spec).report()
        payload = report.to_dict()
        assert payload["version"] == 2
        recovered = CampaignReport.from_dict(json.loads(json.dumps(payload)))
        assert recovered == report

    def test_emitters_cover_runtime_sections(self, runtime_spec):
        report = run_campaign(runtime_spec).report()
        md = report.to_markdown()
        text = report.to_text()
        assert "runtime:accuracy" in md
        assert "method @ execution model" in md
        assert "runtime:accuracy" in text
        assert "4/4 runtime cells" in md
