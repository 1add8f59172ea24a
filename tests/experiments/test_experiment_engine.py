"""Tests of the parallel experiment engine: determinism, caching, resume."""

import math
from dataclasses import replace

import pytest

import repro.experiments.engine as engine_mod
import repro.service.service as service_mod
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.experiments.engine import (
    EvalJob,
    cell_request,
    cell_seed,
    evaluate_cell,
    generate_system,
)
from repro.scheduling import GAConfig
from repro.service import SchedulingService


@pytest.fixture(scope="module")
def tiny_config():
    """A seconds-scale configuration with the GA included (tiny budget)."""
    return ExperimentConfig(
        schedulability_utilisations=(0.3, 0.6),
        accuracy_utilisations=(0.3, 0.6),
        n_systems=3,
        ga=GAConfig(population_size=8, generations=4),
    )


@pytest.fixture(scope="module")
def tiny_config_no_ga(tiny_config):
    return tiny_config.with_overrides(include_ga=False)


class TestCells:
    def test_eval_job_is_picklable_and_hashable(self):
        import pickle

        job = EvalJob(0.3, 2, "static")
        assert pickle.loads(pickle.dumps(job)) == job
        assert len({job, EvalJob(0.3, 2, "static"), EvalJob(0.3, 3, "static")}) == 2

    def test_cell_seed_matches_runner_seeding(self, tiny_config_no_ga):
        config = tiny_config_no_ga
        assert cell_seed(config, 0.3, 2) == config.seed + 30 * 10_000 + 2
        ts_a = generate_system(config, 0.4, 1)
        with ExperimentEngine(config) as engine:
            ts_b = engine.generate_system(0.4, 1)
        assert [t.name for t in ts_a] == [t.name for t in ts_b]
        assert ts_a.utilisation == pytest.approx(ts_b.utilisation)

    def test_evaluate_cell_is_pure(self, tiny_config):
        job = EvalJob(0.4, 0, "ga")
        assert evaluate_cell(tiny_config, job) == evaluate_cell(tiny_config, job)

    def test_fps_online_cell_has_no_schedule_metrics(self, tiny_config_no_ga):
        cell = evaluate_cell(tiny_config_no_ga, EvalJob(0.3, 0, "fps-online"))
        assert cell.psi == 0.0
        assert cell.upsilon == 0.0


class TestWorkerCountInvariance:
    """Acceptance: series must be bit-identical for n_workers=1 vs n_workers=4."""

    def test_sweeps_bit_identical_across_worker_counts(self, tiny_config):
        with ExperimentEngine(tiny_config, n_workers=1) as engine:
            sched_serial = engine.schedulability_sweep()
            acc_serial = engine.accuracy_sweep()
        with ExperimentEngine(tiny_config, n_workers=4) as engine:
            sched_parallel = engine.schedulability_sweep()
            acc_parallel = engine.accuracy_sweep()

        assert sched_parallel.series == sched_serial.series
        assert sched_parallel.utilisations == sched_serial.utilisations
        assert acc_parallel.psi.series == acc_serial.psi.series
        assert acc_parallel.upsilon.series == acc_serial.upsilon.series
        assert acc_parallel.systems_evaluated == acc_serial.systems_evaluated


class TestArtifactCache:
    def test_cache_hits_reproduce_uncached_results_exactly(self, tiny_config_no_ga, tmp_path):
        config = tiny_config_no_ga
        with ExperimentEngine(config) as engine:
            uncached = engine.schedulability_sweep()
            uncached_acc = engine.accuracy_sweep()

        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            cold = engine.schedulability_sweep()
            cold_acc = engine.accuracy_sweep()
            assert engine.cells_computed > 0
            assert len(engine.service.cache) == 0, "cells held in memory"
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            warm = engine.schedulability_sweep()
            warm_acc = engine.accuracy_sweep()
            assert engine.cells_computed == 0

        for result in (cold, warm):
            assert result.series == uncached.series
        for result in (cold_acc, warm_acc):
            assert result.psi.series == uncached_acc.psi.series
            assert result.upsilon.series == uncached_acc.upsilon.series
            assert result.systems_evaluated == uncached_acc.systems_evaluated

    def test_static_cells_are_shared_between_sweeps(self, tiny_config_no_ga, tmp_path, monkeypatch):
        """The accuracy admission filter reuses schedulability-sweep static cells."""
        config = tiny_config_no_ga
        computed = []
        real_execute = service_mod.execute_request
        monkeypatch.setattr(
            service_mod,
            "execute_request",
            lambda request: computed.append(request) or real_execute(request),
        )
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            engine.schedulability_sweep()
            engine.accuracy_sweep()
        static_keys = [
            request.content_key() for request in computed if request.spec.name == "static"
        ]
        assert len(static_keys) == len(set(static_keys)), "a static cell was recomputed"

    def test_interrupted_sweep_resumes_without_recomputation(self, tiny_config_no_ga, tmp_path, monkeypatch):
        """Acceptance: a killed run restarts from cached cells, not from scratch."""
        config = tiny_config_no_ga
        methods = [m for m in engine_mod.SCHEDULABILITY_METHODS if m != "ga"]
        total_cells = (
            len(config.schedulability_utilisations) * config.n_systems * len(methods)
        )
        interrupt_after = 7
        assert interrupt_after < total_cells

        real_execute = service_mod.execute_request
        first_run_calls = []

        def interrupting(request):
            if len(first_run_calls) >= interrupt_after:
                raise KeyboardInterrupt
            first_run_calls.append(request.content_key())
            return real_execute(request)

        monkeypatch.setattr(service_mod, "execute_request", interrupting)
        with pytest.raises(KeyboardInterrupt):
            with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
                engine.schedulability_sweep()

        second_run_calls = []
        monkeypatch.setattr(
            service_mod,
            "execute_request",
            lambda request: second_run_calls.append(request.content_key())
            or real_execute(request),
        )
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            resumed = engine.schedulability_sweep()

        assert len(first_run_calls) == interrupt_after
        assert len(second_run_calls) == total_cells - interrupt_after
        assert not set(first_run_calls) & set(second_run_calls)

        with ExperimentEngine(config) as engine:
            fresh = engine.schedulability_sweep()
        assert resumed.series == fresh.series

    def test_interrupted_pooled_sweep_loses_at_most_one_slice(self, tmp_path, monkeypatch):
        """On a pool, every slice that returned before the interrupt is kept."""
        config = ExperimentConfig.smoke()
        real_submit = SchedulingService.submit_batch
        batches = []

        def interrupting(service, requests):
            batches.append(requests)
            if len(batches) == 2:
                raise KeyboardInterrupt
            return real_submit(service, requests)

        monkeypatch.setattr(SchedulingService, "submit_batch", interrupting)
        with pytest.raises(KeyboardInterrupt):
            with ExperimentEngine(config, n_workers=2, artifact_dir=str(tmp_path)) as engine:
                engine.schedulability_sweep()
        monkeypatch.undo()

        with ExperimentEngine(config, n_workers=2, artifact_dir=str(tmp_path)) as engine:
            resumed = engine.schedulability_sweep()
            recomputed = engine.cells_computed
        assert (len(batches[0]), recomputed) == (8, 22)
        with ExperimentEngine(config) as engine:
            assert resumed.series == engine.schedulability_sweep().series

    def test_fps_alias_shares_the_fps_offline_cells(self, tiny_config_no_ga, tmp_path):
        config = tiny_config_no_ga
        assert (
            cell_request(config, EvalJob(0.3, 0, "fps")).content_key()
            == cell_request(config, EvalJob(0.3, 0, "fps-offline")).content_key()
        )
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            offline = engine.schedulability_sweep(methods=["fps-offline"])
            computed = engine.cells_computed
            alias = engine.schedulability_sweep(methods=["fps"])
            assert engine.cells_computed == computed, "the fps alias recomputed cells"
        assert alias.series["fps"] == offline.series["fps-offline"]

    def test_ga_budget_change_reuses_every_non_ga_cell(self, tiny_config_no_ga, tmp_path):
        """Cells are keyed by request content, not by the whole configuration."""
        from repro.experiments.artifacts import ArtifactStore

        methods = ["static", "gpiocp", "fps-offline"]
        config = tiny_config_no_ga
        other = config.with_overrides(ga=GAConfig(population_size=6, generations=2))
        assert ArtifactStore(tmp_path, config).directory != ArtifactStore(tmp_path, other).directory
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            first = engine.schedulability_sweep(methods=methods)
            assert engine.cells_computed == 18
        with ExperimentEngine(other, artifact_dir=str(tmp_path)) as engine:
            second = engine.schedulability_sweep(methods=methods)
            assert engine.cells_computed == 0
        assert second.series == first.series


class TestNewerArtifactsAreProtected:
    def test_newer_sweep_artifact_is_not_overwritten(self, tiny_config_no_ga, tmp_path):
        from repro.core.serialization import PayloadVersionError
        from repro.experiments.artifacts import ArtifactStore

        config = tiny_config_no_ga
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            engine.schedulability_sweep()

        # Rewrite the stored artifact as if a newer package version produced it.
        store = ArtifactStore(tmp_path, config)
        artifact_name = next(p.stem for p in store.directory.glob("schedulability-*.json"))
        payload = store.load_result(artifact_name)
        payload["version"] = 99
        store.save_result(artifact_name, payload)

        with pytest.raises(PayloadVersionError):
            with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
                engine.schedulability_sweep()
        # The newer artifact must survive untouched.
        assert ArtifactStore(tmp_path, config).load_result(artifact_name)["version"] == 99


class TestAccuracyShortfall:
    def test_shortfall_is_recorded_and_warned(self, monkeypatch):
        config = ExperimentConfig(
            schedulability_utilisations=(0.3,),
            accuracy_utilisations=(0.3,),
            n_systems=2,
            include_ga=False,
        )
        real_execute = service_mod.execute_request
        monkeypatch.setattr(
            service_mod,
            "execute_request",
            lambda request: replace(
                real_execute(request),
                schedulable=False,
                psi=0.0,
                upsilon=0.0,
                best_psi=0.0,
                best_upsilon=0.0,
            ),
        )

        with pytest.warns(UserWarning, match="only 0 of the requested 2"):
            with ExperimentEngine(config) as engine:
                result = engine.accuracy_sweep()

        assert result.systems_evaluated == {0.3: 0}
        for series in (result.psi.series, result.upsilon.series):
            for values in series.values():
                assert all(math.isnan(v) for v in values)
