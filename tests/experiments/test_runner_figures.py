"""Integration tests of the experiment harness (reduced-scale figure regeneration)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentEngine,
    run_controller_sim,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
)
from repro.experiments.engine import ACCURACY_METHODS, SCHEDULABILITY_METHODS


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def schedulability(smoke_config):
    return run_fig5(smoke_config)


@pytest.fixture(scope="module")
def accuracy(smoke_config):
    with ExperimentEngine(smoke_config) as engine:
        return engine.accuracy_sweep()


class TestFig5:
    def test_all_methods_and_utilisations_present(self, schedulability, smoke_config):
        assert set(schedulability.series) == set(SCHEDULABILITY_METHODS)
        assert schedulability.utilisations == list(smoke_config.schedulability_utilisations)

    def test_values_are_fractions(self, schedulability):
        for values in schedulability.series.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_ga_at_least_as_schedulable_as_static(self, schedulability):
        for ga, static in zip(schedulability.series["ga"], schedulability.series["static"]):
            assert ga >= static - 1e-9

    def test_rows_and_table_rendering(self, schedulability):
        rows = schedulability.rows()
        assert len(rows) == len(schedulability.utilisations)
        assert "fps-offline" in schedulability.to_table()

    def test_value_lookup(self, schedulability, smoke_config):
        u = smoke_config.schedulability_utilisations[0]
        assert schedulability.value("static", u) == schedulability.series["static"][0]

    def test_value_lookup_tolerates_float_noise(self, schedulability, smoke_config):
        u = smoke_config.schedulability_utilisations[0]
        noisy = u + 1e-13  # e.g. a utilisation that went through JSON/arithmetic
        assert schedulability.value("static", noisy) == schedulability.series["static"][0]

    def test_value_lookup_raises_clearly_on_miss(self, schedulability):
        with pytest.raises(KeyError, match="not a sweep point"):
            schedulability.value("static", 0.55555)
        with pytest.raises(KeyError, match="unknown method"):
            schedulability.value("no-such-method", 0.3)


class TestFig6And7:
    def test_methods_present(self, accuracy):
        assert set(accuracy.psi.series) == set(ACCURACY_METHODS)
        assert set(accuracy.upsilon.series) == set(ACCURACY_METHODS)

    def test_fps_psi_is_zero(self, accuracy):
        assert all(v == 0.0 for v in accuracy.psi.series["fps"])

    def test_metrics_bounded(self, accuracy):
        for sweep in (accuracy.psi, accuracy.upsilon):
            for values in sweep.series.values():
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_upsilon_of_fps_is_lowest(self, accuracy):
        for method in ("gpiocp", "static", "ga"):
            for fps_value, other in zip(accuracy.upsilon.series["fps"], accuracy.upsilon.series[method]):
                assert other >= fps_value - 1e-9

    def test_systems_were_evaluated(self, accuracy, smoke_config):
        assert all(count > 0 for count in accuracy.systems_evaluated.values())

    def test_run_fig6_and_fig7_reuse_precomputed_sweep(self, accuracy, smoke_config):
        fig6 = run_fig6(smoke_config, precomputed=accuracy)
        fig7 = run_fig7(smoke_config, precomputed=accuracy)
        assert fig6 is accuracy.psi
        assert fig7 is accuracy.upsilon


class TestTable1AndControllerSim:
    def test_table1_rows_cover_all_designs(self):
        result = run_table1()
        assert len(result.rows()) == 7
        assert set(result.estimates) == set(result.published)

    def test_controller_sim_dedicated_controller_is_exact(self, smoke_config):
        result = run_controller_sim(utilisation=0.4, config=smoke_config, seed=3)
        assert result.controller_matches_offline
        assert result.remote_cpu_psi <= result.controller_psi
        assert result.mean_noc_latency > 0


class TestRunnerDeterminism:
    def test_same_seed_same_schedulability(self, smoke_config):
        with ExperimentEngine(smoke_config) as engine:
            a = engine.schedulability_sweep(utilisations=[0.3])
        with ExperimentEngine(smoke_config) as engine:
            b = engine.schedulability_sweep(utilisations=[0.3])
        assert a.series == b.series

    def test_generate_system_deterministic(self, smoke_config):
        with ExperimentEngine(smoke_config) as engine:
            ts1 = engine.generate_system(0.4, 0)
            ts2 = engine.generate_system(0.4, 0)
        assert [t.name for t in ts1] == [t.name for t in ts2]
        assert ts1.utilisation == pytest.approx(ts2.utilisation)
