"""Benchmark regenerating Figure 7 — Upsilon (normalised total quality) vs utilisation."""

import pytest

from repro.experiments import run_fig7
from repro.experiments.stats import mean


@pytest.mark.benchmark(group="fig7")
def test_fig7_upsilon_sweep(benchmark, quick_config):
    result = benchmark.pedantic(run_fig7, args=(quick_config,), rounds=1, iterations=1)

    print()
    print("Figure 7 — Upsilon of the offline scheduling methods (reduced-scale reproduction)")
    print(result.to_table())

    series = result.series
    # FPS ignores ideal start times: worst overall quality in every configuration.
    for method in ("gpiocp", "static", "ga"):
        for fps_value, other_value in zip(series["fps"], series[method]):
            assert other_value >= fps_value - 1e-9
    # The GA improves on the heuristic's quality (its sacrificed jobs are placed
    # for schedulability only), which is the paper's reason for the second method.
    assert mean(series["ga"]) >= mean(series["static"]) - 1e-9
    # GPIOCP's quality degrades as utilisation grows.
    assert series["gpiocp"][-1] <= series["gpiocp"][0] + 1e-9
