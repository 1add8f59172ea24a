"""Benchmark of the run-time execution experiment (Sections I and IV).

Not a numbered figure of the paper, but the architectural claim behind it:
executing the offline schedule on the dedicated controller preserves every
start time exactly, while CPU-instigated I/O over the NoC loses exactness to
communication latency and arbitration jitter.

Every round starts on cold per-process memos (``reset_memos`` in the
round's set-up), so each times the same work: the system draw, the offline
schedule and both run-time executions.
"""

import pytest

from repro.core.memo import reset_memos
from repro.experiments import run_controller_sim
from repro.experiments.stats import format_table


@pytest.mark.benchmark(group="controller-sim")
def test_controller_runtime_vs_remote_cpu(benchmark, quick_config):
    def cold_memos():
        reset_memos()
        return (), {}

    result = benchmark.pedantic(
        lambda: run_controller_sim(utilisation=0.5, config=quick_config, seed=11),
        setup=cold_memos,
        rounds=5,
        iterations=1,
    )

    print()
    print("Run-time execution of the same offline schedule")
    print(format_table(result.rows()))
    print(f"NoC request latency: mean {result.mean_noc_latency:.1f} us, "
          f"max {result.max_noc_latency} us")

    # The dedicated controller reproduces the offline schedule exactly.
    assert result.controller_matches_offline
    assert result.controller_psi == pytest.approx(result.offline_psi)
    # CPU-instigated I/O pays NoC latency on every request: exactness collapses.
    assert result.remote_cpu_psi < result.controller_psi
    assert result.mean_noc_latency > 0
