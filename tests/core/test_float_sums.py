"""Float totals come out the same on every supported Python version.

Since Python 3.12 the built-in ``sum()`` adds floats with compensation, so a
float total computed with ``sum()`` can differ in its last bits between 3.11
and 3.12.  Upsilon (``repro.core.metrics``) and the series statistics
(``repro.experiments.stats``) reach pinned digests, so they add left to right
in a plain loop or with ``np.cumsum``.  The simulation goldens pin the
run-time Upsilon and the deviation and NoC-latency means.  These tests
rerun the goldens that read such totals with ``builtins.sum`` replaced by
an emulation of the 3.12 algorithm (``sum312.compensated_sum``) and expect
the same digests.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sum312 import compensated_sum

ROOT = Path(__file__).resolve().parents[2]

#: Tests whose pinned digests or exact comparisons read float totals.
FLOAT_SUM_GOLDENS = (
    "tests/experiments/test_figure_golden.py",
    "tests/scheduling/test_ga_paper_population_golden.py",
    "tests/scheduling/test_heuristic_golden.py",
    "tests/scheduling/test_ga_kernels_at_scale.py"
    "::test_evaluate_batch_matches_scalar_on_generator_partitions",
    "tests/scheduling/test_ga_vectorized_properties.py"
    "::TestBatchedFitnessKernels::test_evaluate_batch_matches_scalar_evaluate",
    "tests/runtime/test_simulation_golden.py",
)


def random_items(rng):
    items = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.7:
            items.append(rng.uniform(-1, 1) * 10 ** rng.randint(-5, 17))
        elif kind < 0.9:
            items.append(rng.randint(-(10**6), 10**6))
        else:
            items.append(rng.random())
    return items


def test_emulation_compensates():
    total = 0
    for value in [0.1] * 10:
        total += value
    assert total == 0.9999999999999999
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([[1], [2]], []) == [1, 2]


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sum() compensates from 3.12 on")
def test_emulation_matches_builtin_sum():
    rng = random.Random(7)
    for _ in range(2000):
        items = random_items(rng)
        assert repr(compensated_sum(items)) == repr(sum(items))


def test_goldens_hold_under_compensated_sum():
    code = (
        "import builtins, sys, pytest, sum312\n"
        "builtins.sum = sum312.compensated_sum\n"
        "assert sum([0.1] * 10) == 1.0\n"
        "sys.exit(pytest.main(sys.argv[1:]))\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests" / "core")]),
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, "-q", "-p", "no:cacheprovider", *FLOAT_SUM_GOLDENS],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]
