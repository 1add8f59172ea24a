"""Golden digests of the figure sweeps (Figures 5, 6 and 7).

Each case runs ``schedulability_sweep`` (Figure 5) and ``accuracy_sweep``
(Figures 6 and 7) on one engine and compares the SHA-256 of each result's
canonical JSON with a pinned digest.  Any change to cell generation, method
resolution, seeding or series aggregation shows up here as a hard diff, at
either worker count and for a legacy as well as a scenario-backed
configuration.
"""

import hashlib

import pytest

from repro.core.serialization import canonical_json
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.experiments.artifacts import accuracy_sweep_to_dict, sweep_result_to_dict

#: ``(schedulability digest, accuracy digest)`` per configuration.
GOLDEN = {
    "smoke": (
        "3a6cc76135a3f9917a02b5be987c58a186fcf18e06c1ed2ff560705f007c2c0a",
        "17c98235900ffc539bf3747ad26810458ff2a66a0b3476ff3a0bdda78db5be0d",
    ),
    "short-hyperperiod": (
        "7422d963294f12ab5fd3c73dd7346467bf056004b4c121617e8ca43b9d2bc46e",
        "de2c9b417a4f31b4a4ae0b9abfd8638a766ca3532cac3e519b9fb2618106b3d0",
    ),
}

CONFIGS = {
    "smoke": ExperimentConfig.smoke(),
    "short-hyperperiod": ExperimentConfig.smoke().with_overrides(
        scenario="short-hyperperiod"
    ),
}


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_sweeps_match_pinned_digests(name, n_workers):
    with ExperimentEngine(CONFIGS[name], n_workers=n_workers) as engine:
        schedulability = digest(sweep_result_to_dict(engine.schedulability_sweep()))
        accuracy = digest(accuracy_sweep_to_dict(engine.accuracy_sweep()))
    assert (schedulability, accuracy) == GOLDEN[name]
