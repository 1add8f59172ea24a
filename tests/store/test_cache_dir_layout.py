"""Where each batch CLI's ``--cache-dir DIR`` stores its entries.

``python -m repro.service`` and ``python -m repro.campaign run`` write
schedules straight into ``DIR`` (the campaign keeps run-time results in
memory).  ``python -m repro.runtime`` splits ``DIR`` into ``schedules/`` and
``sim-responses/``, as the daemon does (pinned by
``test_serve_request_warm_shutdown``).  Existing caches are laid out this
way, so the layouts must not change.
"""

from repro.campaign.__main__ import main as campaign_main
from repro.runtime.__main__ import main as runtime_main
from repro.service.__main__ import main as service_main

METHODS = ["--methods", "static"]
MODELS = ["--execution-models", "dedicated-controller"]


def entry_dirs(root):
    """The directory, relative to ``root``, of every stored cache entry."""
    return sorted(str(path.parent.relative_to(root)) for path in root.rglob("*.json"))


def test_batch_cli_cache_dir_layouts(tmp_path):
    service, campaign, runtime = (tmp_path / name for name in ("service", "campaign", "runtime"))
    scenario = ["--scenario", "short-hyperperiod", *METHODS]
    output = ["-o", str(tmp_path / "out.jsonl")]
    assert service_main([*scenario, "--cache-dir", str(service), *output]) == 0
    assert campaign_main(
        ["run", "--scenarios", "short-hyperperiod", *METHODS, *MODELS,
         "--cache-dir", str(campaign), "--report", "none"]
    ) == 0
    assert runtime_main([*scenario, *MODELS, "--cache-dir", str(runtime), *output]) == 0
    assert entry_dirs(service) == ["."]
    assert entry_dirs(campaign) == ["."]  # the run-time cell is not persisted
    assert entry_dirs(runtime) == ["schedules", "sim-responses"]
