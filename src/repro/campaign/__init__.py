"""repro.campaign — declarative multi-scenario campaign orchestration.

The layer that turns the three lower subsystems into one production-shaped
pipeline::

    scenario  (what to evaluate)      repro.scenario.Scenario
       × method (how to schedule)     repro.service.SchedulerSpec
       × system × utilisation × replication
       [× execution model]            optional RuntimeSpec section
    ------------------------------------------------  CampaignSpec (versioned JSON)
    CampaignRunner  — schedule grid -> ScheduleRequests streamed through one
                      SchedulingService (worker pool, dedup, content-addressed
                      cache), then run-time grid -> SimulationRequests through
                      a SimulationService over it; each answer checkpointed
                      to campaign.jsonl
    CampaignReport  — per-(scenario, method) Psi/Upsilon/schedulability/
                      response-time statistics and per-(scenario, method @
                      model) run-time statistics, JSON + Markdown leaderboards

A run-time cell is a :class:`CampaignCell` with an ``execution_model``.

One declarative description in, one queryable aggregated report out — and
both ends are content-addressed, so results are bit-identical at any worker
count and a resumed campaign never mixes with a different grid.

Campaigns also scale *out*: ``CampaignRunner(..., shard=(i, n))`` runs the
``i``-th of ``n`` disjoint content-key ranges of the grid (per-shard
journals, merged byte-identically into ``campaign.jsonl`` once every shard
finishes), and ``cache_backend="sqlite:path=..."`` gives the shard workers
one shared crash-safe cache file (see :mod:`repro.store`).

CLI: ``python -m repro.campaign`` (``run``, ``merge``, ``report``, ``--list``).
"""

from repro.campaign.report import (
    OVERALL,
    REPORT_KIND,
    REPORT_VERSION,
    CampaignReport,
    runtime_label,
)
from repro.campaign.runner import (
    CAMPAIGN_JOURNAL_FILENAME,
    CAMPAIGN_SPEC_FILENAME,
    CampaignResult,
    CampaignRunner,
    cell_request,
    cell_scenario,
    cell_shard,
    cell_values,
    find_shard_journals,
    load_campaign_records,
    maybe_merge_shard_journals,
    merge_shard_journals,
    parse_shard,
    read_campaign_journal_full,
    replication_seed,
    run_campaign,
    runtime_cell_request,
    runtime_cell_shard,
    runtime_cell_values,
    shard_journal_filename,
    shard_of_key,
)
from repro.campaign.spec import (
    CAMPAIGN_KIND,
    CAMPAIGN_METRICS,
    CAMPAIGN_VERSION,
    LOWER_IS_BETTER,
    RUNTIME_LOWER_IS_BETTER,
    RUNTIME_METRICS,
    CampaignCell,
    CampaignLike,
    CampaignSpec,
    RuntimeSpec,
    build_campaign,
    create_campaign,
    load_campaign,
)

__all__ = [
    "CampaignSpec",
    "CampaignCell",
    "CampaignLike",
    "CampaignRunner",
    "CampaignResult",
    "CampaignReport",
    "RuntimeSpec",
    "CAMPAIGN_KIND",
    "CAMPAIGN_VERSION",
    "CAMPAIGN_METRICS",
    "CAMPAIGN_JOURNAL_FILENAME",
    "CAMPAIGN_SPEC_FILENAME",
    "LOWER_IS_BETTER",
    "RUNTIME_METRICS",
    "RUNTIME_LOWER_IS_BETTER",
    "OVERALL",
    "REPORT_KIND",
    "REPORT_VERSION",
    "build_campaign",
    "create_campaign",
    "load_campaign",
    "run_campaign",
    "load_campaign_records",
    "read_campaign_journal_full",
    "cell_request",
    "cell_scenario",
    "cell_shard",
    "cell_values",
    "find_shard_journals",
    "maybe_merge_shard_journals",
    "merge_shard_journals",
    "parse_shard",
    "replication_seed",
    "runtime_cell_request",
    "runtime_cell_shard",
    "runtime_cell_values",
    "runtime_label",
    "shard_journal_filename",
    "shard_of_key",
]
