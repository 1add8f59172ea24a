"""``CampaignReport`` — queryable aggregation of a campaign's cells.

One report summarises every ``(scenario, method)`` pair of a campaign grid:
for each selected metric, the per-pair sample statistics
(:class:`~repro.experiments.stats.SeriesStats` over systems × replications ×
utilisation points) plus an ``overall`` per-method aggregate across all
scenarios, which feeds the per-metric leaderboard.

Reports are values with the same discipline as everything else in the
pipeline: a lossless versioned JSON round-trip
(``kind="repro/campaign-report"``, version 1) and deterministic content —
aggregation always walks cells in the spec's canonical grid order, so a
report built from a 1-worker run and one from a 4-worker (or resumed) run of
the same campaign are **byte-identical** JSON.

Emitters: :meth:`~CampaignReport.to_json` (machine-readable),
:meth:`~CampaignReport.to_markdown` (leaderboard table per metric) and
:meth:`~CampaignReport.to_text` (aligned plain-text tables via
:func:`repro.experiments.stats.format_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign.spec import (
    LOWER_IS_BETTER,
    RUNTIME_LOWER_IS_BETTER,
    CampaignSpec,
)
from repro.core.serialization import (
    JsonEnvelope,
    parse_versioned_payload,
    versioned_payload,
)
from repro.experiments.stats import SeriesStats, format_table

REPORT_KIND = "repro/campaign-report"
#: Version 2 added the optional run-time section; reports without one are
#: still written as version 1 so that version-1 readers keep working.
REPORT_VERSION = 2

#: Aggregate statistics of one (scenario, method, metric) sample.
StatsDict = Dict[str, float]

#: Pseudo-scenario key under which the all-scenarios aggregate is stored.
OVERALL = "overall"


def _stats_dict(values: List[float]) -> StatsDict:
    stats = SeriesStats.of(values)
    return {
        "n": stats.n,
        "mean": stats.mean,
        "std": stats.std,
        "min": stats.minimum,
        "max": stats.maximum,
        "median": stats.median,
    }


def _format_value(metric: str, value: float) -> str:
    if metric in ("response_time", "faults_detected", "skipped_jobs"):
        return f"{value:.1f}"
    return f"{value:.4f}"


def runtime_label(method: str, execution_model: str) -> str:
    """The leaderboard label of one (method, execution model) pair."""
    return f"{method} @ {execution_model}"


@dataclass(frozen=True)
class CampaignReport(JsonEnvelope):
    """Aggregated per-(scenario, method) statistics of one campaign.

    ``entries`` maps ``metric -> scenario -> method -> stats`` where
    ``scenario`` also takes the pseudo-key :data:`OVERALL` for the
    across-scenarios aggregate; pairs with no completed cells are simply
    absent.  ``n_cells_aggregated`` < ``n_cells_expected`` flags a report
    built from a partial (interrupted) campaign.

    Campaigns with a ``runtime`` section additionally aggregate their
    simulation cells into ``runtime_entries``, keyed
    ``metric -> scenario -> "method @ execution-model" -> stats`` (see
    :func:`runtime_label`), with their own expected/aggregated counters and
    per-metric leaderboards over the (method, execution model) pairs.
    """

    name: str
    campaign_key: str
    metrics: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    methods: Tuple[str, ...]
    n_cells_expected: int
    n_cells_aggregated: int
    entries: Dict[str, Dict[str, Dict[str, StatsDict]]]
    runtime_metrics: Tuple[str, ...] = ()
    runtime_labels: Tuple[str, ...] = ()
    n_runtime_cells_expected: int = 0
    n_runtime_cells_aggregated: int = 0
    runtime_entries: Dict[str, Dict[str, Dict[str, StatsDict]]] = field(
        default_factory=dict
    )

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        spec: CampaignSpec,
        records: Mapping[Tuple, Mapping[str, Any]],
        *,
        runtime_records: Optional[Mapping[Tuple, Mapping[str, Any]]] = None,
    ) -> "CampaignReport":
        """Aggregate journalled cell records (see ``CampaignRunner``).

        Cells are visited in the spec's canonical grid order regardless of
        the order ``records`` (and ``runtime_records``) was populated in,
        which makes the resulting report (and its JSON serialisation)
        independent of worker count, chunking and resume history.
        """
        scenario_names = tuple(scenario.name for scenario in spec.scenarios)
        method_names = tuple(str(method) for method in spec.methods)

        samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
            metric: {
                scenario: {method: [] for method in method_names}
                for scenario in (*scenario_names, OVERALL)
            }
            for metric in spec.metrics
        }
        aggregated = 0
        for cell in spec.cells():
            values = records.get(cell.key())
            if values is None:
                continue
            aggregated += 1
            for metric in spec.metrics:
                if metric not in values:
                    continue
                value = float(values[metric])
                samples[metric][cell.scenario][cell.method].append(value)
                samples[metric][OVERALL][cell.method].append(value)

        entries: Dict[str, Dict[str, Dict[str, StatsDict]]] = {}
        for metric, per_scenario in samples.items():
            for scenario, per_method in per_scenario.items():
                for method, values in per_method.items():
                    if not values:
                        continue
                    entries.setdefault(metric, {}).setdefault(scenario, {})[
                        method
                    ] = _stats_dict(values)

        runtime_metrics: Tuple[str, ...] = ()
        runtime_label_names: Tuple[str, ...] = ()
        runtime_entries: Dict[str, Dict[str, Dict[str, StatsDict]]] = {}
        runtime_aggregated = 0
        if spec.runtime is not None:
            runtime_metrics = spec.runtime.metrics
            runtime_label_names = tuple(
                runtime_label(method, str(model))
                for method in method_names
                for model in spec.runtime.execution_models
            )
            runtime_samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
                metric: {
                    scenario: {label: [] for label in runtime_label_names}
                    for scenario in (*scenario_names, OVERALL)
                }
                for metric in runtime_metrics
            }
            runtime_records = runtime_records or {}
            for cell in spec.runtime_cells():
                values = runtime_records.get(cell.key())
                if values is None:
                    continue
                runtime_aggregated += 1
                label = runtime_label(cell.method, cell.execution_model)
                for metric in runtime_metrics:
                    if metric not in values:
                        continue
                    value = float(values[metric])
                    runtime_samples[metric][cell.scenario][label].append(value)
                    runtime_samples[metric][OVERALL][label].append(value)
            for metric, per_scenario in runtime_samples.items():
                for scenario, per_label in per_scenario.items():
                    for label, values in per_label.items():
                        if not values:
                            continue
                        runtime_entries.setdefault(metric, {}).setdefault(scenario, {})[
                            label
                        ] = _stats_dict(values)

        return cls(
            name=spec.name,
            campaign_key=spec.content_key(),
            metrics=spec.metrics,
            scenarios=scenario_names,
            methods=method_names,
            n_cells_expected=spec.n_cells,
            n_cells_aggregated=aggregated,
            entries=entries,
            runtime_metrics=runtime_metrics,
            runtime_labels=runtime_label_names,
            n_runtime_cells_expected=spec.n_runtime_cells,
            n_runtime_cells_aggregated=runtime_aggregated,
            runtime_entries=runtime_entries,
        )

    # -- queries -----------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return (
            self.n_cells_aggregated == self.n_cells_expected
            and self.n_runtime_cells_aggregated == self.n_runtime_cells_expected
        )

    @property
    def has_runtime(self) -> bool:
        """Whether the campaign carried a run-time section."""
        return bool(self.runtime_metrics)

    def stats(self, metric: str, scenario: str, method: str) -> Optional[StatsDict]:
        """The stats of one (metric, scenario, method) entry, or ``None``."""
        return self.entries.get(metric, {}).get(scenario, {}).get(method)

    def leaderboard(self, metric: str) -> List[Tuple[str, StatsDict]]:
        """Methods ranked by their overall mean of ``metric`` (best first).

        Higher is better except for the metrics in
        :data:`~repro.campaign.spec.LOWER_IS_BETTER`; ties break by method
        name so rankings are stable.
        """
        overall = self.entries.get(metric, {}).get(OVERALL, {})
        reverse = metric not in LOWER_IS_BETTER
        return sorted(
            overall.items(),
            key=lambda item: ((-item[1]["mean"]) if reverse else item[1]["mean"], item[0]),
        )

    def runtime_leaderboard(self, metric: str) -> List[Tuple[str, StatsDict]]:
        """(method, execution model) pairs ranked by their overall mean.

        Higher is better except for the metrics in
        :data:`~repro.campaign.spec.RUNTIME_LOWER_IS_BETTER`; ties break by
        label so rankings are stable.
        """
        overall = self.runtime_entries.get(metric, {}).get(OVERALL, {})
        reverse = metric not in RUNTIME_LOWER_IS_BETTER
        return sorted(
            overall.items(),
            key=lambda item: ((-item[1]["mean"]) if reverse else item[1]["mean"], item[0]),
        )

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "campaign_key": self.campaign_key,
            "metrics": list(self.metrics),
            "scenarios": list(self.scenarios),
            "methods": list(self.methods),
            "cells": {
                "expected": self.n_cells_expected,
                "aggregated": self.n_cells_aggregated,
            },
            "entries": self.entries,
        }
        if self.has_runtime:
            data["runtime"] = {
                "metrics": list(self.runtime_metrics),
                "labels": list(self.runtime_labels),
                "cells": {
                    "expected": self.n_runtime_cells_expected,
                    "aggregated": self.n_runtime_cells_aggregated,
                },
                "entries": self.runtime_entries,
            }
        # Reports without a runtime section serialise exactly as version 1
        # did, so payloads only claim the newer version when they need it.
        version = REPORT_VERSION if self.has_runtime else 1
        return versioned_payload(REPORT_KIND, version, data)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignReport":
        _, data = parse_versioned_payload(
            dict(payload), REPORT_KIND, max_version=REPORT_VERSION
        )
        cells = data.get("cells") or {}
        runtime = data.get("runtime") or {}
        runtime_cells = runtime.get("cells") or {}

        def _entries(source: Mapping) -> Dict[str, Dict[str, Dict[str, StatsDict]]]:
            return {
                metric: {
                    scenario: {method: dict(stats) for method, stats in per_method.items()}
                    for scenario, per_method in per_scenario.items()
                }
                for metric, per_scenario in source.items()
            }

        return cls(
            name=str(data["name"]),
            campaign_key=str(data["campaign_key"]),
            metrics=tuple(data["metrics"]),
            scenarios=tuple(data["scenarios"]),
            methods=tuple(data["methods"]),
            n_cells_expected=int(cells.get("expected", 0)),
            n_cells_aggregated=int(cells.get("aggregated", 0)),
            entries=_entries(data.get("entries") or {}),
            runtime_metrics=tuple(runtime.get("metrics") or ()),
            runtime_labels=tuple(runtime.get("labels") or ()),
            n_runtime_cells_expected=int(runtime_cells.get("expected", 0)),
            n_runtime_cells_aggregated=int(runtime_cells.get("aggregated", 0)),
            runtime_entries=_entries(runtime.get("entries") or {}),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return super().to_json(indent=indent)

    # -- human-readable emitters -------------------------------------------------

    def _header_lines(self) -> List[str]:
        coverage = f"{self.n_cells_aggregated}/{self.n_cells_expected} cells"
        if self.has_runtime:
            coverage += (
                f" + {self.n_runtime_cells_aggregated}/"
                f"{self.n_runtime_cells_expected} runtime cells"
            )
        if not self.complete:
            coverage += " (PARTIAL — campaign not finished)"
        lines = [
            f"campaign: {self.name} ({self.campaign_key})",
            f"coverage: {coverage}",
            f"scenarios: {', '.join(self.scenarios)}",
            f"methods: {', '.join(self.methods)}",
        ]
        if self.has_runtime:
            lines.append(f"runtime: {', '.join(self.runtime_labels)}")
        return lines

    def _boards(self) -> List[Tuple[str, str, bool, List[Tuple[str, StatsDict]], str]]:
        """Every leaderboard to emit: (title, metric, lower_is_better, board, kind).

        Schedule-metric boards first, then run-time boards (titled
        ``runtime:<metric>``), both in canonical metric order.
        """
        boards = []
        for metric in self.metrics:
            boards.append(
                (metric, metric, metric in LOWER_IS_BETTER, self.leaderboard(metric), "method")
            )
        for metric in self.runtime_metrics:
            boards.append(
                (
                    f"runtime:{metric}",
                    metric,
                    metric in RUNTIME_LOWER_IS_BETTER,
                    self.runtime_leaderboard(metric),
                    "method @ execution model",
                )
            )
        return boards

    def _scenario_stats(self, title: str, metric: str, scenario: str, label: str):
        if title.startswith("runtime:"):
            return self.runtime_entries.get(metric, {}).get(scenario, {}).get(label)
        return self.stats(metric, scenario, label)

    def to_markdown(self) -> str:
        """Markdown report: one ranked leaderboard table per metric."""
        lines = [f"# Campaign report — {self.name}", ""]
        lines += [f"- {entry}" for entry in self._header_lines()]
        for title, metric, lower, board, label_kind in self._boards():
            if not board:
                continue
            direction = "lower is better" if lower else "higher is better"
            lines += ["", f"## {title} ({direction})", ""]
            header = ["rank", label_kind, OVERALL, *self.scenarios]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "|".join(" --- " for _ in header) + "|")
            for rank, (label, overall_stats) in enumerate(board, start=1):
                row = [str(rank), f"`{label}`"]
                row.append(
                    f"{_format_value(metric, overall_stats['mean'])} "
                    f"± {_format_value(metric, overall_stats['std'])}"
                )
                for scenario in self.scenarios:
                    stats = self._scenario_stats(title, metric, scenario, label)
                    if stats is None:
                        row.append("—")
                    else:
                        row.append(
                            f"{_format_value(metric, stats['mean'])} "
                            f"± {_format_value(metric, stats['std'])}"
                        )
                lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned plain-text tables (the CLI's default ``--format table``)."""
        blocks = list(self._header_lines())
        for title, _metric, _lower, board, label_kind in self._boards():
            if not board:
                continue
            rows = []
            for rank, (label, overall_stats) in enumerate(board, start=1):
                row: Dict[str, Any] = {
                    "rank": rank,
                    label_kind.split(" ")[0]: label,
                    "mean": overall_stats["mean"],
                    "std": overall_stats["std"],
                    "median": overall_stats["median"],
                    "min": overall_stats["min"],
                    "max": overall_stats["max"],
                    "n": overall_stats["n"],
                }
                rows.append(row)
            blocks += ["", f"== {title} ==", format_table(rows)]
        return "\n".join(blocks) + "\n"
