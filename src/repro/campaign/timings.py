"""Per-cell timing sidecars of a campaign run, and the ``--timings`` table.

The runner appends one JSON line per freshly evaluated cell to an optional
``campaign.metrics.jsonl`` sidecar next to the journal (sharded runs write
``campaign.shard-i-of-n.metrics.jsonl``): cell coordinates, kind
(``schedule``/``simulation``), cache status, and the response's wall-clock
``elapsed_ms``.  Timing is *observability, not result data*: sidecar lines
are wall-clock dependent by nature, so they are never merged, never resumed
from, and never allowed anywhere near the journal — ``campaign.jsonl`` stays
byte-identical with sidecars on or off, at any worker or shard count.

``python -m repro.campaign report --timings`` aggregates every
``*.metrics.jsonl`` in the campaign directory into a p50/p95 table per
(scenario, method, kind) over the *computed* (non-hit) cells.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.spec import CampaignCell
from repro.experiments.stats import format_table, percentile

#: Sidecar of the canonical journal.
TIMINGS_FILENAME = "campaign.metrics.jsonl"

#: All sidecars (canonical + per-shard) a report should aggregate.
TIMINGS_GLOB = "*.metrics.jsonl"

KIND_SCHEDULE = "schedule"
KIND_SIMULATION = "simulation"


def timings_filename(journal_filename: str) -> str:
    """The sidecar filename of a journal: ``<stem>.metrics.jsonl``."""
    stem = journal_filename
    if stem.endswith(".jsonl"):
        stem = stem[: -len(".jsonl")]
    return f"{stem}.metrics.jsonl"


def timing_entry(cell: CampaignCell, *, cache: str, elapsed_s: float) -> Dict[str, object]:
    """One sidecar line: the cell's journal coordinates, kind and timing."""
    return {
        "kind": KIND_SCHEDULE if cell.execution_model is None else KIND_SIMULATION,
        **cell.coordinates(),
        "cache": cache,
        "elapsed_ms": round(max(0.0, elapsed_s) * 1000.0, 3),
    }


def read_timing_entries(directory: Union[str, Path]) -> List[Dict[str, object]]:
    """Every timing entry of a campaign directory (all sidecars, any shard).

    Unreadable lines are skipped — a sidecar torn by an interrupt costs a
    timing sample, never a result.
    """
    entries: List[Dict[str, object]] = []
    for path in sorted(Path(directory).glob(TIMINGS_GLOB)):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and "elapsed_ms" in entry:
                    entries.append(entry)
    return entries


def timings_rows(
    entries: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Aggregate timing entries into p50/p95 rows per (scenario, method, kind).

    Percentiles cover the *computed* cells only — cache hits answer in
    microseconds and would drown the signal; their count is reported in the
    ``hits`` column instead.
    """
    groups: Dict[Tuple[str, str, str], Dict[str, List[float]]] = {}
    for entry in entries:
        try:
            key = (str(entry["sc"]), str(entry["m"]), str(entry["kind"]))
            elapsed_ms = float(entry["elapsed_ms"])  # type: ignore[arg-type]
            cache = str(entry.get("cache", ""))
        except (KeyError, TypeError, ValueError):
            continue
        group = groups.setdefault(key, {"computed": [], "hits": []})
        (group["hits"] if cache == "hit" else group["computed"]).append(elapsed_ms)
    rows: List[Dict[str, object]] = []
    for (scenario, method, kind) in sorted(groups):
        group = groups[(scenario, method, kind)]
        computed = group["computed"]
        row: Dict[str, object] = {
            "scenario": scenario,
            "method": method,
            "kind": kind,
            "n": len(computed) + len(group["hits"]),
            "hits": len(group["hits"]),
        }
        if computed:
            row["p50_ms"] = percentile(computed, 50)
            row["p95_ms"] = percentile(computed, 95)
        else:
            row["p50_ms"] = float("nan")
            row["p95_ms"] = float("nan")
        rows.append(row)
    return rows


def format_timings_table(entries: Iterable[Dict[str, object]]) -> str:
    """The ``--timings`` table: one row per (scenario, method, kind)."""
    rows = timings_rows(entries)
    if not rows:
        return "(no timing sidecars found)"
    return format_table(
        rows,
        columns=["scenario", "method", "kind", "n", "hits", "p50_ms", "p95_ms"],
    )


class TimingsWriter:
    """Lazily appended timing sidecar next to a runner's journal.

    ``directory=None`` (an in-memory campaign) or ``enabled=False`` makes
    every call a no-op, so the runner can always write through this object.
    """

    def __init__(self, directory: Optional[Path], journal_filename: str, enabled: bool):
        self._path = (
            directory / timings_filename(journal_filename)
            if directory is not None and enabled
            else None
        )
        self._handle = None

    def write(self, entry: Dict[str, object]) -> None:
        if self._path is None:
            return
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
