"""Per-layer metrics of a traced run, and the commands that print them.

Print one workload's traced layer table (self ms, share of the traced wall
time, calls, then every per-layer metric)::

    python3 perfbench/layers.py show perfbench/out/traces/campaign-cold-s2020.json

Compare two traced result files layer by layer (for instance one traced run
of the parent commit and one of a change)::

    python3 perfbench/layers.py compare BASE.json NEW.json

A traced result file is written by every ``--trace 1`` run under
``perfbench/out/traces/<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Memos whose hit ratio is reported (the program's ``get_memo`` names).
MEMOS = ("materialize", "heuristic", "ga-problem", "cell-scenario", "generate-system")

#: The per-layer metrics every traced run reports, in report order:
#: ``(name, unit)``; ``BENCHMARK.json`` lists exactly these.
PER_LAYER: List[Tuple[str, str]] = [
    ("scheduling.static.ms", "ms"),
    ("scheduling.static.calls", "count"),
    ("scheduling.lccd.ms", "ms"),
    ("scheduling.ga.ms", "ms"),
    ("scheduling.ga.calls", "count"),
    ("scheduling.baseline.ms", "ms"),
    ("analysis.ms", "ms"),
    ("core.metrics.ms", "ms"),
    ("taskgen.ms", "ms"),
    ("experiments.ms", "ms"),
    ("scenario.materialize.ms", "ms"),
    ("scenario.materialize.calls", "count"),
    *((f"core.memo.{memo}.hit_ratio", "ratio") for memo in MEMOS),
    ("core.memo.evictions", "count"),
    ("runtime.simulate.ms", "ms"),
    ("runtime.simulate.calls", "count"),
    ("runtime.events", "count"),
    ("runtime.us_per_event", "us"),
    ("sim.run.ms", "ms"),
    ("hardware.controller.ms", "ms"),
    ("noc.send.ms", "ms"),
    ("noc.send.calls", "count"),
    ("core.content_key.ms", "ms"),
    ("core.content_key.calls", "count"),
    ("service.batch.ms", "ms"),
    ("service.envelope.ms", "ms"),
    ("obs.ms", "ms"),
    ("store.get_many.ms", "ms"),
    ("store.get_many.keys", "count"),
    ("store.put_many.ms", "ms"),
    ("store.put_many.keys", "count"),
    ("campaign.ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.computed", "count"),
    ("runtime.computed", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed", "ratio"),
    # The serving daemon and its load generator (0 on the batch workloads).
    ("server.cpu_ms_per_op.closed", "ms/op"),
    ("server.cpu_ms_per_op.open", "ms/op"),
    ("server.frame.ms", "ms"),
    ("server.cache.ms", "ms"),
    ("server.pool.wait_ms", "ms"),
    ("server.pool.compute_ms", "ms"),
    ("server.rejected", "count"),
    ("server.deduped", "count"),
    ("server.errors", "count"),
    ("client.codec.ms", "ms"),
    ("server.open.p50_ms", "ms"),
    ("server.open.p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
]


def merge_tables(*tables: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for layer, row in table.items():
            slot = merged.setdefault(layer, {"self_ms": 0.0, "total_ms": 0.0, "calls": 0})
            for key in slot:
                slot[key] += row.get(key, 0)
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    table: Dict[str, Dict[str, float]],
    daemon_table: Dict[str, Dict[str, float]],
    extra: Dict[str, Any],
    *,
    traced_wall_ms: float,
    counts: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    """Every :data:`PER_LAYER` metric from one traced run's layer tables.

    ``table`` is the benchmark process's, ``daemon_table`` the serving
    daemon's (empty for in-process workloads); ``extra`` carries what the
    workload read off the program (memo, service and daemon counters) and
    the median traced / untraced ratio of the paired passes (``overhead``).
    """
    layers = merge_tables(table, daemon_table)

    def self_ms(layer: str) -> float:
        return layers.get(layer, {}).get("self_ms", 0.0)

    def calls(layer: str) -> int:
        return int(layers.get(layer, {}).get("calls", 0))

    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".ms"):
            values[name] = self_ms(name[: -len(".ms")])
        elif name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])

    memo = extra.get("memo", {})
    for name in MEMOS:
        hits, misses, _ = memo.get(name, [0, 0, 0])
        values[f"core.memo.{name}.hit_ratio"] = _ratio(hits, hits + misses)
    values["core.memo.evictions"] = sum(entry[2] for entry in memo.values())

    events = counts.get("runtime.events", 0)
    simulate_total = layers.get("runtime.simulate", {}).get("total_ms", 0.0)
    values["runtime.events"] = events
    values["runtime.us_per_event"] = _ratio(simulate_total * 1000.0, events)
    values["store.get_many.keys"] = counts.get("store.get_many.keys", 0)
    values["store.put_many.keys"] = counts.get("store.put_many.keys", 0)

    if "services" in extra:
        hits = misses = computed = runtime_computed = 0
        for run in extra["services"]:
            for kind, stats in run.items():
                hits += stats["cache_hits"]
                misses += stats["cache_misses"]
            computed += run["schedule"]["computed"]
            runtime_computed += run["simulation"]["computed"]
        values["service.cache.hit_ratio"] = _ratio(hits, hits + misses)
        values["service.computed"] = computed
        values["runtime.computed"] = runtime_computed
    elif "computed" in extra:
        values["service.cache.hit_ratio"] = _ratio(
            extra["cache_hits"], extra["cache_hits"] + extra["cache_misses"]
        )
        values["service.computed"] = extra["computed"]
        values["runtime.computed"] = 0
    else:
        values["service.cache.hit_ratio"] = 0.0
        values["service.computed"] = 0
        values["runtime.computed"] = 0

    counters = extra.get("counters", {})
    values["server.cpu_ms_per_op.closed"] = extra.get("cpu_ms_per_op_a", 0.0)
    values["server.cpu_ms_per_op.open"] = extra.get("cpu_ms_per_op_b", 0.0)
    values["server.pool.wait_ms"] = extra.get("pool_wait_ms", 0.0)
    values["server.pool.compute_ms"] = extra.get("pool_compute_ms", 0.0)
    for key in ("rejected", "deduped", "errors"):
        values[f"server.{key}"] = counters.get(key, 0)
    values["server.open.p50_ms"] = extra.get("p50_ms", 0.0)
    values["server.open.p99_ms"] = extra.get("p99_ms", 0.0)
    values["loadgen.late_p99_ms"] = extra.get("late_p99_ms", 0.0)

    values["trace.overhead"] = extra["overhead"]
    if "daemon_unattributed" in extra:
        values["trace.unattributed"] = extra["daemon_unattributed"]
    else:
        values["trace.unattributed"] = _ratio(self_ms("op"), traced_wall_ms)

    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- the commands ------------------------------------------------------------------


def load(path: str) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def layer_rows(result: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    return merge_tables(result.get("layers", {}), result.get("daemon_layers", {}))


def _table_lines(title: str, rows: Dict[str, Dict[str, float]], wall: float) -> List[str]:
    lines = [f"{title}: wall {wall:.1f} ms", f"{'layer':<24}{'self ms':>12}{'share':>9}{'calls':>12}"]
    for layer, row in sorted(rows.items(), key=lambda item: -item[1]["self_ms"]):
        if not row["calls"]:
            continue
        label = "op (unattributed)" if layer == "op" else layer
        lines.append(
            f"{label:<24}{row['self_ms']:>12.1f}{_ratio(row['self_ms'], wall):>9.1%}"
            f"{int(row['calls']):>12}"
        )
    return lines


def show(result: Dict[str, Any]) -> str:
    lines = [
        f"{result['workload']}  seed {result['seed']}  traced wall {result['wall_ms']:.1f} ms  "
        f"(traced / untraced per pair: "
        f"{', '.join(f'{ratio:.3f}' for ratio in result['overhead_ratios'])})",
        "",
    ]
    lines += _table_lines("benchmark process", result["layers"], result["wall_ms"])
    if result.get("daemon_layers"):
        lines.append("")
        lines += _table_lines(
            "daemon process, phases (a) and (b)", result["daemon_layers"], result["daemon_wall_ms"]
        )
    lines.append("")
    lines.append(f"{'metric':<36}{'value':>14}  unit")
    for name, metric in result["metrics"].items():
        lines.append(f"{name:<36}{metric['value']:>14.4g}  {metric['unit']}")
    return "\n".join(lines)


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    if base["workload"] != new["workload"]:
        raise SystemExit(
            f"cannot compare {base['workload']} with {new['workload']}: different workloads"
        )
    lines = [
        f"{base['workload']}  base seed {base['seed']}  new seed {new['seed']}",
        f"{'layer':<24}{'base ms':>12}{'new ms':>12}{'delta ms':>12}{'delta':>9}"
        f"{'base calls':>12}{'new calls':>12}",
    ]
    base_rows, new_rows = layer_rows(base), layer_rows(new)
    empty = {"self_ms": 0.0, "calls": 0}
    for layer in sorted(set(base_rows) | set(new_rows)):
        b, n = base_rows.get(layer, empty), new_rows.get(layer, empty)
        delta = n["self_ms"] - b["self_ms"]
        share = f"{_ratio(delta, b['self_ms']):>9.1%}" if b["self_ms"] else f"{'-':>9}"
        lines.append(
            f"{layer:<24}{b['self_ms']:>12.1f}{n['self_ms']:>12.1f}{delta:>12.1f}{share}"
            f"{int(b['calls']):>12}{int(n['calls']):>12}"
        )
    lines.append(
        f"{'traced wall':<24}{base['wall_ms']:>12.1f}{new['wall_ms']:>12.1f}"
        f"{new['wall_ms'] - base['wall_ms']:>12.1f}"
    )
    lines.append("")
    lines.append(f"{'metric':<36}{'base':>14}{'new':>14}  unit")
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name, {}).get("value", float("nan"))
        lines.append(f"{name:<36}{metric['value']:>14.4g}{other:>14.4g}  {metric['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer tables of traced benchmark runs.")
    commands = parser.add_subparsers(dest="command", required=True)
    show_parser = commands.add_parser("show", help="print one traced run's layer table")
    show_parser.add_argument("result")
    compare_parser = commands.add_parser("compare", help="compare two traced runs layer by layer")
    compare_parser.add_argument("base")
    compare_parser.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "show":
        print(show(load(args.result)))
    else:
        print(compare(load(args.base), load(args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
