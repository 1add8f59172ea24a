"""``--verbose`` reports per-worker memo-cache hit/miss counters on stderr."""

import pytest

from repro.core.memo import reset_memos
from repro.obs.metrics import MEMO_OPS_TOTAL, MetricsRegistry
from repro.runtime.__main__ import main as runtime_main
from repro.service.__main__ import main as service_main
from repro.service.batch_cli import format_memo_stats


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


class TestFormatMemoStats:
    def test_no_activity(self):
        assert format_memo_stats({"families": {}}) == "memo caches: (no activity)"
        assert format_memo_stats({}) == "memo caches: (no activity)"

    def test_formats_per_memo_counters_sorted(self):
        registry = MetricsRegistry()
        for op, amount in (("hit", 7), ("miss", 2)):
            registry.counter_inc(MEMO_OPS_TOTAL, amount, memo="materialize", op=op)
        registry.counter_inc(MEMO_OPS_TOTAL, 3, memo="heuristic", op="miss")
        registry.counter_inc(MEMO_OPS_TOTAL, 1, memo="heuristic", op="evict")
        line = format_memo_stats(registry.snapshot())
        assert line == (
            "memo caches: heuristic 0 hits / 3 misses / 1 evictions, "
            "materialize 7 hits / 2 misses"
        )


class TestVerboseCLI:
    def test_service_cli_prints_memo_line(self, tmp_path, capsys):
        assert (
            service_main(
                [
                    "--scenario",
                    "short-hyperperiod",
                    "--systems",
                    "2",
                    "--methods",
                    "static",
                    "-o",
                    str(tmp_path / "responses.jsonl"),
                    "-v",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "memo caches: " in err
        assert "materialize" in err

    def test_runtime_cli_prints_memo_line(self, tmp_path, capsys):
        assert (
            runtime_main(
                [
                    "--scenario",
                    "short-hyperperiod",
                    "--systems",
                    "1",
                    "--methods",
                    "static",
                    "--execution-models",
                    "dedicated-controller",
                    "-o",
                    str(tmp_path / "responses.jsonl"),
                    "-v",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "memo caches: " in err
