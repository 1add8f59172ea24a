"""The daemon's metrics RPC: Prometheus exposition over a live socket."""

import re

import pytest

from repro.server import ServerClient, ThreadedServer
from repro.service.batch_cli import scenario_requests

SCENARIO = "short-hyperperiod"


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(n_workers=1, port=0) as threaded:
        yield threaded.server


@pytest.fixture()
def client(server):
    with ServerClient(server.host, server.port) as connected:
        yield connected


def counter_value(text, name, **labels):
    """Extract one sample value from exposition text (None when absent)."""
    label_str = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    braces = re.escape("{" + label_str + "}") if labels else ""
    pattern = rf"^{re.escape(name)}{braces} (\S+)$"
    match = re.search(pattern, text, flags=re.MULTILINE)
    return float(match.group(1)) if match else None


class TestMetricsOp:
    def test_metrics_op_returns_prometheus_text(self, client):
        text = client.metrics()
        assert "# TYPE repro_server_uptime_seconds gauge" in text
        assert "# TYPE repro_server_connections_open gauge" in text

    def test_request_counters_appear_after_a_batch(self, server, client):
        envelopes = [
            request.to_dict()
            for request in scenario_requests(SCENARIO, ["static"], 2)
        ]
        client.submit_envelopes(envelopes)
        client.submit_envelopes(envelopes)
        text = client.metrics()
        assert counter_value(
            text, "repro_requests_total", cache="miss", kind="schedule"
        ) >= 2
        assert counter_value(
            text, "repro_requests_total", cache="hit", kind="schedule"
        ) >= 2
        assert counter_value(text, "repro_server_computed_total", kind="schedule") >= 2

    def test_latency_histogram_has_cumulative_buckets(self, client):
        text = client.metrics()
        buckets = re.findall(
            r'repro_request_latency_ms_bucket\{kind="schedule",phase="cache-lookup",'
            r'le="([^"]+)"\} (\d+)',
            text,
        )
        assert buckets, "no cache-lookup histogram in exposition"
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1][0] == "+Inf"

    def test_stats_and_metrics_agree(self, server, client):
        stats = client.stats()
        text = client.metrics()
        computed = counter_value(text, "repro_server_computed_total", kind="schedule")
        assert computed == stats["schedule"]["computed"]
        admitted = counter_value(text, "repro_server_requests_total", result="admitted")
        assert admitted == stats["requests"]["admitted"]

    def test_gauges_reflect_live_state(self, server, client):
        text = client.metrics()
        assert counter_value(text, "repro_server_uptime_seconds") > 0
        assert counter_value(text, "repro_server_connections_open") >= 1
        assert counter_value(text, "repro_server_connections_total") >= 1

    def test_exposition_lines_are_well_formed(self, client):
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$")
        for line in client.metrics().splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line


class TestMetricsCli:
    def test_one_shot_metrics_subcommand_prints_exposition(self, server, capsys):
        from repro.server.__main__ import main

        assert main(["metrics", "--server", f"{server.host}:{server.port}"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_uptime_seconds gauge" in out


class TestByteIdentityThroughTheDaemon:
    def test_daemon_answers_match_batch_service(self, client):
        from repro.service import SchedulingService

        requests = scenario_requests(SCENARIO, ["gpiocp"], 1)
        envelopes = [request.to_dict() for request in requests]
        answers = client.submit_envelopes(envelopes)
        with SchedulingService() as service:
            expected = service.submit_batch(requests)
        assert answers[0]["data"]["result"] == expected[0].to_dict()["data"]["result"]
        assert set(answers[0]["data"]) == {"id", "result", "cache", "timing"}
