"""Byte pins of what ``python -m repro.campaign`` writes.

Two grids run through the CLI in-process: a schedule-only grid (two
systems, two replications, a small GA) and a run-time grid (the
``faulty-controller`` preset at one pinned utilisation, run on both
execution models).  These tests pin

- the journal bytes of each grid, and of the run-time grid split over two
  shards and merged;
- the ``run --report json`` output and the ``report`` subcommand's JSON,
  Markdown and table output of both grids;
- the timing-sidecar lines, with ``elapsed_ms`` masked;
- the journal of a run whose ``--max-cells`` budget ends exactly at the
  schedule/run-time boundary, its partial table report, and its resume;
- the ``run`` subcommand's stderr lines (merge paths masked).

The digests were computed once and are literals on purpose: do not update
them to make a change pass.
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

import pytest

from repro.campaign.__main__ import main

SCHEDULE_FLAGS = [
    "--name", "pins-schedule",
    "--scenarios", "short-hyperperiod",
    "--methods", "static", "ga:generations=3,population_size=8",
    "--systems", "2",
    "--replications", "2",
]
RUNTIME_FLAGS = [
    "--name", "pins-runtime",
    "--scenarios", "faulty-controller",
    "--methods", "static", "gpiocp",
    "--systems", "2",
    "--utilisations", "0.35",
    "--execution-models", "dedicated-controller", "cpu-instigated",
]
SCHEDULE_KEY = "7912a73bc859110f"
RUNTIME_KEY = "10500909b802ea9c"

ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')
MERGED = re.compile(r"merged shard journals into \S+")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(*argv: str) -> str:
    """Run ``python -m repro.campaign`` in-process; its stderr text."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
    return MERGED.sub("merged shard journals into <journal>", stderr.getvalue())


def masked_timings(path: Path) -> bytes:
    return ELAPSED.sub('"elapsed_ms": 0', path.read_text(encoding="utf-8")).encode()


def run_grid(root: Path, flags, key: str) -> dict:
    """One timed run, then every report format; the bytes each wrote."""
    artifact = str(root)
    err = cli("run", *flags, "--artifact-dir", artifact, "--timings",
              "--report", "json", "-o", str(root / "run.json"))
    outputs = {"run-stderr": err, "run-json": (root / "run.json").read_bytes()}
    for fmt in ("json", "md", "table"):
        target = root / f"report.{fmt}"
        cli("report", "--artifact-dir", artifact, "--format", fmt, "-o", str(target))
        outputs[f"report-{fmt}"] = target.read_bytes()
    directory = root / key
    outputs["journal"] = (directory / "campaign.jsonl").read_bytes()
    outputs["timings"] = masked_timings(directory / "campaign.metrics.jsonl")
    return outputs


@pytest.fixture(scope="module")
def schedule_grid(tmp_path_factory):
    return run_grid(tmp_path_factory.mktemp("schedule"), SCHEDULE_FLAGS, SCHEDULE_KEY)


@pytest.fixture(scope="module")
def runtime_grid(tmp_path_factory):
    return run_grid(tmp_path_factory.mktemp("runtime"), RUNTIME_FLAGS, RUNTIME_KEY)


SCHEDULE_DIGESTS = {
    "journal": "cc6f7e6ec976f3bbbdf47c3063e4af601cc5395ee010f18e05fb7a07926185ae",
    "timings": "83a34a5fc7164272613dfb673acbec3bb5af0aa60a5bc84c4f3d0bbd0d637146",
    "run-json": "0e8f18b284ca325b05858e044ecf6bf80a51a63487ba9493be6aa0a4f315da69",
    "report-json": "0e8f18b284ca325b05858e044ecf6bf80a51a63487ba9493be6aa0a4f315da69",
    "report-md": "dae7773f32575ec35fa539f3e842306881782b6e5a081feaf6d141583cb54226",
    "report-table": "451a4828543810cb2985fbe1461f6f4a0850dbea7dca8f5dd841aae42445555b",
}
RUNTIME_DIGESTS = {
    "journal": "3fa92aa7ddf98f7630446abfd16da7014a30ce112f510dc339fa20b67129933d",
    "timings": "b4f7c643436d1ff0e9bda5be3eb6cb0a254a017d9e9e0e99796c48f9ac500a0a",
    "run-json": "bb2e796b442850f30c51e5f1d9f03187e762ff804fe16ed3d07bdfe2bcb9e468",
    "report-json": "bb2e796b442850f30c51e5f1d9f03187e762ff804fe16ed3d07bdfe2bcb9e468",
    "report-md": "e22b411bd9b031289601de856b4ff8b8b9b42ebd60b1c2a7aa734976d6b835e3",
    "report-table": "77d1331aa9f25a86b39ac008ec5bd1f9ddd13cf1ff16986712822bb7da885d36",
}
SHARD_DIGESTS = {
    "campaign.shard-1-of-2.jsonl": (
        "611378ae654ea94edb4fb0844fb0b51012a8cd6792aed3e22d8873d780c05ac2"
    ),
    "campaign.shard-2-of-2.jsonl": (
        "4729e0413aa87eade817a8740d7f2a073518c735f8f294199f713733cecff2f4"
    ),
    "campaign.shard-1-of-2.metrics.jsonl": (
        "ab10567c89897aa5535ef9270ec5dbb7bb7b7556e31ba212448b89b0db96f478"
    ),
    "campaign.shard-2-of-2.metrics.jsonl": (
        "a2dcc2fee886c9983ccef39457d8f7f71b7b343cd5172bd90f961acc4db8adb0"
    ),
}
SHARD_STDERR = (
    f"campaign 'pins-runtime' ({RUNTIME_KEY}) shard 1/2: 9 evaluated, 0 resumed, "
    "3/3 cells done, 6/6 runtime cells done\n",
    f"campaign 'pins-runtime' ({RUNTIME_KEY}) shard 2/2: 3 evaluated, 0 resumed, "
    "1/1 cells done, 2/2 runtime cells done\n"
    "merged shard journals into <journal>\n",
)
BOUNDARY_DIGESTS = {
    "journal": "1b73adf8eabba0216316abe100231d7de1141642604860f3a9584cd308afcd97",
    "partial-table": "5b0077aad2dac1fc717788a04dfeff3047206089b9e5a54e465d5fd69d4f71a8",
}


class TestScheduleGrid:
    @pytest.mark.parametrize("name", sorted(SCHEDULE_DIGESTS))
    def test_bytes(self, schedule_grid, name):
        assert sha(schedule_grid[name]) == SCHEDULE_DIGESTS[name]

    def test_journal_shape(self, schedule_grid):
        assert schedule_grid["journal"].count(b"\n") == 8
        assert b'"x":' not in schedule_grid["journal"]

    def test_stderr(self, schedule_grid):
        assert schedule_grid["run-stderr"] == (
            f"campaign 'pins-schedule' ({SCHEDULE_KEY}): 8 evaluated, 0 resumed, "
            "8/8 cells done\n"
        )


class TestRuntimeGrid:
    @pytest.mark.parametrize("name", sorted(RUNTIME_DIGESTS))
    def test_bytes(self, runtime_grid, name):
        assert sha(runtime_grid[name]) == RUNTIME_DIGESTS[name]

    def test_journal_shape(self, runtime_grid):
        lines = runtime_grid["journal"].splitlines()
        assert len(lines) == 12
        assert [b'"x":' in line for line in lines] == [False] * 4 + [True] * 8

    def test_stderr(self, runtime_grid):
        assert runtime_grid["run-stderr"] == (
            f"campaign 'pins-runtime' ({RUNTIME_KEY}): 12 evaluated, 0 resumed, "
            "4/4 cells done, 8/8 runtime cells done\n"
        )


class TestShardedRuntimeGrid:
    def test_two_shards_merge_to_the_single_run_journal(self, runtime_grid, tmp_path):
        artifact = str(tmp_path)
        first = cli("run", *RUNTIME_FLAGS, "--artifact-dir", artifact, "--timings",
                    "--shard", "1/2", "--report", "none")
        second = cli("run", *RUNTIME_FLAGS, "--artifact-dir", artifact, "--timings",
                     "--shard", "2/2", "--report", "json", "-o", str(tmp_path / "run.json"))
        directory = tmp_path / RUNTIME_KEY
        assert first == SHARD_STDERR[0]
        assert second == SHARD_STDERR[1]
        merged = (directory / "campaign.jsonl").read_bytes()
        assert sha(merged) == RUNTIME_DIGESTS["journal"]
        assert merged == runtime_grid["journal"]
        assert (tmp_path / "run.json").read_bytes() == runtime_grid["run-json"]
        for name, digest in SHARD_DIGESTS.items():
            data = (directory / name).read_bytes()
            if name.endswith(".metrics.jsonl"):
                data = masked_timings(directory / name)
            assert sha(data) == digest, name
        assert not (directory / "campaign.metrics.jsonl").exists()


class TestBudgetAtTheBoundary:
    def test_max_cells_stops_after_the_schedule_grid(self, runtime_grid, tmp_path):
        artifact = str(tmp_path)
        err = cli("run", *RUNTIME_FLAGS, "--artifact-dir", artifact,
                  "--max-cells", "4", "--report", "none")
        assert err == (
            f"campaign 'pins-runtime' ({RUNTIME_KEY}): 4 evaluated, 0 resumed, "
            "4/4 cells done, 0/8 runtime cells done\n"
            "campaign incomplete; re-run with --resume to finish it\n"
        )
        journal = (tmp_path / RUNTIME_KEY / "campaign.jsonl").read_bytes()
        assert sha(journal) == BOUNDARY_DIGESTS["journal"]
        assert journal == b"".join(runtime_grid["journal"].splitlines(keepends=True)[:4])

        cli("report", "--artifact-dir", artifact, "-o", str(tmp_path / "partial.txt"))
        assert sha((tmp_path / "partial.txt").read_bytes()) == BOUNDARY_DIGESTS["partial-table"]

        err = cli("run", *RUNTIME_FLAGS, "--artifact-dir", artifact, "--resume",
                  "--report", "none")
        assert err == (
            f"campaign 'pins-runtime' ({RUNTIME_KEY}): 8 evaluated, 4 resumed, "
            "4/4 cells done, 8/8 runtime cells done\n"
        )
        assert (tmp_path / RUNTIME_KEY / "campaign.jsonl").read_bytes() == runtime_grid["journal"]

