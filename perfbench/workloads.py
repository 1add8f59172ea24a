"""One workload process: set-up, timed phase, output checks and counters.

``run.py`` starts this file as a fresh process per run (and per extra set-up
sample); it is not meant to be run by hand::

    python3 perfbench/workloads.py --workload campaign-warm --seed 2020 \\
        --seconds 8 --spawned-at T [--trace] [--setup-only]

The process prints a ``ready`` protocol line when set-up is done, right
before the first timed operation, and a ``result`` line at the end.  It
drives the program only through its public entry points; the program sees
only the inputs generated from ``--seed``.  Untraced runs measure set-up
and jobs in reference seconds as well as wall time (``hostclock.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostclock import HostClock
from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    OUT,
    PINNED_DIGESTS,
    ROOT,
    WORKLOADS,
    canonical,
    child_pids,
    cpu_seconds,
    emit,
    median,
    peak_rss_mb,
    percentile,
    program_env,
    require_program,
    sha256_bytes,
    sha256_text,
)

perf = time.perf_counter

#: The runtime campaign grid shared by campaign-cold and campaign-warm.
CAMPAIGN_SCENARIOS = ("paper-default", "bursty-periods", "faulty-controller", "wide-noc")
CAMPAIGN_METHODS = ("static", "gpiocp", "fps-offline", "ga:population_size=12,generations=6")
CAMPAIGN_UTILISATIONS = (0.3, 0.5, 0.7)
CAMPAIGN_MODELS = ("dedicated-controller", "cpu-instigated")
#: 4 scenarios x 3 utilisations x 22 systems = 264 distinct systems, more
#: than the 256 entries of the ``materialize`` memo.
COLD_SYSTEMS = 22
#: More systems per job average out how much work a seed happens to draw.
WARM_SYSTEMS = 4
FIG5_SYSTEMS = 32
#: Systems of the small sweep and campaign whose untraced and traced passes
#: give ``trace.overhead`` on fig5-sweep and campaign-cold: a whole sweep or
#: campaign takes long enough for the host's speed to change within a pair.
FIG5_PAIR_SYSTEMS = 8
COLD_PAIR_SYSTEMS = 1

#: daemon-mixed: hit pool, request mix and phase split.
DAEMON_SCENARIO = "paper-default"
DAEMON_HIT_METHODS = ("static", "gpiocp", "fps-offline")
DAEMON_HIT_UTILISATION = 0.5
DAEMON_HIT_SYSTEMS = 64
#: Misses are static schedules of light systems: several ms of pool work
#: each, well apart from the hit mode, at a few per cent pool utilisation.
DAEMON_MISS_METHODS = ("static",)
DAEMON_MISS_UTILISATION = 0.3
#: A phase (a) round passes over the whole warm set this many times, each
#: pass in a seeded order: every seed's round holds the same mix of requests.
DAEMON_ROUND_PASSES = 2
DAEMON_RATE = 150.0
DAEMON_MISS_SHARE = 0.10
#: Phase (a) lasts ``--seconds``; phase (b) sends this many requests, so
#: that ten of them lie beyond its p99.
DAEMON_OPEN_REQUESTS = 1000

#: A traced run alternates untraced and traced passes of one step, this many
#: pairs; ``trace.overhead`` is the median of the pairs' wall-time ratios.
TRACE_PAIRS = 8
#: campaign-warm reruns and daemon-mixed rounds are short, so their step is
#: several of them.
WARM_PAIR_RERUNS = 4
DAEMON_PAIR_ROUNDS = 2


class Outcome:
    """What a timed phase did: job times, failures and exact counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counters: Dict[str, Any] = {}
        self.metrics: Dict[str, Any] = {}
        #: Wall time of each job (a sweep, a campaign, a rerun, a request
        #: round), the same in reference milliseconds, and the ops in one job.
        self.job_ms: List[float] = []
        self.job_ref_ms: List[float] = []
        self.ops_per_job = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def memo_counters() -> Dict[str, List[int]]:
    from repro.core.memo import memo_stats

    return {
        name: [stats["hits"], stats["misses"], stats["evictions"]]
        for name, stats in memo_stats().items()
    }


def sum_memo(parts: List[Dict[str, List[int]]]) -> Dict[str, List[int]]:
    """Memo hit/miss/evict counts summed over ops."""
    total: Dict[str, List[int]] = {}
    for part in parts:
        for name, values in part.items():
            slot = total.setdefault(name, [0, 0, 0])
            for i, value in enumerate(values):
                slot[i] += value
    return total


def service_counters(stats: Dict[str, Any]) -> Dict[str, int]:
    return {
        key: int(stats.get(key, 0))
        for key in ("computed", "cache_hits", "cache_misses", "cache_stores")
    }


def check_repeats(outcome: Outcome, per_op: List[Any], label: str, weight: int) -> None:
    """Counters of identical ops must repeat exactly within one run."""
    for index, counters in enumerate(per_op[1:], start=1):
        if counters != per_op[0]:
            outcome.fail(weight, f"{label} counters of op {index} differ from op 0")


def timed_loop(step, seconds: float, clock: HostClock, outcome_of, ops_per_job: int) -> Outcome:
    """Run ``step(index)`` until at least one step ran and ``seconds`` have
    passed, then check the step results with ``outcome_of``.  Each step's
    wall and reference milliseconds go into the outcome."""
    results: List[Any] = []
    wall_ms: List[float] = []
    ref_ms: List[float] = []
    started = perf()
    while not results or perf() - started < seconds:
        begun = perf()
        results.append(step(len(results)))
        ended = perf()
        wall_ms.append((ended - begun) * 1000.0)
        ref_ms.append(clock.seconds(begun, ended) * 1000.0)
    outcome = outcome_of(results)
    outcome.job_ms, outcome.job_ref_ms, outcome.ops_per_job = wall_ms, ref_ms, ops_per_job
    return outcome


def paired_passes(step, pairs: int, tracer, traced_step=None) -> Tuple[List[Any], List[float]]:
    """A warm-up step, then ``pairs`` times the same step untraced and traced.

    The wrappers are installed for the traced pass only, and each traced
    pass is one outermost ``op`` span.  ``traced_step`` replaces ``step`` in
    the traced passes where the traced work runs elsewhere (a traced daemon).
    Returns every pass's result and each pair's traced / untraced wall-time
    ratio.
    """
    from tracer import install, uninstall

    traced_step = traced_step or step
    step(0)
    results: List[Any] = []
    ratios: List[float] = []
    for index in range(pairs):
        started = perf()
        results.append(step(index))
        untraced = perf() - started
        install(tracer)
        started = perf()
        with tracer.span_op(index):
            results.append(traced_step(index))
        ratios.append((perf() - started) / untraced)
        uninstall(tracer)
    return results, ratios


def traced_once(tracer, work):
    """Clear the paired passes' spans, then run ``work()`` as one traced op
    and return its result."""
    from tracer import install, uninstall

    tracer.clear()
    install(tracer)
    with tracer.span_op(0):
        result = work()
    uninstall(tracer)
    return result


def check_pinned(outcome: Outcome, workload: str, seed: int, digest: str, weight: int) -> None:
    pinned = PINNED_DIGESTS.get(workload, {}).get(seed)
    if pinned is not None and digest != pinned:
        outcome.fail(weight, f"digest {digest[:16]} differs from the pinned {pinned[:16]}")


# -- fig5-sweep --------------------------------------------------------------------


class Fig5Sweep:
    """``run_fig5`` in-process and serial: five methods, quick GA, four utilisations."""

    name = "fig5-sweep"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.core.memo import reset_memos
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.engine import SCHEDULABILITY_METHODS
        from repro.experiments.fig5_schedulability import run_fig5

        self.seed = seed
        self._reset = reset_memos
        self._run = run_fig5
        self.config = ExperimentConfig.quick().with_overrides(seed=seed, n_systems=FIG5_SYSTEMS)
        self.methods = SCHEDULABILITY_METHODS
        self.cells = (
            len(self.config.schedulability_utilisations)
            * self.config.n_systems
            * len(self.methods)
        )

    def sweep(self, _index: int = 0, config=None) -> Tuple[Any, Dict[str, List[int]]]:
        """One sweep (of ``config``, by default the workload's) on cold memos."""
        self._reset()
        result = self._run(config or self.config)
        return result, memo_counters()

    def timed(self, seconds: float, clock: HostClock) -> Outcome:
        return timed_loop(self.sweep, seconds, clock, self.check, self.cells)

    def traced(self, tracer) -> Tuple[Outcome, List[float]]:
        """Paired passes of a small sweep give the overhead; the layer table
        comes from one traced sweep of the workload."""
        small = self.config.with_overrides(n_systems=FIG5_PAIR_SYSTEMS)
        pairs, ratios = paired_passes(lambda _: self.sweep(config=small), TRACE_PAIRS, tracer)
        outcome = self.check([traced_once(tracer, self.sweep)])
        small_cells = len(small.schedulability_utilisations) * small.n_systems * len(self.methods)
        outcome.attempted += len(pairs) * small_cells
        texts = [self.series_text(result) for result, _ in pairs]
        for index, text in enumerate(texts):
            if text != texts[0]:
                outcome.fail(small_cells, f"small sweep {index} series differ from sweep 0")
        check_repeats(outcome, [memo for _, memo in pairs], "small sweep memo", small_cells)
        return outcome, ratios

    def series_text(self, result) -> str:
        return canonical(
            {"utilisations": list(result.utilisations), "series": result.series}
        )

    def check(self, outputs) -> Outcome:
        outcome = Outcome()
        outcome.attempted = len(outputs) * self.cells
        digests = []
        for index, (result, _) in enumerate(outputs):
            digest = sha256_text(self.series_text(result))
            digests.append(digest)
            if digest != digests[0]:
                outcome.fail(self.cells, f"sweep {index} series differ from sweep 0")
                continue
            check_pinned(outcome, self.name, self.seed, digest, self.cells)
            n = self.config.n_systems
            for method in self.methods:
                values = result.series.get(method)
                if values is None or len(values) != len(result.utilisations) or any(
                    not 0 <= v * n <= n or abs(v * n - round(v * n)) > 1e-9
                    for v in values
                ):
                    outcome.fail(self.cells, f"sweep {index}: malformed series {method}")
                    break
        memo_per_op = [memo for _, memo in outputs]
        check_repeats(outcome, memo_per_op, "memo", self.cells)
        outcome.counters = {
            "digest": digests[0] if digests else None,
            "memo_per_sweep": memo_per_op[0] if memo_per_op else {},
        }
        outcome.metrics["memo"] = sum_memo(memo_per_op)
        return outcome


# -- campaigns ---------------------------------------------------------------------


def campaign_spec(seed: int, n_systems: int, name: str):
    from repro.campaign import CampaignSpec
    from repro.campaign.spec import RuntimeSpec
    from repro.scenario import create_scenario

    return CampaignSpec(
        name=name,
        scenarios=tuple(
            create_scenario(scenario).with_workload(seed=seed)
            for scenario in CAMPAIGN_SCENARIOS
        ),
        methods=CAMPAIGN_METHODS,
        n_systems=n_systems,
        utilisations=CAMPAIGN_UTILISATIONS,
        runtime=RuntimeSpec(execution_models=CAMPAIGN_MODELS),
    )


class CampaignRun:
    """One ``CampaignRunner`` over its own artifact directory and store."""

    def __init__(self, spec, directory: Path, store: Path):
        self.spec = spec
        self.directory = directory
        self.store = store
        self.stats: Dict[str, Dict[str, int]] = {}
        self.memo: Dict[str, List[int]] = {}

    @property
    def backend(self) -> str:
        return f"sqlite:path={self.store}"

    @property
    def journal(self) -> Path:
        return self.directory / self.spec.content_key() / "campaign.jsonl"

    def run(self) -> "CampaignRun":
        """Reset the memos and run the whole campaign."""
        from repro.campaign import CampaignRunner
        from repro.core.memo import reset_memos

        reset_memos()
        with CampaignRunner(
            self.spec, artifact_dir=self.directory, cache_backend=self.backend
        ) as runner:
            runner.run()
            self.stats = {
                "schedule": service_counters(runner.service.stats()),
                "simulation": service_counters(runner.simulation.stats()),
            }
        self.memo = memo_counters()
        return self

    def journal_bytes(self) -> bytes:
        return self.journal.read_bytes()

    def events(self) -> int:
        """Sum of ``events_processed`` over the run-time cells, read from the store."""
        from repro.campaign import runtime_cell_request
        from repro.runtime.service import SimulationCache
        from repro.store import simulation_backend

        keys = [
            runtime_cell_request(self.spec, cell).content_key()
            for cell in self.spec.runtime_cells()
        ]
        cache = SimulationCache(backend=simulation_backend(self.backend))
        try:
            found = cache.peek_many(keys)
        finally:
            cache.close()
        return sum(int(found[key]["events_processed"]) for key in keys if key in found)


class CampaignCold:
    """Whole runtime campaigns, serial, fresh SQLite store and cold memos each."""

    name = "campaign-cold"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = campaign_spec(seed, COLD_SYSTEMS, "perfbench-cold")
        self.cells = self.spec.n_cells + self.spec.n_runtime_cells
        self._campaigns = 0

    def campaign(self, index: int, spec=None) -> CampaignRun:
        """One campaign (of ``spec``, by default the workload's grid) in a
        fresh directory and store."""
        directory = self.workdir / f"cold-{self._campaigns}"
        self._campaigns += 1
        return CampaignRun(spec or self.spec, directory / "art", directory / "store.db").run()

    def timed(self, seconds: float, clock: HostClock) -> Outcome:
        return timed_loop(self.campaign, seconds, clock, self.check, self.cells)

    def traced(self, tracer) -> Tuple[Outcome, List[float]]:
        """Paired passes of a small campaign give the overhead; the layer
        table comes from one traced campaign of the whole grid, whose
        working set outgrows the memos as in the timed runs."""
        small = campaign_spec(self.seed, COLD_PAIR_SYSTEMS, "perfbench-cold-pair")
        pairs, ratios = paired_passes(lambda index: self.campaign(index, small), TRACE_PAIRS, tracer)
        outcome = self.check([traced_once(tracer, lambda: self.campaign(0))])
        small_cells = small.n_cells + small.n_runtime_cells
        outcome.attempted += len(pairs) * small_cells
        for index, pair in enumerate(pairs):
            if pair.journal_bytes() != pairs[0].journal_bytes():
                outcome.fail(small_cells, f"small campaign {index} journal differs from campaign 0")
        check_repeats(outcome, [(pair.stats, pair.memo) for pair in pairs], "small campaign",
                      small_cells)
        return outcome, ratios

    def check(self, runs: List[CampaignRun]) -> Outcome:
        outcome = Outcome()
        outcome.attempted = len(runs) * self.cells
        digests = []
        for index, run in enumerate(runs):
            journal = run.journal_bytes()
            digest = sha256_bytes(journal)
            digests.append(digest)
            if digest != digests[0]:
                outcome.fail(self.cells, f"campaign {index} journal differs from campaign 0")
            elif journal.count(b"\n") != self.cells:
                outcome.fail(self.cells, f"campaign {index} journal is incomplete")
            else:
                check_pinned(outcome, self.name, self.seed, digest, self.cells)
            expected = {"schedule": self.spec.n_cells, "simulation": self.spec.n_runtime_cells}
            for kind, count in expected.items():
                if run.stats[kind]["computed"] != count:
                    outcome.fail(self.cells, f"campaign {index}: {kind} computed "
                                 f"{run.stats[kind]['computed']}, expected {count}")
        cross_check(outcome, runs[0], self.seed)
        per_run = [(run.stats, run.memo) for run in runs]
        check_repeats(outcome, per_run, "service/memo", self.cells)
        events = runs[0].events()
        outcome.counters = {
            "digest": digests[0],
            "services": runs[0].stats,
            "memo": runs[0].memo,
            "events": events,
        }
        outcome.metrics.update(
            memo=sum_memo([run.memo for run in runs]),
            services=[run.stats for run in runs],
            events=events * len(runs),
        )
        return outcome


def cross_check(outcome: Outcome, run: CampaignRun, seed: int, samples: int = 6) -> None:
    """Recompute sampled journal cells through the pure entry points."""
    from repro.campaign import (
        cell_request,
        cell_values,
        runtime_cell_request,
        runtime_cell_values,
    )
    from repro.runtime import execute_simulation
    from repro.service import execute_request

    entries = [json.loads(line) for line in run.journal_bytes().splitlines()]
    schedule_entries = {
        (e["sc"], e["m"], e["u"], e["i"], e["r"]): e["v"] for e in entries if "x" not in e
    }
    runtime_entries = {
        (e["sc"], e["m"], e["x"], e["u"], e["i"], e["r"]): e["v"] for e in entries if "x" in e
    }
    rng = random.Random(seed)
    spec = run.spec
    cells = list(spec.cells())
    for cell in rng.sample(cells, min(samples, len(cells))):
        request = cell_request(spec, cell)
        expected = cell_values(spec, request, execute_request(request))
        if canonical(expected) != canonical(schedule_entries.get(cell.key())):
            outcome.fail(1, f"schedule cell {cell.key()} differs from execute_request")
    runtime_cells = list(spec.runtime_cells())
    for cell in rng.sample(runtime_cells, min(samples, len(runtime_cells))):
        response = execute_simulation(runtime_cell_request(spec, cell))
        expected = runtime_cell_values(spec, response)
        if canonical(expected) != canonical(runtime_entries.get(cell.key())):
            outcome.fail(1, f"runtime cell {cell.key()} differs from execute_simulation")


class CampaignWarm:
    """Fresh runners and journals over a store a cold run filled in set-up."""

    name = "campaign-warm"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = campaign_spec(seed, WARM_SYSTEMS, "perfbench-warm")
        self.cells = self.spec.n_cells + self.spec.n_runtime_cells
        self.store = workdir / "warm-store.db"
        fill = CampaignRun(self.spec, workdir / "warm-fill", self.store).run()
        self.reference = fill.journal_bytes()
        self.fill_stats = fill.stats
        self._reruns = 0

    def rerun(self, _index: int = 0) -> CampaignRun:
        """A fresh runner and journal over the filled store, cold memos."""
        self._reruns += 1
        return CampaignRun(self.spec, self.workdir / f"warm-{self._reruns}", self.store).run()

    def timed(self, seconds: float, clock: HostClock) -> Outcome:
        return timed_loop(self.rerun, seconds, clock, self.check, self.cells)

    def traced(self, tracer) -> Tuple[Outcome, List[float]]:
        blocks, ratios = paired_passes(
            lambda _: [self.rerun() for _ in range(WARM_PAIR_RERUNS)], TRACE_PAIRS, tracer
        )
        return self.check([run for block in blocks for run in block]), ratios

    def check(self, runs: List[CampaignRun]) -> Outcome:
        outcome = Outcome()
        outcome.attempted = len(runs) * self.cells
        reference_digest = sha256_bytes(self.reference)
        check_pinned(outcome, self.name, self.seed, reference_digest, self.cells)
        for index, run in enumerate(runs):
            if run.journal_bytes() != self.reference:
                outcome.fail(self.cells, f"rerun {index} journal differs from the set-up journal")
            for kind in ("schedule", "simulation"):
                if run.stats[kind]["computed"] != 0:
                    outcome.fail(self.cells, f"rerun {index}: {kind} computed "
                                 f"{run.stats[kind]['computed']}, expected 0")
        per_run = [(run.stats, run.memo) for run in runs]
        check_repeats(outcome, per_run, "service/memo", self.cells)
        outcome.counters = {
            "digest": reference_digest,
            "fill": self.fill_stats,
            "services": runs[0].stats,
            "memo": runs[0].memo,
        }
        outcome.metrics.update(
            memo=sum_memo([run.memo for run in runs]),
            services=[run.stats for run in runs],
            events=0,
        )
        return outcome


# -- daemon-mixed ------------------------------------------------------------------


class Daemon:
    """A ``python -m repro.server serve --workers 1`` process and its client."""

    def __init__(self, workdir: Path, spans: Optional[Path]):
        from repro.server.client import ServerClient

        port_file = workdir / f"daemon-{time.monotonic_ns()}.port"
        serve = ["serve", "--port", "0", "--port-file", str(port_file),
                 "--workers", "1", "--log-level", "info"]
        if spans is None:
            command = [sys.executable, "-m", "repro.server", *serve]
        else:
            command = [sys.executable, str(BENCH_DIR / "daemon_launcher.py"),
                       str(spans), *serve]
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.log: List[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        # Readiness: the daemon logs server-started after writing its port
        # file; the reader thread wakes us, so no fixed-step polling.
        if not self._ready.wait(timeout=120) or self.process.poll() is not None:
            self.stop()
            raise RuntimeError("daemon did not start: " + " | ".join(self.log[-5:]))
        self.port = int(port_file.read_text(encoding="utf-8").strip())
        self.client = ServerClient("127.0.0.1", self.port)
        self.pid = int(self.client.health()["pid"])
        # The daemon and the load generator share one core, and the pool
        # worker, once it exists, gets the other.  Across two cores every
        # pipelined window waits for the other core to wake up, which on a
        # shared host takes anything from microseconds to milliseconds.
        self.cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpus[0]})
        os.sched_setaffinity(self.pid, {self.cpus[0]})

    def place_pool(self) -> None:
        """Move the (now forked) pool worker to the other core."""
        for pid in self.pool_pids():
            os.sched_setaffinity(pid, {self.cpus[-1]})

    def _read_log(self) -> None:
        assert self.process.stderr is not None
        for raw in self.process.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self.log.append(line)
            if "event=server-started" in line:
                self._ready.set()
        self._ready.set()

    def pool_pids(self) -> List[int]:
        return child_pids(self.pid)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in [self.pid, *self.pool_pids()])

    def stop(self) -> None:
        """Shut down over the wire, then wait for the process to exit."""
        try:
            if getattr(self, "client", None) is not None:
                try:
                    self.client.shutdown()
                except (OSError, ConnectionError):
                    pass
                self.client.close()
                self.client = None
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            self._reader.join(timeout=30)


def metric_sums(text: str, name: str, label: str) -> Dict[str, float]:
    """``{label value: sample}`` of one metric family in Prometheus text."""
    sums: Dict[str, float] = {}
    pattern = re.compile(r"^" + re.escape(name) + r"\{([^}]*)\} (\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1)))
        key = labels.get(label, "")
        sums[key] = sums.get(key, 0.0) + float(match.group(2))
    return sums


def memo_from_metrics(text: str) -> Dict[str, List[int]]:
    memo: Dict[str, List[int]] = {}
    pattern = re.compile(r'^repro_memo_ops_total\{memo="([^"]+)",op="(\w+)"\} (\S+)$')
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            slot = memo.setdefault(match.group(1), [0, 0, 0])
            slot[("hit", "miss", "evict").index(match.group(2))] += int(float(match.group(3)))
    return memo


class DaemonMixed:
    """A serving daemon under closed-loop hits, then an open-loop 90/10 mix."""

    name = "daemon-mixed"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.scenario import create_scenario
        from repro.server.protocol import OP_SCHEDULE
        from repro.service import ScheduleRequest, SchedulerSpec

        self.seed = seed
        self.workdir = workdir
        self.op = OP_SCHEDULE
        rng = random.Random(seed)
        scenario = create_scenario(DAEMON_SCENARIO).with_workload(seed=seed)

        def envelope(system_index: int, method: str, utilisation: float) -> Dict[str, Any]:
            return ScheduleRequest(
                scenario=scenario.with_utilisation(utilisation),
                system_index=system_index,
                spec=SchedulerSpec.parse(method),
            ).to_dict()

        self.hit_pool = [
            envelope(i, method, DAEMON_HIT_UTILISATION)
            for i in range(DAEMON_HIT_SYSTEMS)
            for method in DAEMON_HIT_METHODS
        ]
        self.round = [
            index
            for _ in range(DAEMON_ROUND_PASSES)
            for index in rng.sample(range(len(self.hit_pool)), len(self.hit_pool))
        ]
        self.round_envelopes = [self.hit_pool[i] for i in self.round]
        self._envelope = envelope
        self.daemons: List[Daemon] = []
        self.daemon, self.reference = self.start_daemon(None)

    def start_daemon(self, spans: Optional[Path]) -> Tuple[Daemon, List[str]]:
        """Start a daemon and fill its cache with the warm set, which also
        forks its pool worker.  Returns the daemon and its warm answers."""
        daemon = Daemon(self.workdir, spans)
        self.daemons.append(daemon)
        warm = daemon.client.submit_envelopes(self.hit_pool)
        daemon.place_pool()
        return daemon, [canonical(answer["data"]["result"]) for answer in warm]

    def open_schedule(self) -> List[Tuple[float, bool, Dict[str, Any]]]:
        """Seeded Poisson arrivals; exactly one request in ten is a fresh miss."""
        rng = random.Random(self.seed * 7919 + 1)
        count = DAEMON_OPEN_REQUESTS
        misses = set(rng.sample(range(count), int(count * DAEMON_MISS_SHARE)))
        schedule = []
        due = 0.0
        for index in range(count):
            due += rng.expovariate(DAEMON_RATE)
            if index in misses:
                entry = self._envelope(
                    100_000 + index, rng.choice(DAEMON_MISS_METHODS), DAEMON_MISS_UTILISATION
                )
                schedule.append((due, True, entry))
            else:
                schedule.append((due, False, rng.randrange(len(self.hit_pool))))
        return schedule

    def check_hits(self, outcome: Outcome, answers) -> None:
        indices = self.round
        outcome.attempted += len(indices)
        if len(answers) != len(indices):
            outcome.fail(len(indices), f"{len(answers)} answers for {len(indices)} requests")
            return
        for answer, index in zip(answers, indices):
            data = answer.get("data", {})
            if data.get("cache", {}).get("status") != "hit":
                outcome.fail(1, "a hit request was not answered from the cache")
            elif canonical(data.get("result")) != self.reference[index]:
                outcome.fail(1, "a hit answer differs from its set-up answer")

    def open_loop(self, schedule) -> List[Tuple[float, float, Any]]:
        from repro.server.client import AsyncServerClient

        async def drive() -> List[Tuple[float, float, Any]]:
            client = await AsyncServerClient.connect("127.0.0.1", self.daemon.port)
            loop = asyncio.get_running_loop()
            results: List[Any] = [None] * len(schedule)

            async def one(index: int, due: float, payload: Dict[str, Any]) -> None:
                sent = loop.time()
                try:
                    answer: Any = await client.call(self.op, payload)
                    done = loop.time()
                    # Keep only strings: thousands of retained answer dicts
                    # would make the generator's own garbage collection stall it.
                    data = answer.get("data", {})
                    kept = (data.get("cache", {}).get("status"), canonical(data.get("result")))
                    results[index] = (sent - due, done - due, kept)
                except Exception as error:  # counted as a failed, infinitely late op
                    results[index] = (sent - due, math.inf, repr(error))

            tasks = []
            origin = loop.time() + 0.05
            try:
                for index, (offset, is_miss, entry) in enumerate(schedule):
                    due = origin + offset
                    delay = due - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    payload = entry if is_miss else self.hit_pool[entry]
                    tasks.append(asyncio.ensure_future(one(index, due, payload)))
                await asyncio.gather(*tasks)
            finally:
                await client.close()
            return results

        gc.collect()
        gc.freeze()  # the generator's set-up objects need no more collection
        try:
            return asyncio.run(drive())
        finally:
            gc.unfreeze()

    def check_open(self, outcome: Outcome, schedule, results) -> Tuple[List[float], List[float]]:
        from repro.service import ScheduleRequest, execute_request

        latencies, lateness = [], []
        outcome.attempted += len(schedule)
        for (offset, is_miss, entry), (late, latency, answer) in zip(schedule, results):
            lateness.append(late)
            if not isinstance(answer, tuple):
                outcome.fail(1, f"open-loop request failed: {answer}")
                latencies.append(math.inf)
                continue
            status, result = answer
            if is_miss:
                expected = canonical(
                    execute_request(ScheduleRequest.from_dict(entry)).result_dict()
                )
            else:
                expected = self.reference[entry]
            if status != ("miss" if is_miss else "hit") or result != expected:
                outcome.fail(1, f"open-loop {'miss' if is_miss else 'hit'} answer is wrong")
                latencies.append(math.inf)
            else:
                latencies.append(latency)
        return latencies, lateness

    def serve_phases(self, outcome: Outcome, closed_phase, tracer=None) -> None:
        """Phase (a), then phase (b) against ``self.daemon``, then the checks.

        ``closed_phase()`` runs phase (a) and returns how many requests
        ``self.daemon`` answered in it.  With a tracer, the load generator's
        side of phase (b) is traced too.
        """
        from tracer import install, uninstall

        schedule = self.open_schedule()
        pid = self.daemon.pid
        pool_before = self.pool_phases()
        window_start = perf()
        cpu0 = cpu_seconds(pid)
        closed_requests = closed_phase()
        cpu1 = cpu_seconds(pid)
        if tracer is None:
            results = self.open_loop(schedule)
        else:
            install(tracer)
            with tracer.span_op(TRACE_PAIRS):
                results = self.open_loop(schedule)
            uninstall(tracer)
        window = (window_start, perf())
        cpu2 = cpu_seconds(pid)

        latencies, lateness = self.check_open(outcome, schedule, results)
        misses = sum(1 for _, is_miss, _ in schedule if is_miss)
        by_kind = {
            kind: [lat for lat, (_, is_miss, _) in zip(latencies, schedule) if is_miss == want]
            for kind, want in (("hit", False), ("miss", True))
        }
        outcome.metrics.update(
            p50_ms=percentile(latencies, 50) * 1000.0,
            p99_ms=percentile(latencies, 99) * 1000.0,
            hit_p50_ms=percentile(by_kind["hit"], 50) * 1000.0,
            hit_p99_ms=percentile(by_kind["hit"], 99) * 1000.0,
            miss_p50_ms=percentile(by_kind["miss"], 50) * 1000.0,
            miss_p90_ms=percentile(by_kind["miss"], 90) * 1000.0,
            late_p99_ms=percentile(lateness, 99) * 1000.0,
            cpu_ms_per_op_a=(cpu1 - cpu0) * 1000.0 / closed_requests,
            cpu_ms_per_op_b=(cpu2 - cpu1) * 1000.0 / len(schedule),
            daemon_cpu_ms=(cpu2 - cpu0) * 1000.0,
            window=window,
        )
        stats = self.daemon.client.stats()
        text = self.daemon.client.metrics()
        requests = stats["requests"]
        outcome.counters = {
            "warm_set": len(self.hit_pool),
            "closed_per_round": len(self.round),
            "open_requests": len(schedule),
            "open_misses": misses,
            "computed": stats["schedule"]["computed"],
            "rejected": requests["rejected"],
            "deduped": requests["in_flight_dedup"],
            "errors": requests["failed"] + stats["server"]["protocol_errors"],
            "pool_memo": memo_from_metrics(text),
        }
        expected_computed = len(self.hit_pool) + misses
        if stats["schedule"]["computed"] != expected_computed:
            outcome.fail(1, f"daemon computed {stats['schedule']['computed']}, "
                         f"expected {expected_computed}")
        for key in ("rejected", "deduped", "errors"):
            if outcome.counters[key]:
                outcome.fail(outcome.counters[key], f"daemon {key}: {outcome.counters[key]}")
        cache = stats["schedule"]["cache"] or {}
        pool = {
            phase: total - pool_before.get(phase, 0.0)
            for phase, total in self.pool_phases(text).items()
        }
        outcome.metrics.update(
            pool_wait_ms=pool.get("queue-wait", 0.0),
            pool_compute_ms=pool.get("schedule", 0.0) + pool.get("simulate", 0.0),
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            computed=stats["schedule"]["computed"],
            memo=outcome.counters["pool_memo"],
            daemon_rss_mb=self.daemon.peak_rss_mb(),
        )

    def pool_phases(self, text: Optional[str] = None) -> Dict[str, float]:
        """Milliseconds the daemon's requests spent so far in each phase
        (queue wait, schedule, ...), from its ``metrics`` RPC."""
        text = self.daemon.client.metrics() if text is None else text
        return metric_sums(text, "repro_request_latency_ms_sum", "phase")

    def timed(self, seconds: float, clock: HostClock) -> Outcome:
        outcome = Outcome()
        outcome.ops_per_job = len(self.round)
        phase_a_ms = seconds * 1000.0

        def closed_phase() -> int:
            # Pipelined rounds of hits; only the round trips are timed.  The
            # host clock probes the core the daemon shares with this process.
            while not outcome.job_ms or sum(outcome.job_ms) < phase_a_ms:
                started = perf()
                answers = self.daemon.client.submit_envelopes(self.round_envelopes)
                ended = perf()
                outcome.job_ms.append((ended - started) * 1000.0)
                outcome.job_ref_ms.append(clock.seconds(started, ended) * 1000.0)
                self.check_hits(outcome, answers)
            # Probes would delay phase (b)'s sends.
            clock.stop()
            return len(outcome.job_ms) * len(self.round)

        self.serve_phases(outcome, closed_phase)
        return outcome

    def traced(self, tracer) -> Tuple[Outcome, List[float]]:
        """A second, traced daemon next to the untraced one: phase (a)
        alternates rounds between the two, phase (b) runs on the traced one."""
        outcome = Outcome()
        plain = self.daemon
        self.daemon_spans = OUT / "traces" / f"{self.name}-s{self.seed}.daemon.spans.npz"
        self.daemon, answers = self.start_daemon(self.daemon_spans)
        if answers != self.reference:
            outcome.fail(len(answers), "the traced daemon's warm answers differ")
        # Warm up the traced daemon's hit path before its traced window.
        self.check_hits(outcome, self.daemon.client.submit_envelopes(self.round_envelopes))

        def rounds(daemon: Daemon) -> List[Any]:
            return [
                daemon.client.submit_envelopes(self.round_envelopes)
                for _ in range(DAEMON_PAIR_ROUNDS)
            ]

        ratios: List[float] = []

        def closed_phase() -> int:
            blocks, pair_ratios = paired_passes(
                lambda _: rounds(plain), TRACE_PAIRS, tracer,
                traced_step=lambda _: rounds(self.daemon),
            )
            ratios.extend(pair_ratios)
            plain.stop()
            for block in blocks:
                for round_answers in block:
                    self.check_hits(outcome, round_answers)
            return TRACE_PAIRS * DAEMON_PAIR_ROUNDS * len(self.round)

        self.serve_phases(outcome, closed_phase, tracer)
        return outcome, ratios

    def teardown(self) -> None:
        for daemon in self.daemons:
            daemon.stop()


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Fig5Sweep, CampaignCold, CampaignWarm, DaemonMixed)
}


# -- the process -------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="perf_counter() of the harness right before it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = perf() if args.spawned_at is None else args.spawned_at
    clock = HostClock()
    if not args.trace:
        # Started before the program is imported, so set-up is probed too;
        # the traced run's spans must not contain probes.
        clock.start()
    require_program()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload]()
    try:
        workload.setup(args.seed, workdir)
        ready = perf()
        emit("ready", setup_wall_s=ready - spawned_at,
             setup_s=None if args.trace else clock.seconds(spawned_at, ready))
        if args.setup_only:
            return 0
        if args.trace:
            from tracer import Tracer, disable_in_forked_children

            tracer = Tracer()
            disable_in_forked_children(tracer)
            outcome, ratios = workload.traced(tracer)
            emit("result", **traced_report(workload, outcome, tracer, ratios, args.seed))
        else:
            outcome = workload.timed(args.seconds, clock)
            clock.stop()
            emit("result", **untraced_report(workload, outcome))
        return 0
    finally:
        clock.stop()
        teardown = getattr(workload, "teardown", None)
        if teardown is not None:
            teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_report(workload, outcome: Outcome) -> Dict[str, Any]:
    # Throughput of each job in reference seconds, then the median: a host
    # hiccup during one job does not move the figure.
    metrics = {
        "ops_per_s": median([outcome.ops_per_job / (ms / 1000.0) for ms in outcome.job_ref_ms]),
        "wall_ops_per_s": median([outcome.ops_per_job / (ms / 1000.0) for ms in outcome.job_ms]),
        "peak_rss_mb": peak_rss_mb() + outcome.metrics.get("daemon_rss_mb", 0.0),
    }
    for key in ("p50_ms", "p99_ms", "late_p99_ms", "hit_p50_ms", "hit_p99_ms",
                "miss_p50_ms", "miss_p90_ms"):
        if key in outcome.metrics:
            metrics[key] = outcome.metrics[key]
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counters": outcome.counters,
        "metrics": metrics,
        "job_ms": outcome.job_ms,
        "job_ref_ms": outcome.job_ref_ms,
    }


def traced_report(workload, outcome: Outcome, tracer, ratios: List[float], seed: int):
    from layers import per_layer_metrics

    table = tracer.layer_table()
    traced_wall_ms = sum(tracer.op_walls_ms().values())
    daemon_table: Dict[str, Any] = {}
    extra = dict(outcome.metrics)
    if isinstance(workload, DaemonMixed):
        workload.teardown()  # the traced daemon writes its spans as it exits
        daemon_table, daemon_cover = daemon_layers(workload.daemon_spans, extra["window"])
        extra["daemon_unattributed"] = max(0.0, 1.0 - daemon_cover / extra["daemon_cpu_ms"])
        extra["daemon_window_ms"] = (extra["window"][1] - extra["window"][0]) * 1000.0
    extra["counters"] = outcome.counters
    extra["overhead"] = median(ratios)
    metrics = per_layer_metrics(
        table, daemon_table, extra, traced_wall_ms=traced_wall_ms, counts=tracer.counts
    )
    path = OUT / "traces" / f"{workload.name}-s{seed}.json"
    result = {
        "workload": workload.name,
        "seed": seed,
        "wall_ms": traced_wall_ms,
        "overhead_ratios": ratios,
        "layers": table,
        "daemon_layers": daemon_table,
        "daemon_wall_ms": extra.get("daemon_window_ms", 0.0),
        "metrics": metrics,
        "counters": outcome.counters,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tracer.write(path.with_suffix(".spans.npz"))
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counters": outcome.counters,
        "metrics": metrics,
        "trace_file": str(path.relative_to(ROOT)),
    }


def daemon_layers(spans: Path, window: Tuple[float, float]) -> Tuple[Dict[str, Any], float]:
    """The daemon's layer table inside the traced work's time window, and the
    time its outermost spans cover there (``perf_counter`` is one
    system-wide monotonic clock, so the two processes' times compare)."""
    import numpy as np

    from tracer import layer_table

    with np.load(spans) as data:
        arrays = {key: data[key] for key in data.files}
    inside = (arrays["start"] >= window[0]) & (arrays["end"] <= window[1])
    top = inside & (arrays["parent"] < 0)
    covered = float(np.sum(arrays["end"][top] - arrays["start"][top]) * 1000.0)
    return layer_table(arrays, keep=inside), covered


if __name__ == "__main__":
    sys.exit(main())
