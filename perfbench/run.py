"""The repository benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload campaign-cold --seed 2020 --seconds 8 --trace 0

Each run starts fresh workload processes (``workloads.py``) and times them
from outside.  With ``--trace 0`` it reports the end-to-end metrics:
``setup_s`` is the median of several set-ups, each in a fresh process; the
last of those processes goes on to the timed phase and the output checks.
Both ``setup_s`` and ``ops_per_s`` are in reference seconds, which take the
host's speed out (``hostclock.py``).
With ``--trace 1`` one process runs the workload's fixed traced work and the
per-layer metrics are reported instead (see ``layers.py``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, metrics and noise rules.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    OUT,
    PROTOCOL_PREFIX,
    ROOT,
    WORKLOADS,
    median,
    program_env,
    require_program,
    source_digest,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A workload process that outlives this is killed and the run fails.
PROCESS_TIMEOUT_S = 600

#: The end-to-end metrics every untraced run reports, with their units.
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def spawn(arguments: List[str]) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]], int]:
    """Run one workload process: ``(ready message, result, exit code)``.

    Set-up time runs from just before the process is started until it
    reports that its first timed operation is next; the process reports it
    in wall and in reference seconds.
    """
    command = [sys.executable, str(BENCH_DIR / "workloads.py"), *arguments,
               "--spawned-at", repr(time.perf_counter())]
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=program_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
    watchdog.start()
    ready: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if not line.startswith(PROTOCOL_PREFIX):
                sys.stderr.write(line)  # stdout's last line is reserved for the result
                continue
            message = json.loads(line[len(PROTOCOL_PREFIX):])
            if message["event"] == "ready" and ready is None:
                ready = message
            elif message["event"] == "result":
                result = message
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    return ready, result, code


def record_run(args: argparse.Namespace, result: Dict[str, Any]) -> List[str]:
    """Keep this run's full result and its exact counters; return the
    counters that differ from an earlier run of the same program sources,
    workload, seed, length and mode.

    Counters of one program must repeat exactly on every run with the same
    inputs; a later change may claim on a count only if it does.
    """
    stem = f"{args.workload}-s{args.seed}-t{args.seconds}-trace{args.trace}"
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    counters = json.loads(json.dumps(result.get("counters", {})))
    path = OUT / "counters" / source_digest()[:16] / f"{stem}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        return sorted(
            key for key in set(previous) | set(counters)
            if previous.get(key) != counters.get(key)
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups: List[Dict[str, Any]] = []
    if args.trace:
        _, result, code = spawn(common + ["--trace"])
    else:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = spawn(common + ["--setup-only"])
            if code != 0 or ready is None:
                sys.stderr.write(f"perfbench: set-up of {args.workload} failed ({code})\n")
                return 1
            setups.append(ready)
        ready, result, code = spawn(common)
        if ready is not None:
            setups.append(ready)
    if code != 0 or result is None or len(setups) not in (0, SETUP_SAMPLES):
        sys.stderr.write(f"perfbench: {args.workload} run failed (exit code {code})\n")
        return 1

    for problem in result.get("problems", []):
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    if args.trace:
        metrics = result["metrics"]
        sys.stderr.write(f"perfbench: traced result file {result['trace_file']}\n")
    else:
        result["setup_samples_s"] = [ready["setup_s"] for ready in setups]
        result["setup_wall_samples_s"] = [ready["setup_wall_s"] for ready in setups]
        values = dict(
            result["metrics"],
            setup_s=median(result["setup_samples_s"]),
            wall_setup_s=median(result["setup_wall_samples_s"]),
        )
        sys.stderr.write("perfbench: " + " ".join(
            f"{name}={value:.4g}" for name, value in sorted(values.items())
        ) + "\n")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    failed = int(result["failed"])
    drift = record_run(args, result)
    if drift:
        # Counters that do not repeat for the same program and inputs make
        # every op of the run count as failed.
        sys.stderr.write(
            f"perfbench: check failed: counters differ from an earlier run of the "
            f"same program and inputs: {', '.join(drift)}\n"
        )
        failed = int(result["attempted"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
