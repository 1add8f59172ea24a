"""Paths, seeds, pinned digests and process probes shared by the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (working stores, traced result files,
#: counter records) lives here; the directory is ignored by git.
OUT = BENCH_DIR / "out"

WORKLOADS = ("fig5-sweep", "campaign-cold", "campaign-warm", "daemon-mixed")

#: The seed a claim is made on, and a held-out seed nobody tunes against.
DEFAULT_SEED = 2020
HELD_OUT_SEED = 7411

#: SHA-256 of each workload's deterministic output at the named seeds: the
#: Fig. 5 series, the campaign-cold journal and the campaign-warm set-up
#: journal.  Any other seed is checked for determinism and against the
#: program's pure entry points instead.
PINNED_DIGESTS: Dict[str, Dict[int, str]] = {
    "fig5-sweep": {
        DEFAULT_SEED: "a155b0af1a7e9ba1b8a5ecce841acb3bf400d9563ba0eae57801b3e3ce6fff5f",
        HELD_OUT_SEED: "ad2313a7010add17e2f806d523a6008ebcbfdaf5af88ce5e41a0a85d1d0b4912",
    },
    "campaign-cold": {
        DEFAULT_SEED: "0667943bf02a88a66361f1b1e5c0d52c6cc6c567e6590a89b760a042129193a4",
        HELD_OUT_SEED: "e9576f198bce9e124bf9fc34af0c9315b82a3ce3b2dc8bca6f2a089dc489b60b",
    },
    "campaign-warm": {
        DEFAULT_SEED: "caea73aa793d90ff67c0be5c75aec5499c78177edf72a0a99ba045574dc2d82f",
        HELD_OUT_SEED: "82a9ebaf278b8affe4d3e4503642a5f6da640fac3d5c6ead6213109eb373d025",
    },
}

#: Marker of the lines a workload process sends to the harness.
PROTOCOL_PREFIX = "@@perfbench "


def require_program() -> None:
    """Exit non-zero unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def emit(event: str, **data: Any) -> None:
    """Send one protocol line to the harness on standard output."""
    sys.stdout.write(PROTOCOL_PREFIX + json.dumps({"event": event, **data}) + "\n")
    sys.stdout.flush()


def source_digest() -> str:
    """SHA-256 of the program's and the benchmark's sources (every
    ``src/**/*.py`` and ``perfbench/*.py``): exact counters are compared only
    between runs of the same program driven by the same workloads."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value: Any) -> str:
    """Byte-stable JSON of a decoded result, for reference comparisons."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- process probes ------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process."""
    children: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


# -- statistics ------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); infinite values count as late."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
