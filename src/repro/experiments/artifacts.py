"""Persistent, versioned experiment artifacts under an artifact directory.

Two kinds of state are persisted under an artifact directory:

* **Sweep results** — completed :class:`~repro.experiments.results.SweepResult`
  / :class:`~repro.experiments.results.AccuracySweepResult` values, written as
  versioned JSON (see :mod:`repro.core.serialization`) so they can be plotted,
  diffed or reloaded without re-running anything.  They live in a
  subdirectory named by a hash of the cell-relevant configuration (base seed,
  generator parameters, GA budget, scenario) next to a ``config.json`` that
  records the full configuration, so runs with different configurations can
  share one artifact root without ever mixing results.
* **Evaluation cells** — the schedule responses the engine's cells produce,
  kept by the scheduling service's content-addressed cache in
  ``<artifact_dir>/cache.db`` (:data:`CACHE_FILENAME`; inspect it with
  ``python -m repro.store stats``).  A sweep interrupted mid-run resumes from
  it: already-finished cells are served from disk and only the remainder is
  recomputed.  Entries are keyed by request content, so they are shared
  across configurations, sweep shapes and method aliases.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.serialization import (
    atomic_write_json,
    content_hash,
    parse_versioned_payload,
    versioned_payload,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import AccuracySweepResult, SweepResult

SWEEP_KIND = "repro/sweep-result"
SWEEP_VERSION = 1
ACCURACY_KIND = "repro/accuracy-sweep"
ACCURACY_VERSION = 1
TABLE1_KIND = "repro/table1"
TABLE1_VERSION = 1
#: Kind and version of the configuration fingerprint and ``config.json``.
CELL_CACHE_KIND = "repro/cell-cache"
CELL_CACHE_VERSION = 1

#: The service's cell cache, directly under the artifact directory.
CACHE_FILENAME = "cache.db"


# -- sweep results as versioned JSON -------------------------------------------


def sweep_result_to_dict(result: SweepResult) -> Dict[str, Any]:
    return versioned_payload(
        SWEEP_KIND,
        SWEEP_VERSION,
        {
            "name": result.name,
            "utilisations": list(result.utilisations),
            "series": {method: list(values) for method, values in result.series.items()},
        },
    )


def sweep_result_from_dict(payload: Dict[str, Any]) -> SweepResult:
    _, data = parse_versioned_payload(payload, SWEEP_KIND, max_version=SWEEP_VERSION)
    return SweepResult(
        name=data["name"],
        utilisations=[float(u) for u in data["utilisations"]],
        series={method: [float(v) for v in values] for method, values in data["series"].items()},
    )


def sweep_result_to_json(result: SweepResult, *, indent: int = 2) -> str:
    return json.dumps(sweep_result_to_dict(result), indent=indent)


def sweep_result_from_json(text: str) -> SweepResult:
    return sweep_result_from_dict(json.loads(text))


def accuracy_sweep_to_dict(result: AccuracySweepResult) -> Dict[str, Any]:
    return versioned_payload(
        ACCURACY_KIND,
        ACCURACY_VERSION,
        {
            "psi": sweep_result_to_dict(result.psi),
            "upsilon": sweep_result_to_dict(result.upsilon),
            # JSON object keys must be strings; store the float keys as pairs.
            "systems_evaluated": [
                [utilisation, count] for utilisation, count in result.systems_evaluated.items()
            ],
        },
    )


def accuracy_sweep_from_dict(payload: Dict[str, Any]) -> AccuracySweepResult:
    _, data = parse_versioned_payload(payload, ACCURACY_KIND, max_version=ACCURACY_VERSION)
    return AccuracySweepResult(
        psi=sweep_result_from_dict(data["psi"]),
        upsilon=sweep_result_from_dict(data["upsilon"]),
        systems_evaluated={float(u): int(n) for u, n in data["systems_evaluated"]},
    )


def accuracy_sweep_to_json(result: AccuracySweepResult, *, indent: int = 2) -> str:
    return json.dumps(accuracy_sweep_to_dict(result), indent=indent)


def accuracy_sweep_from_json(text: str) -> AccuracySweepResult:
    return accuracy_sweep_from_dict(json.loads(text))


def table1_to_dict(rows: Any, ratios: Dict[str, float]) -> Dict[str, Any]:
    """Versioned payload for the regenerated Table I (rows + headline ratios)."""
    return versioned_payload(TABLE1_KIND, TABLE1_VERSION, {"rows": rows, "ratios": ratios})


def table1_from_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    _, data = parse_versioned_payload(payload, TABLE1_KIND, max_version=TABLE1_VERSION)
    return data


# -- content-keyed configuration fingerprint -----------------------------------


def cell_config_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """The configuration subset that determines individual cell values.

    The scenario key is only present for scenario-backed configurations, so
    fingerprints (and therefore sweep-artifact directories) of legacy
    configurations are unchanged by the scenario API's introduction.
    """
    data = {
        "seed": config.seed,
        "generator": asdict(config.generator),
        "ga": asdict(config.ga),
    }
    if config.scenario is not None:
        data["scenario"] = config.scenario.to_dict()
    return data


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable content key for ``config``'s sweep-artifact directory (hex digest)."""
    return content_hash(
        {
            "kind": CELL_CACHE_KIND,
            "version": CELL_CACHE_VERSION,
            "config": cell_config_dict(config),
        }
    )


# -- the on-disk store ---------------------------------------------------------


class ArtifactStore:
    """Directory-backed store for one configuration's sweep results.

    Completed sweep artifacts are written atomically via a rename, so a
    crash or Ctrl-C never leaves a torn one behind.
    """

    CONFIG_FILENAME = "config.json"

    def __init__(self, root: Union[str, Path], config: ExperimentConfig):
        self.root = Path(root)
        self.fingerprint = config_fingerprint(config)
        self.directory = self.root / self.fingerprint
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_config(config)

    # -- whole-sweep artifacts ---------------------------------------------------

    def save_result(self, name: str, payload: Dict[str, Any]) -> Path:
        """Atomically write ``payload`` to ``<store>/<name>.json``."""
        return atomic_write_json(
            self.directory / f"{name}.json", payload, indent=2, sort_keys=False
        )

    def load_result(self, name: str) -> Optional[Dict[str, Any]]:
        path = self.directory / f"{name}.json"
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- internals ---------------------------------------------------------------

    def _write_config(self, config: ExperimentConfig) -> None:
        """Record the full configuration next to the sweeps for humans/tooling."""
        path = self.directory / self.CONFIG_FILENAME
        if path.exists():
            return
        payload = versioned_payload(
            CELL_CACHE_KIND,
            CELL_CACHE_VERSION,
            {
                "fingerprint": self.fingerprint,
                "cell_config": cell_config_dict(config),
                "full_config": asdict(config),
            },
        )
        atomic_write_json(path, payload, indent=2, sort_keys=False)
