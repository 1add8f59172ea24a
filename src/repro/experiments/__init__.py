"""Experiment harness regenerating every figure and table of the paper's evaluation.

* Figure 5 — system schedulability vs utilisation
  (:func:`repro.experiments.fig5_schedulability.run_fig5`);
* Figure 6 — Psi (fraction of exactly timing-accurate jobs) vs utilisation
  (:func:`repro.experiments.fig6_psi.run_fig6`);
* Figure 7 — Upsilon (normalised total quality) vs utilisation
  (:func:`repro.experiments.fig7_upsilon.run_fig7`);
* Table I — hardware resource overhead of the evaluated I/O controllers
  (:func:`repro.experiments.table1_resources.run_table1`);
* Supporting experiment — run-time execution of the offline schedule on the
  controller model vs CPU-instigated I/O over the NoC
  (:func:`repro.experiments.controller_sim.run_controller_sim`).
"""

from repro.experiments.artifacts import (
    ArtifactStore,
    accuracy_sweep_from_json,
    accuracy_sweep_to_json,
    config_fingerprint,
    sweep_result_from_json,
    sweep_result_to_json,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.controller_sim import ControllerSimResult, run_controller_sim
from repro.experiments.engine import CellResult, EvalJob, ExperimentEngine
from repro.experiments.fig5_schedulability import run_fig5
from repro.experiments.fig6_psi import run_fig6
from repro.experiments.fig7_upsilon import run_fig7
from repro.experiments.results import AccuracySweepResult, SweepResult
from repro.experiments.stats import SeriesStats, format_table, mean, median
from repro.experiments.table1_resources import run_table1

__all__ = [
    "ExperimentConfig",
    "ExperimentEngine",
    "EvalJob",
    "CellResult",
    "SweepResult",
    "AccuracySweepResult",
    "ArtifactStore",
    "config_fingerprint",
    "sweep_result_to_json",
    "sweep_result_from_json",
    "accuracy_sweep_to_json",
    "accuracy_sweep_from_json",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_controller_sim",
    "ControllerSimResult",
    "SeriesStats",
    "format_table",
    "mean",
    "median",
]
