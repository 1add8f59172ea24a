"""Result containers shared by the experiment engine and artifacts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.stats import format_table


@dataclass
class SweepResult:
    """Per-utilisation values of one metric for several methods."""

    name: str
    utilisations: List[float]
    series: Dict[str, List[float]]

    def value(self, method: str, utilisation: float) -> float:
        """The series value of ``method`` at ``utilisation``.

        Utilisation points are matched with :func:`math.isclose` — sweep points
        are floats that may have travelled through JSON or arithmetic, so exact
        equality (the old ``list.index`` behaviour) is a trap.
        """
        if method not in self.series:
            raise KeyError(
                f"unknown method {method!r}; available: {sorted(self.series)}"
            )
        for index, candidate in enumerate(self.utilisations):
            if math.isclose(candidate, utilisation, rel_tol=1e-9, abs_tol=1e-12):
                return self.series[method][index]
        raise KeyError(
            f"utilisation {utilisation!r} is not a sweep point of "
            f"{self.name!r} (points: {self.utilisations})"
        )

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for index, utilisation in enumerate(self.utilisations):
            row: Dict[str, object] = {"U": utilisation}
            for method, values in self.series.items():
                row[method] = values[index]
            rows.append(row)
        return rows

    def to_table(self) -> str:
        return format_table(self.rows())


@dataclass
class AccuracySweepResult:
    """The paired Psi / Upsilon sweeps of Figures 6 and 7.

    ``systems_evaluated`` records, per utilisation point, how many schedulable
    systems the admission filter actually found; when it is smaller than the
    configured ``n_systems`` the reported means cover a smaller sample (the
    engine emits a ``UserWarning`` with the shortfall).
    """

    psi: SweepResult
    upsilon: SweepResult
    systems_evaluated: Dict[float, int] = field(default_factory=dict)
