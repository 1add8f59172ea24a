"""Small statistics and table-formatting helpers for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def _left_sum(values: Iterable[float]) -> float:
    """Left-to-right sum on every Python (3.12's sum() compensates floats)."""
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return _left_sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Sample median (mean of the two central order statistics for even n)."""
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches the classic "linear" definition (numpy's default): the sorted
    sample is treated as evenly spaced quantile knots and the answer is
    interpolated between the two surrounding order statistics.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    values = sorted(values)
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    rank = (len(values) - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return values[int(rank)]
    fraction = rank - lower
    return values[lower] * (1 - fraction) + values[upper] * fraction


def std(values: Sequence[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(_left_sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class SeriesStats:
    """Summary statistics of one series of observations."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float = float("nan")

    @classmethod
    def of(cls, values: Sequence[float]) -> "SeriesStats":
        values = list(values)
        if not values:
            return cls(n=0, mean=float("nan"), std=0.0, minimum=float("nan"), maximum=float("nan"))
        return cls(
            n=len(values),
            mean=mean(values),
            std=std(values),
            minimum=min(values),
            maximum=max(values),
            median=median(values),
        )

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of an approximate normal confidence interval of the mean."""
        if self.n == 0:
            return float("nan")
        return z * self.std / math.sqrt(self.n)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])
