"""Activity performance indicators and binned delay statistics.

Start Delay is ``actual_start - planned_start`` in whole days (negative
means an early start) and isolates fluctuations inherited from upstream;
End Delay is the same difference on end dates and additionally absorbs
fluctuations arising within the activity itself. Activities missing the
relevant actual date are masked out rather than treated as on time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricWarning, NoValidDelays
from .metrics import MetricVector
from .network import ActivityNetwork

# Each per-bin delay statistic by name: its percentile, or None for the mean.
BIN_STATS = {"mean": None, "median": 50, "q25": 25, "q75": 75, "q16": 16, "q84": 84}


@dataclass(frozen=True, eq=False)
class DelayVector:
    """Per-node delays in integer days with a validity mask."""

    days: np.ndarray
    valid: np.ndarray
    kind: str = "start"

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid))

    def valid_values(self) -> np.ndarray:
        return self.days[self.valid]


@dataclass(frozen=True, eq=False)
class BinnedStats:
    """Per-bin delay statistics over equal-width metric bins.

    Empty bins report count 0 and NaN statistics. Quantiles use linear
    interpolation of the empirical distribution.
    """

    bin_edges: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    q16: np.ndarray
    q84: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.count)


def start_delay(network: ActivityNetwork) -> DelayVector:
    """Start Delay per activity; masked where actual_start is missing.

    Raises:
        NoValidDelays: every activity lacks an actual start date.
    """
    return _delay(network, "start")


def end_delay(network: ActivityNetwork) -> DelayVector:
    """End Delay per activity; masked where actual_end is missing."""
    return _delay(network, "end")


def bin_by_metric(metric: MetricVector, delays: DelayVector, n_bins: int) -> BinnedStats:
    """Group delays into equal-width bins along a metric and summarize each bin.

    Bins partition [min, max] of the metric over the delay-valid nodes;
    the maximum value falls in the last bin. Per bin: count, mean, median
    and the 25/75 and 16/84 percentile pairs (the 50% and 68% central
    intervals).

    A constant metric collapses to a single bin and emits
    :class:`DegenerateMetricWarning` instead of failing.

    Raises:
        NoValidDelays: no node has both a metric value and a valid delay.
        ValueError: ``n_bins`` < 1 or metric length mismatch.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    x, y = _paired(metric, delays)
    if not len(x):
        raise NoValidDelays(f"{delays.kind} delay")

    if x.max() == x.min():
        warnings.warn(
            f"metric {metric.name!r} is constant; returning a single bin",
            DegenerateMetricWarning,
            stacklevel=2,
        )
        n_bins = 1
    indices, edges = uniform_bin_indices(x, n_bins)

    count = np.bincount(indices, minlength=n_bins)
    stats = {name: np.full(n_bins, np.nan) for name in BIN_STATS}
    quantiles = {name: level for name, level in BIN_STATS.items() if level is not None}
    for b in np.flatnonzero(count):
        members = y[indices == b]
        stats["mean"][b] = members.mean()
        for name, value in zip(quantiles, np.percentile(members, list(quantiles.values()))):
            stats[name][b] = value
    return BinnedStats(bin_edges=edges, count=count, **stats)


def suggest_bin_count(metric: MetricVector, delays: DelayVector) -> int:
    """Default bin count for trend plots: Freedman-Diaconis, clamped to [4, 30].

    Raises:
        NoValidDelays: no node has both a metric value and a valid delay.
        ValueError: metric length mismatch.
    """
    x, _ = _paired(metric, delays)
    if not len(x):
        raise NoValidDelays(f"{delays.kind} delay")
    return freedman_diaconis_bins(x)


def _paired(metric: MetricVector, delays: DelayVector) -> tuple[np.ndarray, np.ndarray]:
    """The metric values and the delays, as float64, of the nodes with a valid delay.

    Raises:
        ValueError: the metric and delay vectors differ in length.
    """
    if len(metric.values) != len(delays.days):
        raise ValueError("metric and delay vectors differ in length")
    mask = np.asarray(delays.valid, dtype=bool)
    return metric.values[mask], delays.days[mask].astype(np.float64)


def _delay(network: ActivityNetwork, which: str) -> DelayVector:
    n = network.n
    days = np.zeros(n, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    for i, rec in enumerate(network.nodes):
        planned = rec.planned_start if which == "start" else rec.planned_end
        actual = rec.actual_start if which == "start" else rec.actual_end
        if actual is not None:
            days[i] = (actual - planned).days
            valid[i] = True
    if not valid.any():
        raise NoValidDelays(f"{which} delay")
    days.setflags(write=False)
    valid.setflags(write=False)
    return DelayVector(days, valid, kind=which)


def uniform_bin_indices(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Assign values to ``n_bins`` equal-width bins over [min, max].

    The maximum value lands in the last bin; a zero-width range puts
    everything in bin 0. Returns ``(indices, edges)`` with ``len(edges)
    == n_bins + 1``.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = values.min()
    hi = values.max()
    edges = np.linspace(lo, hi, n_bins + 1)
    if hi > lo:
        indices = np.floor((values - lo) / (hi - lo) * n_bins).astype(np.int64)
        np.clip(indices, 0, n_bins - 1, out=indices)
    else:
        indices = np.zeros(values.shape, dtype=np.int64)
    return indices, edges


def freedman_diaconis_bins(values: np.ndarray) -> int:
    """Freedman-Diaconis bin count, clamped to [4, 30].

    Falls back to the square-root rule when the interquartile range is
    zero; returns 1 for constant data (the degenerate single-bin case).
    """
    values = np.asarray(values, dtype=np.float64)
    span = float(values.max() - values.min())
    if span <= 0.0:
        return 1
    n = len(values)
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    if iqr > 0.0:
        width = 2.0 * iqr / n ** (1.0 / 3.0)
        raw = math.ceil(span / width)
    else:
        raw = math.ceil(math.sqrt(n))
    return max(4, min(30, raw))
