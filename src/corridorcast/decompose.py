"""Additive seasonal/trend/residual decomposition, and recovery of anchored forecasts.

The split is the classical moving-average decomposition: the trend is a
centered moving average over one season (half-weighted ends when the period
is even), the seasonal component is the cycle-averaged detrended series
re-centered to sum to zero over one period, and the residual absorbs the
rest, so S + T + R reconstructs the input exactly everywhere.  The trend is
undefined in the half-window at either edge; there it is extended with the
nearest valid value and the residual keeps the identity exact.

`decompose_panel` works on the whole (sensors, steps, features) block; a
single series is the case of one sensor and one feature.  The trend is one
`np.convolve` per series.  The residual is computed in place as (X - T) - S.
The cycle is averaged over the steps where the trend is defined.  There each
phase occurs either c or c + 1 times, so at most two groups of phases share
an occurrence count.  Each group is gathered, one feature at a time, into a
C-contiguous (sensors, phases, count) block and averaged along its last
axis.  The block must be contiguous: numpy sums the contiguous last axis
pairwise, exactly as it sums the 1-D selection of one phase of one series,
whereas a strided view may be summed in another order and change the last
bits of the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .files import write_table
from .panel import Panel


@dataclass
class Decomposition:
    """Seasonal, trend and residual blocks, same shape as their source.

    For a whole panel the arrays are (sensors, steps, features) with time on
    axis 1; for a single series they are 1-D.  The seasonal block repeats
    exactly with the stored period.
    """

    seasonal: np.ndarray
    trend: np.ndarray
    residual: np.ndarray
    period: int


def _trend_moving_average(series: np.ndarray, period: int) -> np.ndarray:
    """Centered moving average, extended flat over the period // 2 edge steps."""
    if period % 2 == 0:
        weights = np.full(period + 1, 1.0 / period)
        weights[0] = weights[-1] = 0.5 / period
    else:
        weights = np.full(period, 1.0 / period)
    offset = period // 2
    valid = np.convolve(series, weights[::-1], mode="valid")
    trend = np.empty_like(series)
    trend[offset:len(series) - offset] = valid
    trend[:offset] = valid[0]
    trend[len(series) - offset:] = valid[-1]
    return trend


def _phase_means(detrended: np.ndarray, period: int) -> np.ndarray:
    """(features, sensors, period) mean of each phase where the trend is defined.

    The trend is defined on [offset, t - offset), where phase j first occurs
    at step offset + (j - offset) % period.
    """
    n, t, k = detrended.shape
    offset = period // 2
    counts = np.bincount(np.arange(offset, t - offset) % period, minlength=period)
    first = offset + (np.arange(period) - offset) % period
    cycle = np.empty((k, n, period))
    for count in np.unique(counts):
        phases = np.flatnonzero(counts == count)
        steps = first[phases, None] + period * np.arange(count)
        for fi in range(k):
            cycle[fi][:, phases] = np.ascontiguousarray(detrended[:, steps, fi]).mean(axis=-1)
    return cycle


def _decompose_block(values: np.ndarray, period: int) -> Decomposition:
    """Decompose every (sensor, feature) series of a (sensors, steps, features) block."""
    if period < 2:  # a daily period of one step: data at a whole-day step
        raise InsufficientDataError(f"decomposition needs at least 2 steps per period, got "
                                    f"{period}: the data step must be shorter than a day")
    n, t, k = values.shape
    if t < 2 * period:
        raise InsufficientDataError(f"series length {t} < 2*period = {2 * period}")
    trend = np.empty_like(values)
    for si in range(n):
        for fi in range(k):
            trend[si, :, fi] = _trend_moving_average(values[si, :, fi], period)
    residual = values - trend
    cycle = _phase_means(residual, period)
    cycle -= cycle.mean(axis=-1, keepdims=True)
    cycle = np.ascontiguousarray(cycle.transpose(1, 2, 0))  # (sensors, period, features)
    seasonal = np.take(cycle, np.arange(t) % period, axis=1)
    residual -= seasonal
    return Decomposition(seasonal, trend, residual, period)


def decompose_additive(series: np.ndarray, period: int) -> Decomposition:
    """Decompose one series into S + T + R with the given steps-per-season."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("decompose_additive expects a 1-D series")
    d = _decompose_block(series[None, :, None], period)
    return Decomposition(d.seasonal[0, :, 0], d.trend[0, :, 0], d.residual[0, :, 0], period)


def decompose_panel(p: Panel, period: int) -> Decomposition:
    """Decompose every (sensor, feature) series of a panel."""
    return _decompose_block(p.values, period)


def daily_period(step_minutes: float) -> int:
    """Steps per day for the panel's sampling interval, which `Panel` has
    checked to divide a day."""
    return int(round(1440.0 / step_minutes))


def recover_forecast(pred: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Undo stationarization: add the anchor back onto a forecast.

    `anchor` is the seasonal + trend at the anchor step of each forecast row:
    the forecast's shape without its last axis, the horizon.
    """
    return pred + np.expand_dims(anchor, axis=-1)


def dump_components_csv(path: str, d: Decomposition, sensor_index: int) -> None:
    """Write one sensor's (t, S, T, R) columns of feature 0 for inspection, as
    one block of four columns."""
    columns = [c[sensor_index, :, 0].tolist() for c in (d.seasonal, d.trend, d.residual)]
    write_table(path, ["t", "S", "T", "R"], [(range(len(columns[0])), *columns)])
