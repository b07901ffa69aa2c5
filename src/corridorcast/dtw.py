"""Multi-dimensional dynamic time warping over sensor residuals.

The distance between two K-feature sequences is the classic dynamic program
over the L1 point cost delta(a, b) = sum_k |a_k - b_k|, allowing monotone
non-linear alignment.  Sequences are compared as given, with no
normalisation of their own: the pipeline passes the residuals of the min-max
scaled panel.  Corridor-level similarity is the average of window DTW
distances over a rolling window, restricted to high-interaction windows when
a window activity mask is supplied.

One kernel, `_dtw_costs`, solves a block of problems at once: P sensor pairs
times S windows, each an (n, m) grid of cells.  The point cost accumulates
|x_k - y_k| one feature at a time into a (P, S, n, m) block.  The cells are
then filled one anti-diagonal (i + j constant) at a time, since a cell's
three predecessors all lie on the two diagonals before it: each cell takes
the `np.minimum` of its three predecessors across the whole block and adds
its own cost.  Every cell thus runs the same operations as a loop over
single problems, so each distance is bit for bit the one that problem gets
alone.
`dtw_distance` is the case P = S = 1.  `rolling_dtw_matrix` gathers each
pair's windows straight from the residual block and runs the kernel over
chunks of pairs, so that a chunk's cost block stays within `BLOCK_BYTES`
whatever the size of the corridor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .files import write_table

# Byte budget of one chunk's (pairs, windows, n, m) cost block in
# `rolling_dtw_matrix`; the chunk holds as many pairs as fit, and at least one.
BLOCK_BYTES = 1 << 20


def _as_feature_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"sequence must be (N,) or (N, K), got shape {x.shape}")
    if x.shape[0] == 0:
        raise DataError("empty sequence")
    return x


def _dtw_costs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """DTW distance of every problem in a block: x (P, S, n, K), y (P, S, m, K) -> (P, S)."""
    cost = np.abs(x[..., :, None, 0] - y[..., None, :, 0])
    term = np.empty_like(cost)
    for k in range(1, x.shape[-1]):
        np.subtract(x[..., :, None, k], y[..., None, :, k], out=term)
        cost += np.abs(term, out=term)
    n, m = cost.shape[-2:]
    cost[..., 0, :] = np.cumsum(cost[..., 0, :], axis=-1)
    cost[..., :, 0] = np.cumsum(cost[..., :, 0], axis=-1)
    # cell (i, j) sits at i*m + j of the flattened grid, so the interior cells
    # of anti-diagonal d = i + j are one slice with step m - 1, and each
    # predecessor slice is that one shifted by m, 1 or m + 1
    flat = cost.reshape(*cost.shape[:-2], n * m)
    for d in range(2, n + m - 1):
        first, last = max(1, d - m + 1), min(n - 1, d - 1)
        if first > last:
            continue
        cells = slice(first * (m - 1) + d, last * (m - 1) + d + 1, m - 1)
        up, left, diag = (slice(cells.start - s, cells.stop - s, m - 1) for s in (m, 1, m + 1))
        cur = flat[..., cells]
        cur += np.minimum(np.minimum(flat[..., up], flat[..., left]), flat[..., diag])
    return cost[..., n - 1, m - 1].copy()


def dtw_distance(x, y) -> float:
    """Minimum cumulative L1 cost over all monotone alignments of x and y."""
    x = _as_feature_matrix(x)
    y = _as_feature_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature counts differ: {x.shape[1]} vs {y.shape[1]}")
    return float(_dtw_costs(x[None, None], y[None, None])[0, 0])


@dataclass
class DistanceTable:
    """Symmetric sparse pair distances restricted to a neighbor set."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    window_count: int = 0

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i <= j else (j, i)

    def set(self, i: int, j: int, value: float) -> None:
        if not value >= 0:  # also rejects NaN, which no merge order can rank
            raise ValueError(f"distances must be nonnegative, got {value}")
        self.entries[self._key(i, j)] = float(value)

    def get(self, i: int, j: int) -> float | None:
        if i == j:
            return 0.0
        return self.entries.get(self._key(i, j))

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def to_csv(self, path: str) -> None:
        pairs = self.pairs()
        write_table(path, ["i", "j", "distance"], [([i for i, _ in pairs], [j for _, j in pairs],
                                                    [self.entries[ij] for ij in pairs])])


def window_starts(n_steps: int, window_len: int, stride: int) -> list[int]:
    """Start of every whole window of `window_len` (1 to `n_steps`) steps, `stride` apart."""
    return list(range(0, n_steps - window_len + 1, stride))


def active_windows_by_occupancy(occupancy: np.ndarray, window_len: int, stride: int,
                                quantile: float = 0.75) -> np.ndarray:
    """Flag high-interaction windows: mean occupancy above the given quantile.

    The quantile is taken over the window means themselves, so by default the
    top quarter of windows is active.
    """
    occupancy = np.asarray(occupancy, dtype=np.float64)
    starts = window_starts(occupancy.shape[-1], window_len, stride)
    means = np.array([occupancy[..., s:s + window_len].mean() for s in starts])
    if len(means) == 0:
        return np.zeros(0, dtype=bool)
    return means > np.quantile(means, quantile)


def rolling_dtw_matrix(residuals: np.ndarray, neighbors, window_len: int, stride: int,
                       active_mask: np.ndarray | None = None) -> DistanceTable:
    """Average window DTW distance for every neighboring sensor pair.

    `residuals` is (sensors, steps, features), and each pair indexes two of
    its sensors.  `active_mask` holds one flag per window of `window_starts`
    over the same steps, window and stride.  Inactive windows are skipped; if
    the mask disables every window, all windows are used instead.
    """
    starts = window_starts(residuals.shape[1], window_len, stride)
    if active_mask is not None and active_mask.any():
        starts = [s for s, a in zip(starts, active_mask) if a]
    table = DistanceTable(window_count=len(starts))
    neighbors = list(neighbors)
    if not neighbors:
        return table
    pairs = np.array(neighbors, dtype=np.intp)
    win = np.asarray(starts)[:, None] + np.arange(window_len)
    chunk = max(1, BLOCK_BYTES // (8 * win.size * window_len))
    for lo in range(0, len(pairs), chunk):
        block = pairs[lo:lo + chunk, :, None, None]
        x, y = residuals[block[:, 0], win], residuals[block[:, 1], win]
        # windows are the contiguous last axis, so each pair's mean sums them
        # pairwise, as np.mean does the list of that pair's window distances
        means = _dtw_costs(x, y).mean(axis=1)
        for (i, j), d in zip(neighbors[lo:lo + chunk], means):
            table.set(i, j, d)
    return table
