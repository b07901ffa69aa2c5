import csv
import tracemalloc

import numpy as np
import pytest

from corridorcast import dtw
from corridorcast.errors import DataError


def dtw_bruteforce(x, y):
    """Exhaustive minimum over all monotone alignment paths (no DP reuse)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64).T).T
    y = np.atleast_2d(np.asarray(y, dtype=np.float64).T).T
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    delta = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
    n, m = delta.shape
    best = [np.inf]

    def walk(i, j, cost):
        cost += delta[i, j]
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def test_identical_sequences_zero():
    assert dtw.dtw_distance([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0


def test_two_vs_one_element():
    # only one monotone path: pair both x points with the single y point
    assert dtw.dtw_distance([0.0, 1.0], [1.0]) == dtw_bruteforce([0.0, 1.0], [1.0]) == 1.0


def test_two_dimensional_diagonal():
    x = [(0.0, 0.0), (1.0, 1.0)]
    y = [(0.0, 0.0), (2.0, 2.0)]
    assert dtw.dtw_distance(x, y) == dtw_bruteforce(x, y) == 2.0


def test_oracle_equivalence_random_integers(rng):
    for _ in range(60):
        k = int(rng.integers(1, 4))
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.integers(-5, 6, size=(n, k)).astype(float)
        y = rng.integers(-5, 6, size=(m, k)).astype(float)
        assert dtw.dtw_distance(x, y) == dtw_bruteforce(x, y)


def test_self_distance_and_symmetry(rng):
    for _ in range(100):
        k = int(rng.integers(1, 3))
        x = rng.normal(size=(int(rng.integers(1, 10)), k))
        y = rng.normal(size=(int(rng.integers(1, 10)), k))
        assert dtw.dtw_distance(x, x) == 0.0
        assert dtw.dtw_distance(x, y) == dtw.dtw_distance(y, x)


def test_scaling_monotonicity(rng):
    x = rng.normal(size=(6, 2))
    y = rng.normal(size=(7, 2))
    base = dtw.dtw_distance(x, y)
    assert np.isclose(dtw.dtw_distance(3.0 * x, 3.0 * y), 3.0 * base)
    assert dtw.dtw_distance(0.0 * x, 0.0 * y) == 0.0


def test_empty_sequence_rejected():
    with pytest.raises(DataError):
        dtw.dtw_distance([], [1.0])


def test_feature_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        dtw.dtw_distance(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))


# -- rolling window table -------------------------------------------------------


def test_rolling_identical_series_zero(rng):
    r = rng.normal(size=(1, 40, 1))
    residuals = np.vstack([r, r])
    table = dtw.rolling_dtw_matrix(residuals, [(0, 1)], window_len=8, stride=8)
    assert table.get(0, 1) == 0.0


def test_rolling_single_window_equals_direct(rng):
    residuals = rng.normal(size=(2, 10, 1))
    table = dtw.rolling_dtw_matrix(residuals, [(0, 1)], window_len=10, stride=10)
    assert np.isclose(table.get(0, 1), dtw.dtw_distance(residuals[0], residuals[1]))


def test_rolling_mean_of_window_distances(rng):
    residuals = rng.normal(size=(2, 24, 1))
    per_window = [dtw_bruteforce(residuals[0, s:s + 8], residuals[1, s:s + 8])
                  for s in (0, 8, 16)]
    table = dtw.rolling_dtw_matrix(residuals, [(0, 1)], window_len=8, stride=8)
    assert np.isclose(table.get(0, 1), np.mean(per_window))


def test_rolling_active_mask_selects_windows(rng):
    residuals = rng.normal(size=(2, 24, 1))
    mask = np.array([False, True, False])
    table = dtw.rolling_dtw_matrix(residuals, [(0, 1)], 8, 8, active_mask=mask)
    only = dtw.dtw_distance(residuals[0, 8:16], residuals[1, 8:16])
    assert np.isclose(table.get(0, 1), only)
    assert table.window_count == 1


def test_rolling_all_inactive_falls_back_to_all(rng):
    residuals = rng.normal(size=(2, 24, 1))
    none = dtw.rolling_dtw_matrix(residuals, [(0, 1)], 8, 8,
                                  active_mask=np.zeros(3, dtype=bool))
    all_w = dtw.rolling_dtw_matrix(residuals, [(0, 1)], 8, 8)
    assert none.get(0, 1) == all_w.get(0, 1)
    assert none.window_count == 3


def test_rolling_empty_neighbor_set(rng):
    table = dtw.rolling_dtw_matrix(rng.normal(size=(3, 16)), [], 8, 8)
    assert table.entries == {}


def test_active_windows_by_occupancy(rng):
    occ = rng.random((3, 32))
    occ[:, 8:16] += 5.0  # one clearly busy window
    active = dtw.active_windows_by_occupancy(occ, window_len=8, stride=8, quantile=0.75)
    assert active.tolist() == [False, True, False, False]


def test_table_symmetry_and_csv(tmp_path):
    table = dtw.DistanceTable()
    table.set(3, 1, 0.1 + 0.2)
    table.set(2, 0, 1.5)
    assert table.get(0, 2) == table.get(2, 0) == 1.5
    assert table.get(1, 1) == 0.0
    assert table.get(0, 1) is None
    path = tmp_path / "d.csv"
    table.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["i", "j", "distance"], ["0", "2", "1.5"], ["1", "3", repr(0.1 + 0.2)]]
    assert {(int(i), int(j)): float(d) for i, j, d in rows[1:]} == table.entries


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_table_rejects_negative_and_nan_distances(value):
    with pytest.raises(ValueError, match="nonnegative"):
        dtw.DistanceTable().set(0, 1, value)


# -- batched kernel against the per-window loop --------------------------------------


def dtw_loop(x, y):
    """The per-cell double loop the batched kernel replaced, kept as its oracle."""
    delta = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)
    n, m = delta.shape
    c = np.empty((n, m))
    c[0, :] = np.cumsum(delta[0, :])
    c[:, 0] = np.cumsum(delta[:, 0])
    for i in range(1, n):
        for j in range(1, m):
            c[i, j] = min(c[i - 1, j], c[i, j - 1], c[i - 1, j - 1]) + delta[i, j]
    return float(c[n - 1, m - 1])


def rolling_loop(residuals, neighbors, window_len, active_mask):
    """One `dtw_loop` per (pair, window), averaged per pair, as before batching."""
    starts = dtw.window_starts(residuals.shape[1], window_len, window_len)
    if active_mask.any():
        starts = [s for s, a in zip(starts, active_mask) if a]
    return {(min(i, j), max(i, j)): float(np.mean([
        dtw_loop(residuals[i, s:s + window_len], residuals[j, s:s + window_len])
        for s in starts])) for i, j in neighbors}


# "raw": the residuals go in as given, the one way the DTW compares them; the
# id keeps the case names these tests have carried
@pytest.mark.parametrize("residuals_as", ["raw"])
@pytest.mark.parametrize("window_len", [2, 7, 8, 9])
@pytest.mark.parametrize("features", [1, 3])
def test_rolling_equals_per_window_loop(rng, monkeypatch, residuals_as, window_len, features):
    n_sensors, n_windows = 9, 11
    residuals = rng.normal(size=(n_sensors, window_len * n_windows + 1, features))
    residuals[4, :, 0] = 0.25  # a constant feature
    neighbors = [(i, j) for i in range(n_sensors) for j in range(i + 1, n_sensors)
                 if j - i <= 4] + [(8, 2)]
    mask = rng.random(n_windows) < 0.6
    mask[:2] = True, False
    # five pairs per chunk, so the 27 pairs span six chunks and the last is partial
    monkeypatch.setattr(dtw, "BLOCK_BYTES", 5 * 8 * mask.sum() * window_len ** 2)
    table = dtw.rolling_dtw_matrix(residuals, neighbors, window_len, window_len,
                                   active_mask=mask)
    assert table.entries == rolling_loop(residuals, neighbors, window_len, mask)


def test_dtw_distance_equals_loop(rng):
    for _ in range(40):
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(int(rng.integers(1, 12)), k))
        y = rng.normal(size=(int(rng.integers(1, 12)), k))
        assert dtw.dtw_distance(x, y) == dtw_loop(x, y)


def test_rolling_memory_is_bounded_by_chunks(rng):
    residuals = rng.normal(size=(301, 256, 3))  # 32 windows of 8 steps
    neighbors = [(i, i + 1) for i in range(300)]
    tracemalloc.start()
    try:
        table = dtw.rolling_dtw_matrix(residuals, neighbors, 8, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 300
    assert peak < 8 * 2**20
