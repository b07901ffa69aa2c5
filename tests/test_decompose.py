import tracemalloc

import numpy as np
import pytest

from corridorcast import decompose as dc
from corridorcast.errors import InsufficientDataError

from test_panel import make_panel


def reconstruct(d):
    return d.seasonal + d.trend + d.residual


def stationarize_window(s_win, t_win, r_win, anchor_index, time_axis=-1):
    """Shift a (w+h)-step window so its last input step becomes the origin.

    Seasonal and trend channels have their value at `anchor_index` subtracted;
    residuals pass through unchanged.  Returns the shifted channels plus the
    (seasonal, trend) anchor values needed to undo the shift.  The oracle for
    the shift `WindowSet.batch_dict` applies and `dc.recover_forecast` undoes.
    """
    anchor_s = np.take(s_win, anchor_index, axis=time_axis)
    anchor_t = np.take(t_win, anchor_index, axis=time_axis)
    seasonal_in = s_win - np.expand_dims(anchor_s, axis=time_axis)
    trend_in = t_win - np.expand_dims(anchor_t, axis=time_axis)
    return seasonal_in, trend_in, r_win, (anchor_s, anchor_t)


def test_constant_series():
    d = dc.decompose_additive(np.full(16, 7.0), period=4)
    assert np.allclose(d.trend, 7.0, atol=1e-12)
    assert np.allclose(d.seasonal, 0.0, atol=1e-12)
    assert np.allclose(d.residual, 0.0, atol=1e-12)


def test_pure_cycle():
    cycle = np.array([0.0, 1.0, 0.0, -1.0])
    series = np.tile(cycle, 8)
    d = dc.decompose_additive(series, period=4)
    interior = slice(2, len(series) - 2)
    assert np.max(np.abs(d.residual[interior])) < 1e-9
    assert np.allclose(d.seasonal[:4], cycle, atol=1e-9)


def test_linear_ramp():
    series = 0.5 * np.arange(20)
    d = dc.decompose_additive(series, period=4)
    interior = slice(2, 18)
    assert np.max(np.abs(d.seasonal[interior])) < 1e-9
    assert np.max(np.abs(d.trend[interior] - series[interior])) < 1e-9


@pytest.mark.parametrize("period", [2, 3, 4, 5, 7])
def test_reconstruction_identity(rng, period):
    series = rng.normal(size=6 * period) * 3 + 10
    d = dc.decompose_additive(series, period)
    assert np.max(np.abs(reconstruct(d) - series)) < 1e-9


def test_seasonal_zero_mean(rng):
    series = rng.normal(size=40)
    d = dc.decompose_additive(series, period=5)
    assert abs(d.seasonal[:5].sum()) < 1e-9


def test_seasonal_exact_periodicity(rng):
    series = rng.normal(size=36)
    d = dc.decompose_additive(series, period=6)
    for t in range(len(series)):
        assert d.seasonal[t] == d.seasonal[t % 6]


def test_shift_equivariance(rng):
    series = rng.normal(size=32)
    base = dc.decompose_additive(series, period=4)
    shifted = dc.decompose_additive(series + 11.5, period=4)
    assert np.max(np.abs(shifted.trend - base.trend - 11.5)) < 1e-9
    assert np.max(np.abs(shifted.seasonal - base.seasonal)) < 1e-9
    assert np.max(np.abs(shifted.residual - base.residual)) < 1e-9


def test_too_short_series():
    with pytest.raises(InsufficientDataError):
        dc.decompose_additive(np.ones(7), period=4)


def test_decompose_panel_matches_per_series(rng):
    p = make_panel(rng.normal(size=(2, 24, 3)))
    d = dc.decompose_panel(p, period=4)
    single = dc.decompose_additive(p.values[1, :, 2], period=4)
    assert np.array_equal(d.trend[1, :, 2], single.trend)
    assert np.max(np.abs(reconstruct(d) - p.values)) < 1e-9


def decompose_loop(series, period):
    """The per-series, per-phase decomposition the panel routine replaced, kept as its oracle."""
    if period % 2 == 0:
        weights = np.full(period + 1, 1.0 / period)
        weights[0] = weights[-1] = 0.5 / period
        offset = period // 2
    else:
        weights = np.full(period, 1.0 / period)
        offset = (period - 1) // 2
    t = len(series)
    valid_ma = np.convolve(series, weights[::-1], mode="valid")
    trend = np.empty_like(series)
    trend[offset:t - offset] = valid_ma
    trend[:offset] = valid_ma[0]
    trend[t - offset:] = valid_ma[-1]
    detrended = series - trend
    phases = np.arange(t) % period
    valid = slice(offset, t - offset)
    cycle = np.zeros(period)
    for j in range(period):
        cycle[j] = detrended[valid][phases[valid] == j].mean()
    cycle -= cycle.mean()
    seasonal = cycle[phases]
    return seasonal, trend, series - trend - seasonal


# (period, steps): even and odd periods; one or two phase-occurrence counts
# over the span where the trend is defined; counts of 8 and more, where numpy
# sums pairwise
@pytest.mark.parametrize("period, steps", [(4, 22), (5, 23), (5, 24), (7, 87), (24, 245)])
@pytest.mark.parametrize("features", [1, 3])
def test_decompose_panel_equals_per_series_loop(rng, period, steps, features):
    values = rng.normal(size=(3, steps, features)) * 40 + 100
    d = dc.decompose_panel(make_panel(values), period)
    for si in range(3):
        for fi in range(features):
            want = decompose_loop(values[si, :, fi], period)
            got = (d.seasonal[si, :, fi], d.trend[si, :, fi], d.residual[si, :, fi])
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    single = dc.decompose_additive(values[0, :, 0], period)
    want = decompose_loop(values[0, :, 0], period)
    assert all(np.array_equal(a, b) for a, b in
               zip((single.seasonal, single.trend, single.residual), want))


def test_decompose_panel_memory(rng):
    p = make_panel(rng.normal(size=(32, 1600, 3)))
    tracemalloc.start()
    try:
        d = dc.decompose_panel(p, period=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = p.values[:, :, 0].nbytes  # one (sensors, steps) block
    assert peak < d.seasonal.nbytes + d.trend.nbytes + d.residual.nbytes + 2 * block


def test_daily_period():
    assert dc.daily_period(5.0) == 288
    assert dc.daily_period(15.0) == 96


def test_stationarize_anchor_becomes_zero(rng):
    w, h = 6, 4
    s_win = rng.normal(size=(3, w + h))
    t_win = rng.normal(size=(3, w + h))
    r_win = rng.normal(size=(3, w + h))
    s_in, t_in, r_in, anchors = stationarize_window(s_win, t_win, r_win, w - 1)
    assert np.allclose(s_in[:, w - 1], 0.0)
    assert np.allclose(t_in[:, w - 1], 0.0)
    assert np.array_equal(r_in, r_win)
    assert np.array_equal(anchors[0], s_win[:, w - 1])


def test_stationarize_constant_trend():
    t_win = np.full((2, 8), 5.0)
    zeros = np.zeros((2, 8))
    _, t_in, _, _ = stationarize_window(zeros, t_win, zeros, 3)
    assert np.all(t_in == 0.0)


def test_stationarize_recover_roundtrip(rng):
    s_win = rng.normal(size=(4, 10))
    t_win = rng.normal(size=(4, 10))
    r_win = rng.normal(size=(4, 10))
    truth = s_win + t_win + r_win
    s_in, t_in, r_in, anchors = stationarize_window(s_win, t_win, r_win, 5)
    stationarized_truth = truth - np.expand_dims(anchors[0] + anchors[1], -1)
    back = dc.recover_forecast(stationarized_truth, anchors)
    assert np.max(np.abs(back - truth)) < 1e-12


def test_recover_zero_prediction(rng):
    anchors = (rng.normal(size=3), rng.normal(size=3))
    out = dc.recover_forecast(np.zeros((3, 4)), anchors)
    assert np.allclose(out, (anchors[0] + anchors[1])[:, None])


def test_recover_zero_anchors_is_identity(rng):
    pred = rng.normal(size=(3, 4))
    out = dc.recover_forecast(pred, (np.zeros(3), np.zeros(3)))
    assert np.array_equal(out, pred)


def test_recover_shape_mismatch(rng):
    with pytest.raises(ValueError):
        dc.recover_forecast(np.zeros((3, 4)), (np.zeros(2), np.zeros(2)))


def test_dump_components_csv(tmp_path, rng):
    p = make_panel(rng.normal(size=(1, 12, 3)))
    d = dc.decompose_panel(p, period=4)
    path = str(tmp_path / "out.csv")
    dc.dump_components_csv(path, d, 0)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "t,S,T,R"
    assert len(lines) == 13
