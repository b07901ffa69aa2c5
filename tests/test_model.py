import tracemalloc

import numpy as np
import pytest

from corridorcast import decompose as dc
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import nn
from corridorcast import panel as pn
from corridorcast import pipeline as pl
from corridorcast.errors import (ConfigError, FieldError, InsufficientDataError,
                                 TrainingDivergence)
from corridorcast.nn import restore_params

from conftest import assert_grads_close, central_difference_grads
from test_decompose import stationarize_window
from test_panel import invert_scale_values, make_panel


def tiny_config(**over):
    base = dict(window=6, horizon=2, conv_filters=(2, 3), conv_time_kernel=3,
                conv_pool=2, proj_channels=2, convlstm_filters=(2, 2),
                convlstm_kernel=3, post_units=8, dae_widths=(6, 4, 2, 4, 6),
                dropout=0.2, batch_size=8, epochs=3, pretrain_epochs=3,
                learning_rate=3e-3)
    base.update(over)
    return md.ForecasterConfig(**base)


def scaled_decomposed(rng, sensors=4, days=4, seed=5):
    p = ev.synth_generate(ev.SynthConfig(), sensors, days, seed=seed)
    boundary = int(0.75 * p.n_steps)
    scaling = pn.fit_scale(p, (0, boundary))
    scaled = pn.apply_scale(p, scaling)
    decomp = dc.decompose_panel(scaled, period=96)
    return p, boundary, scaling, scaled, decomp


CLUSTERS4 = [[0, 1], [1, 2, 3]]


# -- config ----------------------------------------------------------------------


def test_config_rejects_nonpalindromic_dae():
    with pytest.raises(ConfigError):
        tiny_config(dae_widths=(6, 4, 2, 4, 5))


@pytest.mark.parametrize("over, field", [
    (dict(conv_time_kernel=7), "conv_time_kernel"),
    (dict(conv_pool=3), "conv_pool"),  # 6 - 3 + 1 = 4 conv steps
    (dict(window=5), "conv_pool"),  # 3 conv steps
], ids=["kernel-longer-than-window", "pool-4-by-3", "pool-3-by-2"])
def test_config_rejects_conv_geometry(over, field):
    with pytest.raises(FieldError) as caught:
        tiny_config(**over)
    assert caught.value.field == field
    assert tiny_config(conv_time_kernel=6, conv_pool=1).conv_time_kernel == 6


def test_config_desk_is_smaller_than_reference():
    desk, ref = md.ForecasterConfig.desk(), md.ForecasterConfig()
    assert desk.conv_filters < ref.conv_filters
    assert desk.batch_size < ref.batch_size
    assert desk.window == ref.window and desk.horizon == ref.horizon


def test_config_items_roundtrip():
    cfg = md.ForecasterConfig.desk(epochs=7)
    again = pl.decode(md.ForecasterConfig(), pl.encode(cfg))
    assert again == cfg
    assert pl.config_hash(again) == pl.config_hash(cfg)


def test_config_hash_is_pinned():
    # reports carry this digest, so a change to the codec must not move it
    assert pl.config_hash(md.ForecasterConfig.desk()) == "f6aed63390bb"
    assert pl.config_hash(md.ForecasterConfig()) == "a28998dbaf02"


# -- windowing -------------------------------------------------------------------


def window_fixture(rng, t, w=3, h=2):
    p = make_panel(rng.random((2, t, 3)))
    decomp = dc.decompose_panel(p, period=max(2, t // 4)) if t >= 2 * max(2, t // 4) \
        else None
    if decomp is None:
        period = 2
        decomp = dc.decompose_panel(p, period)
    return p, decomp


def test_window_count_exact_fit(rng):
    p, decomp = window_fixture(rng, 5)
    ws = md.make_windows(p, decomp, w=3, h=2)
    assert len(ws) == 1


def test_window_count_stride_one(rng):
    p, decomp = window_fixture(rng, 7)
    ws = md.make_windows(p, decomp, w=3, h=2)
    assert len(ws) == 3
    assert ws.t_index.tolist() == [2, 3, 4]


def test_window_too_short(rng):
    p, decomp = window_fixture(rng, 4)
    with pytest.raises(InsufficientDataError):
        md.make_windows(p, decomp, w=3, h=2)


def test_window_anchor_recovers_truth(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    ws = md.make_windows(scaled, decomp, w=6, h=4)
    base = ws.anchor_seasonal + ws.anchor_trend
    rebuilt = ws.target_st + base[:, :, None]
    assert np.max(np.abs(rebuilt - ws.target_scaled)) < 1e-12


def test_window_stationarized_channels(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    w, h = 6, 4
    ws = md.make_windows(scaled, decomp, w, h)
    batch = ws.batch_dict()
    # the anchor step itself is zero in the shifted channels
    assert np.max(np.abs(batch["trend"][:, :, w - 1, :])) == 0.0
    assert np.max(np.abs(batch["seasonal"][:, :, w - 1])) == 0.0
    i = 7
    t = int(ws.t_index[i])
    assert np.allclose(batch["residual"][i], decomp.residual[:, t - w + 1:t + 1, :])


def test_recover_predictions_roundtrip(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    ws = md.make_windows(scaled, decomp, w=6, h=4)
    recovered = md.recover_predictions(ws.target_st, ws, scaling)
    truth = md.horizon_truth(p, ws.t_index, 4)
    assert np.max(np.abs(recovered - truth)) < 1e-8


def test_split_by_time_no_leakage(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    ws = md.make_windows(scaled, decomp, w=6, h=4)
    train, test = md.split_by_time(ws, boundary, horizon=4)
    assert np.all(train.t_index + 4 < boundary)
    assert np.all(test.t_index >= boundary)
    assert len(train) + len(test) <= len(ws)


def reference_make_windows(panel, decomp, w, h):
    """The eager windowing the lazy WindowSet replaced, kept as its oracle."""
    n, t, k = panel.values.shape
    count = t - w - h + 1
    swv = np.lib.stride_tricks.sliding_window_view

    def spans(block, length):
        win = swv(block, length, axis=1)
        win = win[:, :count].transpose(1, 0, 3, 2)
        return np.ascontiguousarray(win, dtype=np.float64)

    s_win = spans(decomp.seasonal, w + h)
    t_win = spans(decomp.trend, w + h)
    r_win = spans(decomp.residual, w + h)
    seasonal_in, trend_in, residual_in, (anchor_s, anchor_t) = stationarize_window(
        s_win, t_win, r_win, anchor_index=w - 1, time_axis=2)
    target_scaled = spans(panel.values, w + h)[:, :, w:, 0]
    anchor_s = anchor_s[:, :, 0]
    anchor_t = anchor_t[:, :, 0]
    target_st = target_scaled - (anchor_s + anchor_t)[:, :, None]
    return {"residual": residual_in[:, :, :w, :], "trend": trend_in[:, :, :w, :],
            "seasonal": seasonal_in[..., 0], "target_st": target_st,
            "target_scaled": target_scaled, "anchor_seasonal": anchor_s,
            "anchor_trend": anchor_t, "t_index": np.arange(w - 1, w - 1 + count)}


def assert_matches_reference(ws, ref, rows, rng):
    """`ws` must equal the reference windows `rows`, inputs gathered in any order."""
    for name in ("t_index", "anchor_seasonal", "anchor_trend", "target_scaled",
                 "target_st"):
        assert np.array_equal(getattr(ws, name), ref[name][rows]), name
    for idx in (rng.integers(0, len(ws), size=17), np.arange(len(ws))):
        batch = ws.batch_dict(idx)
        for name in ("residual", "trend", "seasonal"):
            assert np.array_equal(batch[name], ref[name][rows[idx]]), name


def test_windows_match_eager_reference(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng, sensors=5, days=5)
    w, h = 6, 4
    ref = reference_make_windows(scaled, decomp, w, h)
    ws = md.make_windows(scaled, decomp, w, h)
    assert len(ws) == len(ref["t_index"])
    assert_matches_reference(ws, ref, np.arange(len(ws)), rng)
    train, test = md.split_by_time(ws, boundary, horizon=h)
    train_rows = np.flatnonzero(ref["t_index"] + h < boundary)
    test_rows = np.flatnonzero(ref["t_index"] >= boundary)
    assert_matches_reference(train, ref, train_rows, rng)
    assert_matches_reference(test, ref, test_rows, rng)
    pick = rng.permutation(len(train))[:40]
    again = np.array([3, 0, 39, 3])
    assert_matches_reference(train.subset(pick).subset(again), ref,
                             train_rows[pick][again], rng)


def test_windowing_never_holds_every_window(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng, sensors=12, days=10)
    w, h = 6, 4
    n, t, k = scaled.values.shape
    one_window_array = (t - w - h + 1) * n * (w + h) * k * 8
    tracemalloc.start()
    try:
        ws = md.make_windows(scaled, decomp, w, h)
        md.split_by_time(ws, boundary, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_window_array


# -- baselines ---------------------------------------------------------------------


def test_baseline_current_constant_zero_error():
    p = make_panel(np.full((2, 20, 3), 5.0))
    pred = md.baseline_current(p, np.array([5, 6]), horizon=4)
    truth = md.horizon_truth(p, np.array([5, 6]), 4)
    assert ev.mae(truth, pred) == 0.0


def test_baseline_current_ramp_mae():
    t = np.arange(30, dtype=np.float64)
    values = np.zeros((1, 30, 3))
    values[0, :, 0] = t  # slope 1 per step
    p = make_panel(values)
    anchors = np.arange(5, 20)
    pred = md.baseline_current(p, anchors, horizon=4)
    truth = md.horizon_truth(p, anchors, 4)
    assert ev.mae(truth, pred) == pytest.approx(2.5)


def weekly_panel(values_fn, weeks=3, step_minutes=60):
    steps = weeks * 7 * 24
    tod = np.arange(steps)
    vals = np.zeros((2, steps, 3))
    for s in range(2):
        vals[s, :, 0] = values_fn(s, tod)
    return make_panel(vals, step_s=step_minutes * 60)


def table_entry(baseline, sensor, timestamp):
    """The baseline's forecast for `sensor` at `timestamp`: its table entry."""
    weekday, slot = baseline._key(int(np.datetime64(timestamp, "s").astype(np.int64)))
    return float(baseline.table[sensor, weekday, slot])


def test_weekday_baseline_zero_error_on_periodic():
    week_len = 7 * 24
    p = weekly_panel(lambda s, t: np.sin(2 * np.pi * (t % week_len) / week_len) + s)
    train = pn.Panel(p.values[:, :2 * week_len], p.time_index[:2 * week_len],
                     p.features, p.missing_mask[:, :2 * week_len], p.sensors)
    baseline = md.baseline_weekday_hourly(train)
    anchors = np.arange(2 * week_len, 3 * week_len - 5)
    pred = baseline.predict(p, anchors, horizon=4)
    truth = md.horizon_truth(p, anchors, 4)
    assert ev.mae(truth, pred) < 1e-12


def test_weekday_baseline_averages_two_weeks():
    week_len = 7 * 24
    p = weekly_panel(lambda s, t: np.where(t < week_len, 3.0, 5.0), weeks=2)
    baseline = md.baseline_weekday_hourly(p)
    assert table_entry(baseline, 0, p.time_index[5]) == pytest.approx(4.0)


def test_weekday_baseline_constant_panel():
    p = weekly_panel(lambda s, t: np.full(t.shape, 9.0), weeks=1)
    baseline = md.baseline_weekday_hourly(p)
    assert set(np.round(baseline.table.ravel(), 12)) == {9.0}


def test_weekday_baseline_unseen_key_falls_back():
    vals = np.full((1, 24, 3), 4.0)  # one Monday of hourly data
    p = make_panel(vals, step_s=3600)
    baseline = md.baseline_weekday_hourly(p)
    tuesday = p.time_index[0] + np.timedelta64(25, "h")
    assert table_entry(baseline, 0, tuesday) == pytest.approx(4.0)  # global mean


def reference_weekday_baseline(train_panel, feature=0):
    """The per-cell loop the vectorised baseline replaced, kept as its oracle."""
    step_minutes = train_panel.step_minutes
    seconds = train_panel.time_index.astype("datetime64[s]").astype(np.int64)
    weekday = ((seconds // 86400) + 3) % 7
    slot = (seconds % 86400) // int(step_minutes * 60)
    sums, counts = {}, {}
    vals = train_panel.values[:, :, feature]
    obs = train_panel.missing_mask[:, :, feature]
    for si in range(train_panel.n_sensors):
        for ti in range(train_panel.n_steps):
            if not obs[si, ti]:
                continue
            key = (si, int(weekday[ti]), int(slot[ti]))
            sums[key] = sums.get(key, 0.0) + vals[si, ti]
            counts[key] = counts.get(key, 0) + 1
    table = {k: sums[k] / counts[k] for k in sums}
    totals = np.where(obs, vals, 0.0).sum(axis=1)
    seen = obs.sum(axis=1)
    global_mean = np.where(seen > 0, totals / np.maximum(seen, 1), 0.0)

    def predict_step(sensor, timestamp):
        secs = int(np.datetime64(timestamp, "s").astype(np.int64))
        key = (sensor, int(((secs // 86400) + 3) % 7),
               int((secs % 86400) // int(step_minutes * 60)))
        return table.get(key, float(global_mean[sensor]))

    def predict(panel, t_indices, horizon):
        out = np.empty((len(t_indices), panel.n_sensors, horizon))
        for i, t in enumerate(np.asarray(t_indices)):
            for j in range(horizon):
                ts = panel.time_index[t + 1 + j]
                for si in range(panel.n_sensors):
                    out[i, si, j] = predict_step(si, ts)
        return out

    return table, predict_step, predict


def test_weekday_baseline_matches_loop_reference(rng):
    steps = 29 * 96  # four weeks and a day at 15 minutes: up to five values per key
    vals = rng.gamma(2.0, 50.0, size=(3, steps, 3))
    mask = rng.random(vals.shape) > 0.3
    mask[2, :, 0] = False  # a sensor with no observation at all
    p = make_panel(vals, mask=mask, step_s=900)
    table, predict_step, predict = reference_weekday_baseline(p)
    baseline = md.baseline_weekday_hourly(p)
    assert baseline.table.shape == (3, 7, 96)
    for (si, wd, sl), value in table.items():
        assert baseline.table[si, wd, sl] == value
    unseen = np.ones(baseline.table.shape, dtype=bool)
    unseen[tuple(np.array(list(table)).T)] = False
    fallback = np.broadcast_to(baseline.global_mean[:, None, None], unseen.shape)
    assert np.array_equal(baseline.table[unseen], fallback[unseen])
    anchors = np.arange(0, steps - 5, 11)
    assert np.array_equal(baseline.predict(p, anchors, 4), predict(p, anchors, 4))
    for si in range(3):
        for t in (0, 95, 500):
            assert table_entry(baseline, si, p.time_index[t]) == predict_step(si, p.time_index[t])


# -- DAE -----------------------------------------------------------------------------


def test_scale_dae_widths():
    assert md.scale_dae_widths((40, 20, 10, 20, 40), 100) == (40, 20, 10, 20, 40)
    assert md.scale_dae_widths((40, 20, 10, 20, 40), 8) == (16, 8, 4, 8, 16)
    assert min(md.scale_dae_widths((40, 20, 10, 20, 40), 3)) >= 1
    # equal-or-larger inputs keep the configured widths
    assert md.scale_dae_widths((6, 6, 6, 6, 6), 6) == (6, 6, 6, 6, 6)


def test_dae_overfits_clean_batch(rng):
    block = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 6))
    cfg = tiny_config(dropout=0.0, dae_widths=(6, 6, 6, 6, 6), pretrain_epochs=800,
                      learning_rate=1e-2)
    weights, curves = md.pretrain_dae([block], cfg, seed=0)
    head = md.DAEHead(np.random.default_rng(0), 6, cfg.dae_widths, 0.0)
    restore_params(head.parameters(), weights[0])
    recon = head(md.Tensor(block), training=False)
    assert float(np.mean((recon.data - block) ** 2)) < 1e-4


def test_dae_loss_trend_non_increasing(rng):
    base = rng.normal(size=(1, 12))
    block = base + 0.3 * rng.normal(size=(64, 12))
    cfg = tiny_config(pretrain_epochs=20, dae_widths=(8, 6, 4, 6, 8))
    _, curves = md.pretrain_dae([block], cfg, seed=1)
    means = [np.mean(curves[0][i:i + 5]) for i in range(0, 20, 5)]
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_dae_prefers_in_distribution(rng):
    # structured blocks: coordinates strongly correlated
    latent = rng.normal(size=(200, 2))
    mix = rng.normal(size=(2, 10))
    block = latent @ mix
    cfg = tiny_config(pretrain_epochs=60, dae_widths=(8, 6, 4, 6, 8),
                      learning_rate=5e-3)
    weights, _ = md.pretrain_dae([block], cfg, seed=2)
    head = md.DAEHead(np.random.default_rng(0), 10, cfg.dae_widths, 0.0)
    restore_params(head.parameters(), weights[0])
    sample = block[:50]
    permuted = sample[:, np.random.default_rng(3).permutation(10)]
    mse_in = float(np.mean((head(md.Tensor(sample), False).data - sample) ** 2))
    mse_perm = float(np.mean((head(md.Tensor(permuted), False).data - permuted) ** 2))
    assert mse_in < mse_perm


def reference_dae_head(head, x, training, rng):
    """The layer-by-layer chain that `DAEHead` runs as one autograd node, kept
    as its exact-parity oracle: inverted dropout, a product with a drawn keep
    mask whose backward is `g * keep`, before each `nn.Dense` but the first,
    only in training mode at a nonzero rate."""
    rate = head.dropout_rate
    h = x
    for li, layer in enumerate(head.dense):
        if li > 0 and training and rate > 0.0:
            dtype = h.data.dtype
            keep = (rng.random(h.data.shape) >= rate).astype(dtype) * (1.0 / (1.0 - rate))
            h = h * md.Tensor(keep)
        h = layer(h)
    return h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("training", [False, True])
def test_dae_head_matches_layer_by_layer_oracle(rng, training, rate, dtype):
    head = md.DAEHead(np.random.default_rng(4), 12, (8, 6, 4, 6, 8), rate)
    head.cast(dtype)
    data = rng.normal(size=(9, 12)).astype(dtype)
    target = md.Tensor(rng.normal(size=(9, 12)).astype(dtype))
    runs = []
    for call in (head, lambda *a: reference_dae_head(head, *a)):
        for p in head.parameters().values():
            p.zero_grad()
        x = md.Tensor(data.copy(), requires_grad=True)
        draws = np.random.default_rng(21)
        out = call(x, training, draws)
        nn.mean(nn.square(out - target)).backward()
        runs.append((out.data, x.grad, {k: p.grad for k, p in head.parameters().items()},
                     draws.bit_generator.state))
    (out, dx, grads, state), (ref_out, ref_dx, ref_grads, ref_state) = runs
    assert out.dtype == dx.dtype == dtype
    assert np.array_equal(out, ref_out) and np.array_equal(dx, ref_dx)
    for name, g in grads.items():
        assert g.dtype == dtype and np.array_equal(g, ref_grads[name]), name
    assert state == ref_state  # the same draws, in the same order
    drawn = state != np.random.default_rng(21).bit_generator.state
    assert drawn == (training and rate > 0.0)


def test_gradcheck_dae_head_in_training_mode(rng):
    # a freshly seeded rng per call freezes the dropout masks
    head = md.DAEHead(np.random.default_rng(5), 6, (5, 4, 5), 0.3)
    for layer in head.dense:  # off zero: a row dropped to all zeros sits on the kink
        layer.b.data[:] = rng.normal(size=layer.b.data.shape)
    x = md.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    target = md.Tensor(rng.normal(size=(4, 6)))

    def loss():
        out = head(x, training=True, rng=np.random.default_rng(11))
        return nn.mean(nn.square(out - target))

    leaves = {**head.parameters(), "x": x}
    numeric = central_difference_grads(lambda: float(loss().data),
                                       {k: t.data for k, t in leaves.items()})
    loss().backward()
    assert_grads_close({k: t.grad for k, t in leaves.items()}, numeric)
    # the masks were on: training differs from inference
    assert not np.array_equal(head(x, training=True, rng=np.random.default_rng(11)).data,
                              head(x, training=False).data)


# -- forecaster wiring ------------------------------------------------------------


def batch_from(ws, idx):
    return ws.batch_dict(np.asarray(idx))


def test_forecaster_output_shape(rng):
    cfg = tiny_config(use_dae=False)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    batch = {"residual": rng.normal(size=(5, 4, 6, 3)),
             "trend": rng.normal(size=(5, 4, 6, 3)),
             "seasonal": rng.normal(size=(5, 4, 8))}
    out = model.forward(batch)
    assert out.data.shape == (5, 4, 2)


def test_forecaster_with_dae_same_shape(rng):
    cfg = tiny_config(use_dae=True)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    batch = {"residual": rng.normal(size=(3, 4, 6, 3)),
             "trend": rng.normal(size=(3, 4, 6, 3)),
             "seasonal": rng.normal(size=(3, 4, 8))}
    assert model.forward(batch).data.shape == (3, 4, 2)


def test_predict_is_bit_identical_to_forward_and_builds_no_graph(rng):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    cfg = tiny_config(use_dae=True)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon).subset(
        rng.permutation(300)[:7])
    graphed = model.forward(ws.batch_dict())
    assert graphed.requires_grad
    outputs = []
    forward = model.forward
    model.forward = lambda *a, **k: outputs.append(forward(*a, **k)) or outputs[-1]
    assert np.array_equal(model.predict(ws), graphed.data)
    assert len(outputs) == 1 and not outputs[0].requires_grad and not outputs[0]._parents
    del model.forward
    sliced = [model.forward(ws.batch_dict(range(lo, min(lo + 3, 7)))).data
              for lo in (0, 3, 6)]
    assert np.array_equal(model.predict(ws, batch_size=3), np.concatenate(sliced))
    assert model.forward(ws.batch_dict()).requires_grad  # graph recording is back on


@pytest.fixture(scope="module")
def desk_corridor():
    """An untrained desk model on a 24-sensor, 28-day corridor and its windows."""
    _, boundary, _, scaled, decomp = scaled_decomposed(None, sensors=24, days=28)
    cfg = md.ForecasterConfig.desk()
    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    train_w, test_w = md.split_by_time(ws, boundary, cfg.horizon)
    clusters = [list(range(lo, lo + 4)) for lo in range(0, 24, 4)]
    return md.build_forecaster(clusters, 24, 3, cfg, seed=1), train_w, test_w


def test_training_forward_graph_stays_small(desk_corridor):
    # the graph one 64-window training step keeps until backward: mostly the
    # ConvLSTM activations (99 MiB with one autograd chain per ConvLSTM step)
    model, train_w, _ = desk_corridor
    batch = train_w.batch_dict(np.arange(64))
    tracemalloc.start()
    try:
        out = model.forward(batch, training=True, rng=np.random.default_rng(0))
        graph, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert graph < 60 * 2**20


def test_predict_transient_stays_small(desk_corridor):
    # inference slices of 64 windows: 47 MiB at 256-window slices
    model, _, test_w = desk_corridor
    tracemalloc.start()
    try:
        model.predict(test_w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_forecaster_rejects_bad_clusters():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        md.build_forecaster([[0, 1], []], 4, 3, cfg, seed=1)
    with pytest.raises(ConfigError):
        md.build_forecaster([[0, 1]], 4, 3, cfg, seed=1)  # sensors 2,3 uncovered
    with pytest.raises(ConfigError):
        md.build_forecaster([[0, 1, 9]], 4, 3, cfg, seed=1)


def test_parameter_count_is_config_function():
    cfg = tiny_config()
    a = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    b = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=99)
    assert a.parameter_count() == b.parameter_count()
    assert set(a.parameters()) == set(b.parameters())


def test_cluster_locality_pre_lstm(rng):
    cfg = tiny_config(use_dae=False)
    model = md.build_forecaster([[0, 1], [2, 3]], 4, 3, cfg, seed=3)
    batch = {"residual": rng.normal(size=(2, 4, 6, 3)),
             "trend": rng.normal(size=(2, 4, 6, 3)),
             "seasonal": rng.normal(size=(2, 4, 8))}
    def cluster_features(b):  # per-cluster maps before any cross-cluster mixing
        with nn.no_grad():
            return [f.data for f in model._cluster_maps(b["residual"])]

    base = cluster_features(batch)
    perturbed = {k: v.copy() for k, v in batch.items()}
    perturbed["residual"][:, [2, 3], :, :] += 5.0  # outside cluster 0
    mod = cluster_features(perturbed)
    assert np.array_equal(base[0], mod[0])
    assert not np.array_equal(base[1], mod[1])


def test_zero_residual_ablation(rng):
    cfg = tiny_config(use_dae=True)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    trend = rng.normal(size=(2, 4, 6, 3))
    seasonal = rng.normal(size=(2, 4, 8))
    zeros = np.zeros((2, 4, 6, 3))
    out1 = model.forward({"residual": zeros, "trend": trend, "seasonal": seasonal})
    out2 = model.forward({"residual": zeros.copy(), "trend": trend, "seasonal": seasonal})
    assert np.array_equal(out1.data, out2.data)
    bumped = model.forward({"residual": zeros + 1.0, "trend": trend, "seasonal": seasonal})
    assert not np.array_equal(out1.data, bumped.data)


def test_shared_target_layer_sees_both_clusters(rng):
    # sensor 1 belongs to both clusters; nudging either DAE head's bias
    # must move its forecast
    cfg = tiny_config(use_dae=True)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1)
    batch = {"residual": rng.normal(size=(2, 4, 6, 3)),
             "trend": rng.normal(size=(2, 4, 6, 3)),
             "seasonal": rng.normal(size=(2, 4, 8))}
    base = model.forward(batch).data[:, 1, :]
    for j in range(2):
        last = model.dae_heads[j].dense[-1]
        last.b.data += 1.0
        moved = model.forward(batch).data[:, 1, :]
        last.b.data -= 1.0
        assert not np.allclose(base, moved)


def test_pretrained_dae_weights_are_loaded(rng):
    cfg = tiny_config(use_dae=True)
    blocks = [rng.normal(size=(20, len(c) * cfg.horizon)) for c in CLUSTERS4]
    weights, _ = md.pretrain_dae(blocks, cfg, seed=3)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=1, pretrained_dae=weights)
    got = model.dae_heads[0].parameters()["l0.w"].data
    assert np.array_equal(got, weights[0]["l0.w"])


# -- precision -------------------------------------------------------------------


@pytest.fixture
def dtypes_seen(monkeypatch):
    """Record the dtype of every Tensor built, of every gradient written and
    the Adam optimizers created while the test runs.

    A new parameter (a leaf that requires grad) is left out: its weights are
    drawn in float64 and cast afterwards, so callers check parameters after
    the cast.
    """
    seen = {"tensors": set(), "grads": set(), "adams": []}
    init, accumulate = nn.Tensor.__init__, nn.Tensor._accumulate

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._parents or not self.requires_grad:
            seen["tensors"].add(self.data.dtype)

    def recording_accumulate(self, g):
        seen["grads"].add(np.asarray(g).dtype)
        accumulate(self, g)

    class RecordingAdam(nn.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["adams"].append(self)

    monkeypatch.setattr(nn.Tensor, "__init__", recording_init)
    monkeypatch.setattr(nn.Tensor, "_accumulate", recording_accumulate)
    monkeypatch.setattr(nn, "Adam", RecordingAdam)
    return seen


def precision_corridor():
    """A desk config for one training step and one DAE pretraining step, 40
    training windows of an 8-sensor corridor and 10 windows to predict."""
    p, boundary, _, scaled, decomp = scaled_decomposed(None, sensors=8, days=6)
    cfg = md.ForecasterConfig.desk(epochs=1, pretrain_epochs=1)
    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    train_w, test_w = md.split_by_time(ws, boundary, cfg.horizon)
    return p, cfg, train_w.subset(np.arange(40)), test_w.subset(np.arange(10))


def assert_runs_in(dtype, seen, model, pred):
    assert seen["tensors"] == {np.dtype(dtype)}
    assert seen["grads"] == {np.dtype(dtype)}
    for p in model.parameters().values():
        assert p.data.dtype == dtype and p.grad.dtype == dtype
    assert seen["adams"]
    for adam in seen["adams"]:
        assert adam.step_count >= 1
        assert {a.dtype for a in (*adam.m.values(), *adam.v.values())} == {np.dtype(dtype)}
    assert pred.dtype == dtype


def test_training_and_predict_run_in_float32(dtypes_seen):
    # a silent upcast would keep the results right and lose the float32 speed
    p, cfg, train_w, test_w = precision_corridor()
    clusters = [[0, 1, 2, 3], [3, 4, 5, 6, 7]]
    model, history, curves = pl.fit(p, clusters, train_w, cfg, seed=3)
    pred = model.predict(test_w)
    assert model.use_dae and model.dtype == md.PRECISION == np.float32
    assert len(dtypes_seen["adams"]) == len(clusters) + 1  # a DAE head each, then the model
    assert_runs_in(np.float32, dtypes_seen, model, pred)
    assert np.isfinite(history.train_loss[0]) and all(len(c) == 1 for c in curves)


def test_a_float64_model_stays_float64(dtypes_seen):
    p, cfg, train_w, test_w = precision_corridor()
    model = md.build_forecaster([[0, 1, 2, 3], [3, 4, 5, 6, 7]], 8, 3, cfg, seed=3)
    model.cast(np.float64)
    md.train(model, train_w, cfg, seed=3)
    assert_runs_in(np.float64, dtypes_seen, model, model.predict(test_w))


# -- training --------------------------------------------------------------------


def training_windows(rng, sensors=4, days=6):
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng, sensors, days, seed=8)
    cfg = tiny_config()
    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    train, _ = md.split_by_time(ws, boundary, cfg.horizon)
    return train.subset(np.arange(0, len(train), 4))  # thin out for speed


def test_train_loss_decreases(rng):
    train_w = training_windows(rng)
    cfg = tiny_config(epochs=8, use_dae=False)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=2)
    history = md.train(model, train_w, cfg, seed=2)
    assert history.train_loss[-1] < history.train_loss[0]
    assert len(history.epochs) == 8
    assert all(np.isfinite(v) for v in history.val_loss)


def test_train_seed_reproducible(rng):
    train_w = training_windows(rng)
    cfg = tiny_config(epochs=3)

    def run():
        model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=4)
        md.train(model, train_w, cfg, seed=4)
        return {k: p.data.copy() for k, p in model.parameters().items()}

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_train_divergence_aborts(rng):
    train_w = training_windows(rng)
    cfg = tiny_config(epochs=40, learning_rate=80.0, use_dae=False)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=2)
    with pytest.raises(TrainingDivergence):
        md.train(model, train_w, cfg, seed=2)


def test_train_predicts_once_per_epoch_for_validation(rng, monkeypatch):
    # the divergence guard takes its reference from epoch 1's first batch, so
    # the one inference pass of an epoch scores the validation windows
    train_w = training_windows(rng)
    cfg = tiny_config(epochs=3, use_dae=False)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=2)
    scored = []
    predict = md.Forecaster.predict

    def counted(self, windows, *args, **kwargs):
        scored.append(len(windows))
        return predict(self, windows, *args, **kwargs)

    monkeypatch.setattr(md.Forecaster, "predict", counted)
    md.train(model, train_w, cfg, seed=2)
    n_val = int(len(train_w) * 0.1)
    assert n_val > 0 and scored == [n_val] * 3


def test_eval_consistency_between_code_paths(rng):
    # recovering through the window helper equals recovering through the
    # decompose + panel primitives
    p, boundary, scaling, scaled, decomp = scaled_decomposed(rng)
    cfg = tiny_config(use_dae=False)
    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    model = md.build_forecaster(CLUSTERS4, 4, 3, cfg, seed=6)
    pred_st = model.predict(ws)
    via_helper = md.recover_predictions(pred_st, ws, scaling)
    scaled_pred = dc.recover_forecast(pred_st, (ws.anchor_seasonal, ws.anchor_trend))
    via_primitives = np.stack([
        invert_scale_values(scaled_pred[:, :, j].T, scaling, feature=0).T
        for j in range(cfg.horizon)], axis=2)
    assert np.max(np.abs(via_helper - via_primitives)) < 1e-9
    truth = md.horizon_truth(p, ws.t_index, cfg.horizon)
    assert ev.mae(truth, via_helper) == pytest.approx(ev.mae(truth, via_primitives),
                                                      abs=1e-9)
