"""Shared end-to-end pipeline driver for the acceptance experiments."""

import numpy as np

from corridorcast import cluster as cl
from corridorcast import decompose as dc
from corridorcast import dtw
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import panel as pn


def corridor_experiment(seed, sensors=24, days=56, synth_cfg=None, model_cfg=None,
                        train_fraction=0.75, inject_seed=None):
    """Synthesize, cluster, train and evaluate one corridor end to end.

    Returns a dict with the panel, the fitted pieces, per-horizon MAEs for
    the model and both baselines, and (when `inject_seed` is given) the MAEs
    under injected missing data.
    """
    synth_cfg = synth_cfg or ev.SynthConfig()
    cfg = model_cfg or md.ForecasterConfig.desk()
    p = ev.synth_generate(synth_cfg, sensors, days, seed)
    boundary = int(train_fraction * p.n_steps)
    period = dc.daily_period(p.step_minutes)
    scaling = pn.fit_scale(p, (0, boundary))
    scaled = pn.apply_scale(p, scaling)
    decomp = dc.decompose_panel(scaled, period)

    steps_per_hour = int(round(60 / p.step_minutes))
    window_len = 2 * steps_per_hour
    occ = scaled.values[:, :boundary, 1]
    active = dtw.active_windows_by_occupancy(occ, window_len, window_len, 0.75)
    neighbors = pn.neighbor_pairs(p.sensors, 2.0)
    table = dtw.rolling_dtw_matrix(decomp.residual[:, :boundary, :], neighbors,
                                   window_len, window_len, active_mask=active)
    mm = cl.fhc(table, p.sensors, max_avg_span_miles=10.0, threshold=0.1, m=2.0)

    ws = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    train_w, test_w = md.split_by_time(ws, boundary, cfg.horizon)
    pretrained = None
    if cfg.use_dae:
        blocks = md.cluster_target_blocks(train_w, mm.clusters)
        pretrained, _ = md.pretrain_dae(blocks, cfg, seed)
    model = md.build_forecaster(mm, sensors, 3, cfg, seed, pretrained_dae=pretrained)
    history = md.train(model, train_w, cfg, seed)

    pred = md.recover_predictions(model.predict(test_w), test_w, scaling)
    truth = md.horizon_truth(p, test_w.t_index, cfg.horizon)
    h = cfg.horizon
    model_mae = [ev.mae(truth[:, :, j], pred[:, :, j]) for j in range(h)]

    current = md.baseline_current(p, test_w.t_index, h)
    current_mae = [ev.mae(truth[:, :, j], current[:, :, j]) for j in range(h)]
    train_panel = pn.Panel(p.values[:, :boundary], p.time_index[:boundary], p.features,
                           p.missing_mask[:, :boundary], p.sensors)
    timetable = md.baseline_weekday_hourly(train_panel)
    weekday = timetable.predict(p, test_w.t_index, h)
    weekday_mae = [ev.mae(truth[:, :, j], weekday[:, :, j]) for j in range(h)]

    out = dict(panel=p, boundary=boundary, scaling=scaling, decomp=decomp,
               clusters=mm, windows=ws, train_windows=train_w, test_windows=test_w,
               model=model, history=history, config=cfg,
               pred=pred, truth=truth, current_pred=current, weekday_pred=weekday,
               model_mae=model_mae, current_mae=current_mae, weekday_mae=weekday_mae)

    if inject_seed is not None:
        corrupted, injected = ev.inject_missing(p, inject_seed)
        scaled_c = pn.apply_scale(corrupted, scaling)
        decomp_c = dc.decompose_panel(scaled_c, period)
        ws_c = md.make_windows(scaled_c, decomp_c, cfg.window, cfg.horizon)
        _, test_c = md.split_by_time(ws_c, boundary, cfg.horizon)
        pred_m = md.recover_predictions(model.predict(test_c), test_c, scaling)
        truth_m = md.horizon_truth(p, test_c.t_index, h)
        out["missing_mae"] = [ev.mae(truth_m[:, :, j], pred_m[:, :, j]) for j in range(h)]
        out["injected_mask"] = injected
    return out


def regime_mae(result, occupancy_threshold=8.0):
    """Model and current-value MAE split into peak / off-peak target steps."""
    p = result["panel"]
    test_w = result["test_windows"]
    h = result["config"].horizon
    decomp = result["decomp"]
    peak_steps, _ = ev.split_peak(p, occupancy_threshold)
    target_steps = test_w.t_index[:, None] + np.arange(1, h + 1)[None, :]
    in_peak = np.isin(target_steps, peak_steps)
    truth, pred, current = result["truth"], result["pred"], result["current_pred"]
    s_blk = decomp.seasonal[:, target_steps, 0].transpose(1, 0, 2)
    t_blk = decomp.trend[:, target_steps, 0].transpose(1, 0, 2)
    out = {}
    for name, sel in (("peak", in_peak), ("offpeak", ~in_peak)):
        sel3 = np.broadcast_to(sel[:, None, :], truth.shape)
        out[name] = {
            "model": ev.residual_mae(truth[sel3], pred[sel3], s_blk[sel3], t_blk[sel3]),
            "current": ev.residual_mae(truth[sel3], current[sel3], s_blk[sel3], t_blk[sel3]),
            "count": int(sel.sum()),
        }
    return out
