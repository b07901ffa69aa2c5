#!/usr/bin/env python3
"""End-to-end forecasting on a small corridor, against both baselines.

Synthesizes four weeks of data for 10 sensors, clusters residuals, trains
the cluster-aware ConvLSTM forecaster with DAE heads for a handful of
epochs, and compares per-horizon MAE with the current-value and
weekday-timetable baselines.  Takes a minute or two on a laptop.
"""

import numpy as np

from corridorcast import cluster as cl
from corridorcast import decompose as dc
from corridorcast import dtw
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import panel as pn

SEED = 42
panel = ev.synth_generate(ev.SynthConfig(), sensors=10, days=28, seed=SEED)
boundary = int(0.75 * panel.n_steps)
period = dc.daily_period(panel.step_minutes)
scaling = pn.fit_scale(panel, (0, boundary))
scaled = pn.apply_scale(panel, scaling)
decomp = dc.decompose_panel(scaled, period)
print(f"corridor: {panel.n_sensors} sensors, {panel.n_steps} steps, "
      f"train boundary at step {boundary}")

window = 8
occ = scaled.values[:, :boundary, 1]
active = dtw.active_windows_by_occupancy(occ, window, window)
table = dtw.rolling_dtw_matrix(decomp.residual[:, :boundary, :],
                               pn.neighbor_pairs(panel.sensors), window, window,
                               active_mask=active)
clusters = cl.fhc(table, panel.sensors, max_avg_span_miles=10.0)
print("clusters:", clusters.clusters)

cfg = md.ForecasterConfig.desk(epochs=10, learning_rate=8e-3, batch_size=128)
windows = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
train_w, test_w = md.split_by_time(windows, boundary, cfg.horizon)
print(f"{len(train_w)} training windows, {len(test_w)} test windows")

blocks = md.cluster_target_blocks(train_w, clusters.clusters)
pretrained, curves = md.pretrain_dae(blocks, cfg, SEED)
print("DAE pretraining loss, first -> last epoch:",
      " ".join(f"{c[0]:.4f}->{c[-1]:.4f}" for c in curves))

model = md.build_forecaster(clusters, panel.n_sensors, 3, cfg, SEED,
                            pretrained_dae=pretrained)
print(f"forecaster has {model.parameter_count()} parameters in "
      f"{len(model.layers)} layer groups")
history = md.train(model, train_w, cfg, SEED)
print("training loss by epoch:", " ".join(f"{x:.4f}" for x in history.train_loss))

pred = md.recover_predictions(model.predict(test_w), test_w, scaling)
truth = md.horizon_truth(panel, test_w.t_index, cfg.horizon)
current = md.baseline_current(panel, test_w.t_index, cfg.horizon)
train_panel = pn.Panel(panel.values[:, :boundary], panel.time_index[:boundary],
                       panel.features, panel.missing_mask[:, :boundary], panel.sensors)
weekday = md.baseline_weekday_hourly(train_panel).predict(panel, test_w.t_index,
                                                          cfg.horizon)

print(f"\n{'horizon':<10}{'model':>8}{'current':>9}{'weekday':>9}")
for j in range(cfg.horizon):
    row = [ev.mae(truth[:, :, j], p[:, :, j]) for p in (pred, current, weekday)]
    print(f"{15 * (j + 1):>3d} min   {row[0]:8.2f}{row[1]:9.2f}{row[2]:9.2f}")
