#!/usr/bin/env python3
"""End-to-end forecasting on a small corridor, against both baselines.

Synthesizes four weeks of data for 10 sensors, clusters residuals, trains
the cluster-aware ConvLSTM forecaster with DAE heads for a handful of
epochs, and compares per-horizon MAE with the current-value and
weekday-timetable baselines.  Takes about 7 s on a 2-CPU machine.
"""

from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import panel as pn
from corridorcast import pipeline as pl

SEED = 42
run = pl.RunConfig()
panel = ev.synth_generate(ev.SynthConfig(), sensors=10, days=28, seed=SEED)
boundary = pl.boundary(panel, run)
print(f"corridor: {panel.n_sensors} sensors, {panel.n_steps} steps, "
      f"train boundary at step {boundary}")

_, clusters = pl.cluster(panel, run)
print("clusters:", clusters.clusters)

cfg = md.ForecasterConfig.desk(epochs=10, learning_rate=8e-3, batch_size=128)
scaling = pl.fit_scaling(panel, run)
train_w, test_w = pl.windows(panel, run, cfg, scaling)
print(f"{len(train_w)} training windows, {len(test_w)} test windows")

model, history, curves = pl.fit(panel, clusters.clusters, train_w, cfg, SEED)
print("DAE pretraining loss, first -> last epoch:",
      " ".join(f"{c[0]:.4f}->{c[-1]:.4f}" for c in curves))
print(f"forecaster has {model.parameter_count()} parameters")
print("training loss by epoch:", " ".join(f"{x:.4f}" for x in history.train_loss))

pred, truth = pl.score(model, panel, scaling, test_w)
current = md.baseline_current(panel, test_w.t_index, cfg.horizon)
train_panel = pn.Panel(panel.values[:, :boundary], panel.time_index[:boundary],
                       panel.features, panel.missing_mask[:, :boundary], panel.sensors)
weekday = md.baseline_weekday_hourly(train_panel).predict(panel, test_w.t_index,
                                                          cfg.horizon)

print(f"\n{'horizon':<10}{'model':>8}{'current':>9}{'weekday':>9}")
for j in range(cfg.horizon):
    row = [ev.mae(truth[:, :, j], p[:, :, j]) for p in (pred, current, weekday)]
    print(f"{15 * (j + 1):>3d} min   {row[0]:8.2f}{row[1]:9.2f}{row[2]:9.2f}")
