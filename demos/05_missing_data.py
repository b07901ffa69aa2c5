#!/usr/bin/env python3
"""Missing-data robustness: inject sensor outages and watch the error move.

One contiguous block per sensor per week is masked (duration ~ Normal(2h,
0.5h)) and forward-filled, mimicking dead loop detectors; predictions are
scored against the retained ground truth.  Compares the error increase of
the forecaster with and without its denoising heads.
"""

import numpy as np

from corridorcast import decompose as dc
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import panel as pn

SEED = 7
panel = ev.synth_generate(ev.SynthConfig(), sensors=8, days=21, seed=SEED)
boundary = int(0.75 * panel.n_steps)
period = dc.daily_period(panel.step_minutes)
scaling = pn.fit_scale(panel, (0, boundary))
scaled = pn.apply_scale(panel, scaling)
decomp = dc.decompose_panel(scaled, period)
clusters = [[0, 1, 2, 3], [3, 4, 5, 6, 7]]

frac = ev.expected_missing_fraction()
print(f"expected masked fraction: {100 * frac:.2f}% of each sensor's cells")

results = {}
for use_dae in (True, False):
    cfg = md.ForecasterConfig.desk(epochs=8, learning_rate=8e-3, batch_size=128,
                                   use_dae=use_dae)
    windows = md.make_windows(scaled, decomp, cfg.window, cfg.horizon)
    train_w, test_w = md.split_by_time(windows, boundary, cfg.horizon)
    pretrained = None
    if use_dae:
        blocks = md.cluster_target_blocks(train_w, clusters)
        pretrained, _ = md.pretrain_dae(blocks, cfg, SEED)
    model = md.build_forecaster(clusters, panel.n_sensors, 3, cfg, SEED,
                                pretrained_dae=pretrained)
    md.train(model, train_w, cfg, SEED)

    pred = md.recover_predictions(model.predict(test_w), test_w, scaling)
    truth = md.horizon_truth(panel, test_w.t_index, cfg.horizon)
    clean_mae = ev.mae(truth, pred)

    corrupted, injected = ev.inject_missing(panel, seed=SEED + 100)
    print(f"injected {injected[:, :, 0].mean() * 100:.2f}% missing cells"
          if use_dae else "", end="")
    scaled_c = pn.apply_scale(corrupted, scaling)
    decomp_c = dc.decompose_panel(scaled_c, period)
    windows_c = md.make_windows(scaled_c, decomp_c, cfg.window, cfg.horizon)
    _, test_c = md.split_by_time(windows_c, boundary, cfg.horizon)
    pred_c = md.recover_predictions(model.predict(test_c), test_c, scaling)
    truth_c = md.horizon_truth(panel, test_c.t_index, cfg.horizon)
    missing_mae = ev.mae(truth_c, pred_c)

    label = "with DAE heads" if use_dae else "without DAE heads"
    results[label] = (clean_mae, missing_mae)
    print(f"\n{label}: clean MAE {clean_mae:.2f}, with outages {missing_mae:.2f} "
          f"(+{missing_mae - clean_mae:.2f})")

inc = {k: v[1] - v[0] for k, v in results.items()}
best = min(inc, key=inc.get)
print(f"\nsmaller degradation: {best} (+{inc[best]:.2f})")
