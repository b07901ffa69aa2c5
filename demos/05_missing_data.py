#!/usr/bin/env python3
"""Missing-data robustness: inject sensor outages and watch the error move.

One contiguous block per sensor per week is masked (duration ~ Normal(2h,
0.5h)) and forward-filled, mimicking dead loop detectors; predictions are
scored against the retained ground truth.  Compares the error increase of
the forecaster with and without its denoising heads, through the rows
`corridorcast missing-eval` reports.
"""

import numpy as np

from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import pipeline as pl

SEED = 7
MISSING_SEED = SEED + 100
run = pl.RunConfig()
panel = ev.synth_generate(ev.SynthConfig(), sensors=8, days=21, seed=SEED)
scaling = pl.fit_scaling(panel, run)
clusters = [[0, 1, 2, 3], [3, 4, 5, 6, 7]]

frac = ev.expected_missing_fraction()
print(f"expected masked fraction: {100 * frac:.2f}% of each sensor's cells")
_, injected = ev.inject_missing(panel, seed=MISSING_SEED)
print(f"injected {injected[:, :, 0].mean() * 100:.2f}% missing cells")

increase = {}
for use_dae in (True, False):
    cfg = md.ForecasterConfig.desk(epochs=8, learning_rate=8e-3, batch_size=128,
                                   use_dae=use_dae)
    train_w, _ = pl.windows(panel, run, cfg, scaling)
    model, _, _ = pl.fit(panel, clusters, train_w, cfg, SEED)
    rows = pl.evaluate_missing(model, panel, run, cfg, scaling, MISSING_SEED)
    missing_mae = np.mean([value for metric, _, _, value in rows if metric == "mae"])
    deltas = {key: value for metric, key, _, value in rows if metric == "missing_delta"}
    clean_mae = np.mean([deltas[f"h{j}_clean"] for j in range(1, cfg.horizon + 1)])

    label = "with DAE heads" if use_dae else "without DAE heads"
    increase[label] = deltas["mean_increase"]
    print(f"\n{label}: clean MAE {clean_mae:.2f}, with outages {missing_mae:.2f} "
          f"(+{increase[label]:.2f})")
    print("  increase by horizon:", ", ".join(
        f"{15 * j} min +{deltas[f'h{j}_increase']:.2f}" for j in range(1, cfg.horizon + 1)))

best = min(increase, key=increase.get)
print(f"\nsmaller degradation: {best} (+{increase[best]:.2f})")
