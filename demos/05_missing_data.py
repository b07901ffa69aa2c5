#!/usr/bin/env python3
"""Missing-data robustness: inject sensor outages and watch the error move.

One contiguous block per sensor per week is masked (duration ~ Normal(2h,
0.5h)) and forward-filled, mimicking dead loop detectors; predictions are
scored against the retained ground truth.  Compares the error increase of
the forecaster with and without its denoising heads.
"""

from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import pipeline as pl

SEED = 7
run = pl.RunConfig()
panel = ev.synth_generate(ev.SynthConfig(), sensors=8, days=21, seed=SEED)
scaling = pl.fit_scaling(panel, run)
clusters = [[0, 1, 2, 3], [3, 4, 5, 6, 7]]

frac = ev.expected_missing_fraction()
print(f"expected masked fraction: {100 * frac:.2f}% of each sensor's cells")

results = {}
for use_dae in (True, False):
    cfg = md.ForecasterConfig.desk(epochs=8, learning_rate=8e-3, batch_size=128,
                                   use_dae=use_dae)
    train_w, test_w = pl.windows(panel, run, cfg, scaling)
    model, _, _ = pl.fit(panel, clusters, train_w, cfg, SEED)
    pred, truth, _, _ = pl.score(model, panel, scaling, test_w)
    clean_mae = ev.mae(truth, pred)

    corrupted, injected = ev.inject_missing(panel, seed=SEED + 100)
    print(f"injected {injected[:, :, 0].mean() * 100:.2f}% missing cells"
          if use_dae else "", end="")
    test_c = pl.windows(corrupted, run, cfg, scaling)[1]
    pred_c, truth_c, _, _ = pl.score(model, panel, scaling, test_c)
    missing_mae = ev.mae(truth_c, pred_c)

    label = "with DAE heads" if use_dae else "without DAE heads"
    results[label] = (clean_mae, missing_mae)
    print(f"\n{label}: clean MAE {clean_mae:.2f}, with outages {missing_mae:.2f} "
          f"(+{missing_mae - clean_mae:.2f})")

inc = {k: v[1] - v[0] for k, v in results.items()}
best = min(inc, key=inc.get)
print(f"\nsmaller degradation: {best} (+{inc[best]:.2f})")
