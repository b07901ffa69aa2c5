#!/usr/bin/env python3
"""Cluster corridor sensors by DTW similarity of their residuals.

Builds the rolling-window DTW distance table over neighboring sensors
(restricted to high-occupancy windows), runs the fuzzy hierarchical
agglomeration, and prints the merge history plus the resulting memberships.
"""

import numpy as np

from corridorcast import cluster as cl
from corridorcast import decompose as dc
from corridorcast import dtw
from corridorcast import evaluation as ev
from corridorcast import panel as pn

panel = ev.synth_generate(ev.SynthConfig(), sensors=15, days=21, seed=12)
period = dc.daily_period(panel.step_minutes)
decomp = dc.decompose_panel(pn.apply_scale(panel, pn.fit_scale(
    panel, (0, panel.n_steps))), period)

window = 8  # two hours of 15-minute steps
occ = panel.values[:, :, 1]
active = dtw.active_windows_by_occupancy(occ, window, window)
print(f"{active.sum()} of {active.size} rolling windows are high-interaction")

neighbors = pn.neighbor_pairs(panel.sensors, radius_miles=2.0)
table = dtw.rolling_dtw_matrix(decomp.residual, neighbors, window, window,
                               active_mask=active)
print("\nneighbor DTW distances (residuals, averaged over active windows):")
for (i, j) in table.pairs():
    print(f"  d({i:2d},{j:2d}) = {table.get(i, j):8.3f}")

mm = cl.fhc(table, panel.sensors, max_avg_span_miles=3.0)
print("\nmerge history (step, a, b, distance):")
for step, a, b, d in mm.merge_log:
    print(f"  {step:3d}  {a:>12s} + {b:<12s} at {d:.3f}")

print("\nclusters (sensors with membership >= 0.1):")
for c, members in enumerate(mm.clusters):
    parts = [f"{u}({mm.membership(u, c):.2f})" for u in members]
    print(f"  cluster {c}: " + " ".join(parts))

multi = [u for u in range(panel.n_sensors)
         if sum(u in members for members in mm.clusters) > 1]
print(f"\nsensors in more than one cluster: {multi or 'none'}")
