"""Print how far a forecast anchored at step `t` moves when only data after
`t + horizon` changes.  A forecast that uses no data past its anchor moves by
0; anything else is a leak from the future into the forecast.

The corridor is the synthetic one at 12 sensors x 14 days (seed 7).  The
model is an untrained `ForecasterConfig.desk(use_dae=False)` forecaster
(seed 3) over the clusters `[0..5]` and `[6..11]`, and the anchor is step
`t = boundary + 50`.  Every panel value after step `t + horizon` is
multiplied by 1.5, both panels go through the same scaling, decomposition,
windowing and scoring as `corridorcast eval`, and the script prints the
largest absolute change of the forecast at `t`, in flow units.

    python tools/leak_probe.py                        # this checkout's sources
    PYTHONPATH=other/src python tools/leak_probe.py   # another tree's sources

Needs numpy, the standard library and the corridorcast sources.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SENSORS, DAYS, SYNTH_SEED, MODEL_SEED = 12, 14, 7, 3
CLUSTERS = [list(range(6)), list(range(6, 12))]
ANCHOR_AFTER_BOUNDARY = 50
FUTURE_FACTOR = 1.5


def leak() -> float:
    """The largest absolute change of the forecast at the anchor, in flow units."""
    from corridorcast import evaluation as ev
    from corridorcast import model as md
    from corridorcast import pipeline as pl

    run, f = pl.RunConfig(), md.ForecasterConfig.desk(use_dae=False)
    p = ev.synth_generate(ev.SynthConfig(), SENSORS, DAYS, SYNTH_SEED)
    t = pl.boundary(p, run) + ANCHOR_AFTER_BOUNDARY
    future = p.copy()
    future.values[:, t + f.horizon + 1:, :] *= FUTURE_FACTOR
    model = md.build_forecaster(CLUSTERS, p.n_sensors, len(p.features), f, MODEL_SEED)
    scaling = pl.fit_scaling(p, run)

    def forecast(panel):
        _, test_w = pl.windows(panel, run, f, scaling)
        pred, _, _, _ = pl.score(model, panel, scaling, test_w)
        return pred[np.flatnonzero(test_w.t_index == t)[0]]

    return float(np.max(np.abs(forecast(future) - forecast(p))))


def main() -> int:
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another tree
    print(f"{leak():.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
