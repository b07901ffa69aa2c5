"""The demos run to completion; 04 and 05, which train models, on a shorter
corridor for one epoch."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from corridorcast import evaluation as ev
from corridorcast import model as md

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_decomposition.py", "02_dtw_clustering.py",
                                    "03_synthetic_corridor.py"])
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    # figures, when matplotlib is around, land in the working directory
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


LAST_LINES = {"04_forecast_pipeline.py": " 60 min ", "05_missing_data.py": "smaller degradation: "}


@pytest.mark.parametrize("script", sorted(LAST_LINES))
def test_training_demo_runs(script, monkeypatch, capsys):
    # a 14-day corridor, which leaves missing-data injection a full week, and
    # one training and one pretraining epoch; the demo's code runs unchanged
    synth, desk = ev.synth_generate, md.ForecasterConfig.desk
    monkeypatch.setattr(ev, "synth_generate",
                        lambda cfg, sensors, days, seed: synth(cfg, sensors, 14, seed))
    monkeypatch.setattr(md.ForecasterConfig, "desk", classmethod(
        lambda cls, **overrides: desk(**{**overrides, "epochs": 1, "pretrain_epochs": 1})))
    runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[-1].startswith(LAST_LINES[script])
