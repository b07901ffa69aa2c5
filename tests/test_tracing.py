"""The benchmark's span tracer still finds what it wraps in the program.

`perfbench/tracing.py` wraps functions and methods by name and reads some
of their arguments positionally, so a rename or a changed signature would
quietly drop spans and counters from traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import corridorcast
from corridorcast import evaluation as ev
from corridorcast import pipeline as pl

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# names the tracer looks up that the program no longer has
ABSENT = {
    "corridorcast.decompose.stationarize_window",
    "corridorcast.cluster.ClusterState.candidates",
    "corridorcast.evaluation.residual_mae",
    "corridorcast.nn.layers.ConvLSTMCell.step",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_tracer_instruments_the_program():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer, corridorcast)
    try:
        assert set(instrumentation.missing) == ABSENT
        p = ev.synth_generate(ev.SynthConfig(), sensors=6, days=4, seed=3)
        tracer.iteration, tracer.active = 0, True
        pl.cluster(p, pl.RunConfig())
        tracer.active = False
        counts = tracer.counts[0]
        assert counts["dtw.pairs"] > 0 and counts["dtw.dp_cells"] > 0
        assert "dtw.rolling_dtw_matrix" in tracer.summary(0)
    finally:
        instrumentation.undo()
