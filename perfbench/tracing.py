"""Span tracing for the benchmark's traced runs, installed from outside the program.

Spans and counters are recorded at the boundaries of the public functions of
each corridorcast module. Every wrapper replaces the original object under
every name it is bound to in any loaded ``corridorcast`` module, so a function
imported by name (``cli.save_params``, ``model.stationarize_window``, the
``from .nn import load_params`` inside ``cli._rebuild_model``) is traced at the
name its caller resolves. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span tree plus counters, grouped by benchmark iteration."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, iteration
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.iteration = -1
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.iteration))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start, _, parent_, it = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_, it)

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counts[self.iteration][name] += float(value)

    def sample(self, name: str, value: float) -> None:
        if self.active:
            self.samples[self.iteration][name].append(float(value))

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def summary(self, iteration: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost same-name spans only) and self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                                 "self_s": 0.0})
        child_time = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            if it == iteration and parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, it) in enumerate(self.spans):
            if it != iteration:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def to_json(self) -> dict:
        return {"fields": ["name", "start_s", "end_s", "parent", "iteration"],
                "spans": [list(s) for s in self.spans]}


# -- instrumentation -------------------------------------------------------------------


def _rebind(original, replacement) -> int:
    """Replace `original` with `replacement` in every corridorcast module namespace."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "corridorcast" or mod_name.startswith("corridorcast.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


class Instrumentation:
    """Wraps the program's public functions and methods; `undo()` restores them."""

    def __init__(self, tracer: Tracer, cc):
        self.tracer = tracer
        self.cc = cc
        self.missing: list[str] = []
        self._undo: list = []
        self.roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._install()

    # -- helpers -----------------------------------------------------------

    def _lookup(self, module, name: str):
        value = getattr(module, name, None)
        if value is None:
            self.missing.append(f"{module.__name__}.{name}")
        return value

    def function(self, module, name: str, span: str, after=None):
        original = self._lookup(module, name)
        if original is None:
            return
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(span):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        _rebind(original, wrapper)
        self._undo.append(lambda: _rebind(wrapper, original))

    def method(self, cls, name: str, span, after=None):
        """`span` is a fixed name or a callable (self, *args, **kwargs) -> name or None."""
        original = cls.__dict__.get(name)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
            return
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            if not tracer.active:
                return original(obj, *args, **kwargs)
            label = span(obj, *args, **kwargs) if callable(span) else span
            if label is None:
                return original(obj, *args, **kwargs)
            with tracer.span(label):
                result = original(obj, *args, **kwargs)
            if after is not None:
                after(result, obj, *args, **kwargs)
            return result

        setattr(cls, name, wrapper)
        self._undo.append(lambda: setattr(cls, name, original))

    def undo(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    # -- what is traced --------------------------------------------------------

    def _install(self) -> None:
        cc, t = self.cc, self.tracer
        pn, dc, dt, cl, md, ev, nn = (cc.panel, cc.decompose, cc.dtw, cc.cluster, cc.model,
                                      cc.evaluation, cc.nn)

        # panel
        self.function(pn, "load_csv", "panel.load_csv", after=lambda p, *a, **k: t.count(
            "panel.rows_parsed", int(p.missing_mask.any(axis=2).sum())))
        self.function(pn, "filter_complete", "panel.filter_complete",
                      after=lambda p, src, *a, **k: t.count(
                          "panel.sensors_dropped", src.n_sensors - p.n_sensors))
        self.function(pn, "impute_forward", "panel.impute_forward")
        self.function(pn, "fit_scale", "panel.fit_scale")
        self.function(pn, "apply_scale", "panel.apply_scale")
        self.function(pn, "neighbor_pairs", "panel.neighbor_pairs")

        # decompose
        seen_panels: dict[int, set] = defaultdict(set)

        def decomposed(result, p, *a, **k):
            t.count("decompose.decompose_panel_calls", 1)
            key = hashlib.sha1(np.ascontiguousarray(p.values).tobytes()).hexdigest()
            if key not in seen_panels[t.iteration]:
                seen_panels[t.iteration].add(key)
                t.count("decompose.decompose_panel_distinct", 1)

        self.function(dc, "decompose_panel", "decompose.decompose_panel", after=decomposed)
        self.function(dc, "stationarize_window", "decompose.stationarize_window")
        self.function(dc, "recover_forecast", "decompose.recover_forecast")

        # dtw
        def dtw_counts(table, residuals, neighbors, window_len, stride, active_mask=None,
                       **k):
            pairs = len(neighbors)
            total = len(active_mask) if active_mask is not None else table.window_count
            active = table.window_count
            t.count("dtw.pairs", pairs)
            t.count("dtw.windows_total", total)
            t.count("dtw.windows_active", active)
            t.count("dtw.dp_cells", pairs * active * window_len * window_len)

        self.function(dt, "active_windows_by_occupancy", "dtw.active_windows_by_occupancy")
        self.function(dt, "rolling_dtw_matrix", "dtw.rolling_dtw_matrix", after=dtw_counts)

        # cluster
        self.function(cl, "fhc", "cluster.fhc",
                      after=lambda mm, *a, **k: t.count("cluster.merges", len(mm.merge_log)))
        self.method(cl.ClusterState, "candidates", "cluster.candidates",
                    after=lambda items, *a, **k: t.count("cluster.candidates_scanned",
                                                          len(items)))
        self.function(cl, "attach_ramps", "cluster.attach_ramps")
        self.function(cl, "clusters_from_csv", "cluster.clusters_from_csv")
        self.function(cl, "clusters_to_csv", "cluster.clusters_to_csv")
        self.function(cl, "merge_log_to_csv", "cluster.merge_log_to_csv")

        # model
        def windows_size(ws, *a, **k):
            nbytes = sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray))
            t.sample("model.windows_mib", nbytes / 2**20)

        self.function(md, "make_windows", "model.make_windows", after=windows_size)
        self.function(md, "split_by_time", "model.split_by_time")
        self.function(md, "pretrain_dae", "model.pretrain_dae")
        self.function(md, "train", "model.train", after=lambda h, *a, **k: [
            t.sample("model.epoch_s", ms / 1000.0) for ms in h.wall_ms])
        self.function(md, "evaluate_mse", "model.evaluate_mse")
        self.function(md, "recover_predictions", "model.recover_predictions")
        self.function(md, "horizon_truth", "model.horizon_truth")
        self.function(md, "baseline_current", "model.baseline_current")
        self.method(md.WeekdayHourlyBaseline, "__init__", "model.baseline_weekday")
        self.method(md.WeekdayHourlyBaseline, "predict", "model.baseline_weekday")
        self.method(md.Forecaster, "__init__", "model.build_forecaster",
                    after=lambda _, model, *a, **k: self._register_layers(model))
        self.method(md.Forecaster, "forward", self._forward_label)
        self.method(md.Forecaster, "predict", "model.predict")

        # forecaster layers, forward only: a span opens only for the instances
        # that _register_layers tagged with their role in a Forecaster; the
        # ConvLSTM step is wrapped first so the role span encloses it
        self.method(nn.ConvLSTMCell, "step", "nn.convlstm_step")
        role = self._role_label
        self.method(nn.MultiKernelConv, "__call__", role)
        self.method(nn.Conv2d, "__call__", role)
        self.method(nn.Dense, "__call__", role)
        self.method(md.DAEHead, "__call__", role)
        self.method(nn.ConvLSTMCell, "step", role)

        # nn
        def conv_flops(out, x, w, *a, **k):
            kh, kw, cin, _ = w.data.shape
            t.count("nn.conv2d_calls", 1)
            t.count("nn.conv2d_gflop", 2.0 * out.data.size * kh * kw * cin / 1e9)

        self.function(nn, "conv2d", "nn.conv2d", after=conv_flops)
        self.method(nn.Tensor, "backward", "nn.backward")
        self.method(nn.Adam, "step", "nn.adam_step")
        self.function(nn, "save_params", "nn.save_params", after=lambda _, path, *a, **k:
                      t.count("nn.checkpoint_bytes", os.path.getsize(path)))
        self.function(nn, "load_params", "nn.load_params")
        self.function(nn, "restore_params", "nn.restore_params")

        # evaluation: every scoring entry point shares one span name, so nested
        # calls (residual_mae calls mae) are counted once
        self.function(ev, "inject_missing", "evaluation.inject_missing",
                      after=lambda res, *a, **k: t.count(
                          "evaluation.cells_masked", int(res[1].any(axis=2).sum())))
        for name in ("mae", "rmse", "residual_mae", "split_peak"):
            self.function(ev, name, "evaluation.score")
        self.method(ev.EvalReport, "to_csv", "evaluation.report_to_csv")

    def _forward_label(self, model, batch, training=False, *a, **k):
        return "model.forward_train" if training else "model.forward_infer"

    def _role_label(self, layer, *a, **k):
        role = self.roles.get(layer)
        return None if role is None else f"model.fwd.{role}"

    def _register_layers(self, model) -> None:
        """Tag the layers of a freshly built forecaster with their role names."""
        self.tracer.sample("model.parameters", model.parameter_count())
        groups = {
            "multikernel_conv": [getattr(model, "mkconv", None)],
            "cluster_conv2": list(getattr(model, "cluster_conv2", [])),
            "grid_projection": [getattr(model, "proj", None), getattr(model, "trend_proj", None)],
            "lstm1": [getattr(model, "lstm1", None)],
            "lstm2": [getattr(model, "lstm2", None)],
            "seasonal_head": [getattr(model, "post", None), getattr(model, "head", None)],
            "dae_heads": list(getattr(model, "dae_heads", [])),
            "dae_target": [getattr(model, "fct", None)],
        }
        for role, layers in groups.items():
            for layer in layers:
                if layer is not None:
                    self.roles[layer] = role
