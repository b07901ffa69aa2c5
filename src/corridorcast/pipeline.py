"""The forecasting chain, written once for the command line and the demos.

load -> filter -> impute; boundary -> scale -> decompose; DTW -> FHC -> ramps;
windows -> split; DAE pretraining -> forecaster -> training; score ->
report rows (`evaluate`, `evaluate_missing`).  Every function takes a panel
and config objects, never parsed command-line arguments, so the CLI only
parses arguments and writes artifacts.

The module also holds the run settings (`RunConfig`), the one text codec for
flat config dataclasses (`encode`, `decode`) and `load_config`, which reads a
flat key=value file into the run and forecaster settings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cluster as cl
from . import decompose as dc
from . import dtw as dt
from . import evaluation as ev
from . import model as md
from . import panel as pn
from .errors import ConfigError, FieldError, InsufficientDataError, require_finite
from .nn import load_params, restore_params

# -- configuration -------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Flat pipeline settings, and the size of the corridor `synth` generates.

    `cluster_threshold` is the membership at which a sensor joins a
    neighbouring cluster's crisp list (see `cluster.fhc`).
    """

    completeness_min: float = 0.9
    train_fraction: float = 0.75
    neighbor_radius_miles: float = 2.0
    dtw_window_hours: float = 2.0
    dtw_quantile: float = 0.75
    cluster_max_span_miles: float = 10.0
    cluster_threshold: float = 0.1
    peak_occupancy: float = 8.0
    synth_sensors: int = 24
    synth_days: int = 56

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.train_fraction < 1.0:
            raise FieldError("train_fraction", "must lie strictly between 0 and 1")
        for name in ("completeness_min", "dtw_quantile", "cluster_threshold"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FieldError(name, f"must lie in [0, 1], got {getattr(self, name)}")
        for name in ("neighbor_radius_miles", "cluster_max_span_miles"):
            if getattr(self, name) < 0.0:
                raise FieldError(name, f"must not be negative, got {getattr(self, name)}")
        if self.dtw_window_hours <= 0.0:
            raise FieldError("dtw_window_hours", f"must be positive, got {self.dtw_window_hours}")
        for name in ("synth_sensors", "synth_days"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"must be at least 1, got {getattr(self, name)}")


def encode(cfg) -> dict[str, str]:
    """Each field of a flat dataclass as `name -> text`; tuples are comma-joined."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out[f.name] = ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
    return out


def _parse(raw: str, default):
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false", "0", "1"):
            raise ValueError("expected true, false, 0 or 1")
        return raw.lower() in ("true", "1")
    if isinstance(default, tuple):
        return tuple(_parse(x, default[0]) for x in raw.split(","))
    return type(default)(raw)


def decode(base, items: dict[str, str], origin: dict[str, str] | None = None):
    """`base` with each field named in `items` parsed from text.

    Every key of `items` names a field of `base` (`load_config` rejects any
    other).  A value parses by the type of the field's value in `base`; tuple
    elements by the type of its first element, booleans as case-insensitive
    true/false/0/1.  A value that does not parse raises ConfigError naming
    the key, after `origin[key]` (where it was read) when given.  The
    dataclass's own checks then run on the result; one that rejects a single
    field is reported the same way, by key.
    """
    def where(key: str) -> str:
        return f"{origin[key]}: " if origin and key in origin else ""

    kwargs = {}
    for key, raw in items.items():
        try:
            kwargs[key] = _parse(raw, getattr(base, key))
        except ValueError as exc:
            raise ConfigError(f"{where(key)}bad value {raw!r} for {key!r}: {exc}") from None
    try:
        return replace(base, **kwargs)
    except FieldError as exc:
        raise ConfigError(f"{where(exc.field)}{exc}") from None


def config_hash(f: md.ForecasterConfig) -> str:
    """Short digest of the encoded forecaster settings, written into reports."""
    text = ";".join(f"{k}={v}" for k, v in sorted(encode(f).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class ResolvedConfig:
    run: RunConfig
    forecaster: md.ForecasterConfig

    def to_text(self) -> str:
        items = {**encode(self.run), **encode(self.forecaster)}
        return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def load_config(path: str | None) -> ResolvedConfig:
    """Parse a flat key=value file over the defaults; unknown keys are rejected.

    The forecaster defaults are `ForecasterConfig.desk()`.  A file that
    cannot be read, an unknown key, a key given twice or a bad value raises
    ConfigError.
    """
    sections = (RunConfig(), md.ForecasterConfig.desk())
    keys = [set(encode(base)) for base in sections]
    items: list[dict[str, str]] = [{} for _ in sections]
    origin: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        for lineno, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            section = next((i for i, known in enumerate(keys) if key in known), None)
            if section is None:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in origin:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} already set "
                                  f"on {origin[key]}")
            items[section][key] = value.strip()
            origin[key] = f"{path}:{lineno}"
    return ResolvedConfig(*(decode(base, found, origin)
                            for base, found in zip(sections, items)))


# -- panel, scaling and decomposition ----------------------------------------------------


def load_panel(data_path: str, meta_path: str, run: RunConfig) -> pn.Panel:
    """Read the CSV pair, drop incomplete sensors and forward-fill the gaps."""
    p = pn.load_csv(data_path, meta_path)
    p = pn.filter_complete(p, run.completeness_min)
    return pn.impute_forward(p)


def boundary(p: pn.Panel, run: RunConfig) -> int:
    """First step of the test span; InsufficientDataError if no step precedes it."""
    end = int(run.train_fraction * p.n_steps)
    if end < 1:
        raise InsufficientDataError(f"train_fraction {run.train_fraction} of a "
                                    f"{p.n_steps}-step panel leaves no training step")
    return end


def fit_scaling(p: pn.Panel, run: RunConfig) -> pn.ScalingParams:
    """Min-max scaling fit on the training span only."""
    return pn.fit_scale(p, (0, boundary(p, run)))


def decompose(p: pn.Panel) -> dc.Decomposition:
    """Seasonal + trend + residual of every series, with the daily period."""
    return dc.decompose_panel(p, dc.daily_period(p.step_minutes))


# -- clustering ------------------------------------------------------------------------


def cluster(p: pn.Panel, run: RunConfig) -> tuple[dt.DistanceTable, cl.MembershipMatrix]:
    """DTW distances of neighbouring residuals over the training span, then FHC.

    Ramp sensors join the home cluster of their nearest mainline sensor.
    """
    end = boundary(p, run)
    steps_per_hour = 60.0 / p.step_minutes
    window_len = max(2, int(round(run.dtw_window_hours * steps_per_hour)))
    if window_len > end:
        raise InsufficientDataError(f"DTW window of {window_len} steps exceeds the "
                                    f"training span of {end} steps")
    scaled = pn.apply_scale(p, fit_scaling(p, run))
    decomp = decompose(scaled)
    occ_idx = p.features.index("occupancy")
    train_occ = scaled.values[:, :end, occ_idx]
    active = dt.active_windows_by_occupancy(train_occ, window_len, window_len,
                                            run.dtw_quantile)
    neighbors = pn.neighbor_pairs(p.sensors, run.neighbor_radius_miles)
    residuals = decomp.residual[:, :end, :]
    table = dt.rolling_dtw_matrix(residuals, neighbors, window_len, window_len,
                                  active_mask=active)
    mm = cl.fhc(table, p.sensors, run.cluster_max_span_miles, run.cluster_threshold)
    return table, cl.attach_ramps(mm, p.sensors)


# -- windows, training and scoring -------------------------------------------------------


def windows(p: pn.Panel, run: RunConfig, f: md.ForecasterConfig,
            scaling: pn.ScalingParams) -> tuple[md.WindowSet, md.WindowSet]:
    """The training and test windows of `p` scaled by `scaling`.

    A window set builds its per-window arrays only when it is scored or
    trained on, so a caller pays only for the span it uses.
    """
    scaled = pn.apply_scale(p, scaling)
    ws = md.make_windows(scaled, decompose(scaled), f.window, f.horizon)
    return md.split_by_time(ws, boundary(p, run), f.horizon)


def fit(p: pn.Panel, clusters: list[list[int]], train_w: md.WindowSet,
        f: md.ForecasterConfig, seed: int, log=None):
    """Pretrain the DAE heads (when `f.use_dae`), build the forecaster and train it.

    Returns the model, its training history and the DAE pretraining loss
    curves, one per cluster (empty without DAE heads).  `log` receives the
    pretraining notes.  No training window raises InsufficientDataError.
    """
    if not len(train_w):
        raise InsufficientDataError("no training windows")
    pretrained, curves = None, []
    if f.use_dae:
        blocks = md.cluster_target_blocks(train_w, clusters)
        pretrained, curves = md.pretrain_dae(blocks, f, seed, log=log)
    model = md.build_forecaster(clusters, p.n_sensors, len(p.features), f, seed,
                                pretrained_dae=pretrained)
    history = md.train(model, train_w, f, seed)
    return model, history, curves


def load_model(path: str, p: pn.Panel, clusters: list[list[int]],
               f: md.ForecasterConfig) -> md.Forecaster:
    """A forecaster for `p` and `clusters` with the parameters of checkpoint `path`."""
    model = md.build_forecaster(clusters, p.n_sensors, len(p.features), f, seed=0)
    restore_params(model.parameters(), load_params(path))
    return model


def score(model: md.Forecaster, p: pn.Panel, scaling: pn.ScalingParams, ws: md.WindowSet):
    """Forecast `ws` in original units: (pred, truth), each (N, sensors, horizon).
    The truth comes from `p`, so windows of a corrupted copy of `p` are scored
    against the retained values.  An empty `ws` raises InsufficientDataError."""
    if not len(ws):
        raise InsufficientDataError("no test windows")
    pred = md.recover_predictions(model.predict(ws), ws, scaling)
    return pred, md.horizon_truth(p, ws.t_index, ws.h)


Row = tuple[str, str, str, float]  # (metric, horizon, regime, value) of a report


def _horizon_rows(pred: np.ndarray, truth: np.ndarray) -> list[Row]:
    """The `mae` and `rmse` rows of each horizon in turn, regime `all`."""
    return [(name, str(j + 1), "all", metric(truth[:, :, j], pred[:, :, j]))
            for j in range(truth.shape[2])
            for name, metric in (("mae", ev.mae), ("rmse", ev.rmse))]


def evaluate(model: md.Forecaster, p: pn.Panel, scaling: pn.ScalingParams,
             ws: md.WindowSet, peak_occupancy: float) -> list[Row]:
    """The `eval` rows of `ws`: each horizon's MAE and RMSE, then the MAE over
    the peak and the off-peak target steps (`evaluation.split_peak` of `p` at
    `peak_occupancy`); a regime with no target step has no row."""
    pred, truth = score(model, p, scaling, ws)
    rows = _horizon_rows(pred, truth)
    peak_steps = ev.split_peak(p, peak_occupancy)[0]
    in_peak = np.isin(ws.t_index[:, None] + np.arange(1, ws.h + 1), peak_steps)
    for regime, sel in (("peak", in_peak), ("offpeak", ~in_peak)):
        if sel.any():
            sel3 = np.broadcast_to(sel[:, None, :], truth.shape)
            rows.append(("mae", "all", regime, ev.mae(truth[sel3], pred[sel3])))
    return rows


def evaluate_missing(model: md.Forecaster, p: pn.Panel, run: RunConfig, f: md.ForecasterConfig,
                     scaling: pn.ScalingParams, seed: int) -> list[Row]:
    """The `missing-eval` rows: each horizon's MAE and RMSE on the test span of
    `evaluation.inject_missing(p, seed)`, scored against `p`, then, in horizon
    order, `missing_delta` rows `h<j>_clean` (the MAE on `p` itself) and
    `h<j>_increase` (corrupted minus clean), then `mean_increase`."""
    # each pass builds, scores and drops its own test windows, so the clean
    # pass is released before the corrupted one starts
    clean = [mae for *_, mae in
             _horizon_rows(*score(model, p, scaling, windows(p, run, f, scaling)[1]))[::2]]
    corrupted, _ = ev.inject_missing(p, seed)
    rows = _horizon_rows(*score(model, p, scaling, windows(corrupted, run, f, scaling)[1]))
    increases = [row[3] - mae for row, mae in zip(rows[::2], clean)]
    for j, (mae, increase) in enumerate(zip(clean, increases), 1):
        rows += [("missing_delta", f"h{j}_clean", "all", mae),
                 ("missing_delta", f"h{j}_increase", "all", increase)]
    rows.append(("missing_delta", "mean_increase", "all", float(np.mean(increases))))
    return rows
