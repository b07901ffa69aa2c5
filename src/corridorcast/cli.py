"""Command-line entry point binding the pipeline into reproducible runs.

Subcommands: decompose, cluster, synth, train, eval, missing-eval.  Every
command is a deterministic function of its inputs and the seed; artifacts
are written atomically (temp file + rename).  Exit codes: 0 ok, 2 config
error, 3 data error, 4 training divergence.

The run log (run.log: one line per epoch with wall-clock times, then notes
and the DAE pretraining curves, one line per cluster and epoch) is
diagnostic output, not an artifact: repeated runs reproduce every other
output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cluster as cl
from . import decompose as dc
from . import dtw as dt
from . import evaluation as ev
from . import model as md
from . import panel as pn
from .errors import ConfigError, CorridorcastError, DataError, TrainingDivergence
from .nn import restore_params, save_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


@dataclass(frozen=True)
class RunConfig:
    """Flat pipeline settings; forecaster and synth settings ride along."""

    completeness_min: float = 0.9
    train_fraction: float = 0.75
    neighbor_radius_miles: float = 2.0
    dtw_window_hours: float = 2.0
    dtw_quantile: float = 0.75
    dtw_normalize: bool = False
    cluster_max_span_miles: float = 10.0
    cluster_threshold: float = 0.1
    cluster_m: float = 2.0
    peak_occupancy: float = 8.0
    synth_sensors: int = 24
    synth_days: int = 56

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if self.cluster_m <= 1.0:
            raise ConfigError("cluster_m must exceed 1")


_PIPELINE_KEYS = {f.name for f in fields(RunConfig)}
_MODEL_KEYS = {f.name for f in fields(md.ForecasterConfig)}
_SYNTH_KEYS = {"synth_" + f.name for f in fields(ev.SynthConfig)}


@dataclass
class ResolvedConfig:
    run: RunConfig
    forecaster: md.ForecasterConfig
    synth: ev.SynthConfig

    def to_text(self) -> str:
        items: dict[str, str] = {}
        for f in fields(RunConfig):
            items[f.name] = str(getattr(self.run, f.name))
        items.update(self.forecaster.to_items())
        for f in fields(ev.SynthConfig):
            v = getattr(self.synth, f.name)
            if isinstance(v, tuple):
                items["synth_" + f.name] = ",".join(str(x) for x in v)
            else:
                items["synth_" + f.name] = str(v)
        return "\n".join(f"{k}={items[k]}" for k in sorted(items)) + "\n"


def _coerce(raw: str, default):
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false", "0", "1"):
            raise ConfigError(f"bad boolean value {raw!r}")
        return raw.lower() in ("true", "1")
    if isinstance(default, tuple):
        kind = type(default[0])
        return tuple(kind(x) for x in raw.split(","))
    return type(default)(raw)


def load_config(path: str | None) -> ResolvedConfig:
    """Parse a flat key=value file; unknown keys are rejected."""
    run_items: dict[str, str] = {}
    model_items: dict[str, str] = {}
    synth_items: dict[str, str] = {}
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key in _PIPELINE_KEYS:
                    run_items[key] = value
                elif key in _MODEL_KEYS:
                    model_items[key] = value
                elif key in _SYNTH_KEYS:
                    synth_items[key] = value
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
    run_kwargs = {}
    for f in fields(RunConfig):
        if f.name in run_items:
            run_kwargs[f.name] = _coerce(run_items[f.name], getattr(RunConfig(), f.name))
    base_model = md.ForecasterConfig.desk()
    model_kwargs = {}
    for f in fields(md.ForecasterConfig):
        if f.name in model_items:
            model_kwargs[f.name] = _coerce(model_items[f.name], getattr(base_model, f.name))
    synth_kwargs = {}
    base_synth = ev.SynthConfig()
    for f in fields(ev.SynthConfig):
        key = "synth_" + f.name
        if key in synth_items:
            synth_kwargs[f.name] = _coerce(synth_items[key], getattr(base_synth, f.name))
    return ResolvedConfig(RunConfig(**run_kwargs), replace(base_model, **model_kwargs),
                          replace(base_synth, **synth_kwargs))


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"--{name} is required for this command")


def _emit_config(out_dir: str, cfg: ResolvedConfig, seed: int | None) -> None:
    text = cfg.to_text()
    if seed is not None:
        text += f"seed={seed}\n"
    _atomic_write(os.path.join(out_dir, "config_resolved.txt"), text)


# -- shared pipeline pieces ----------------------------------------------------------


def _load_panel(args, cfg: ResolvedConfig) -> pn.Panel:
    p = pn.load_csv(args.data, args.meta)
    p = pn.filter_complete(p, cfg.run.completeness_min)
    return pn.impute_forward(p)


def _boundary(p: pn.Panel, cfg: ResolvedConfig) -> int:
    """First step of the test span."""
    return int(cfg.run.train_fraction * p.n_steps)


def _fit_scaling(p: pn.Panel, cfg: ResolvedConfig) -> pn.ScalingParams:
    return pn.fit_scale(p, (0, _boundary(p, cfg)))


def _prepare(p: pn.Panel, cfg: ResolvedConfig, scaling: pn.ScalingParams):
    """Scale with `scaling` and decompose with the daily period."""
    scaled = pn.apply_scale(p, scaling)
    decomp = dc.decompose_panel(scaled, dc.daily_period(p.step_minutes))
    return _boundary(p, cfg), scaled, decomp


def _cluster_pipeline(p: pn.Panel, cfg: ResolvedConfig):
    boundary, scaled, decomp = _prepare(p, cfg, _fit_scaling(p, cfg))
    steps_per_hour = 60.0 / p.step_minutes
    window_len = max(2, int(round(cfg.run.dtw_window_hours * steps_per_hour)))
    occ_idx = p.features.index("occupancy")
    train_occ = scaled.values[:, :boundary, occ_idx]
    active = dt.active_windows_by_occupancy(train_occ, window_len, window_len,
                                            cfg.run.dtw_quantile)
    neighbors = pn.neighbor_pairs(p.sensors, cfg.run.neighbor_radius_miles)
    residuals = decomp.residual[:, :boundary, :]
    table = dt.rolling_dtw_matrix(residuals, neighbors, window_len, window_len,
                                  active_mask=active, normalize=cfg.run.dtw_normalize)
    mm = cl.fhc(table, p.sensors, cfg.run.cluster_max_span_miles,
                cfg.run.cluster_threshold, cfg.run.cluster_m)
    mm = cl.attach_ramps(mm, p.sensors)
    return table, mm


def _windows(p: pn.Panel, cfg: ResolvedConfig, scaling: pn.ScalingParams):
    """The decomposition of `p` and its training and test windows.

    A window set builds its per-window arrays only when it is scored or
    trained on, so a caller pays only for the span it uses.
    """
    boundary, scaled, decomp = _prepare(p, cfg, scaling)
    f = cfg.forecaster
    windows = md.make_windows(scaled, decomp, f.window, f.horizon)
    return (decomp, *md.split_by_time(windows, boundary, f.horizon))


# -- subcommands -------------------------------------------------------------------


def cmd_decompose(args) -> int:
    _require(args, "data", "meta", "out")
    cfg = load_config(args.config)
    p = _load_panel(args, cfg)
    period = dc.daily_period(p.step_minutes)
    decomp = dc.decompose_panel(p, period)
    os.makedirs(args.out, exist_ok=True)
    for si, sensor in enumerate(p.sensors):
        path = os.path.join(args.out, f"decomp_{sensor.id}.csv")
        dc.dump_components_csv(path + ".tmp", decomp, si, feature_index=0)
        os.replace(path + ".tmp", path)
    _emit_config(args.out, cfg, None)
    return EXIT_OK


def cmd_cluster(args) -> int:
    _require(args, "data", "meta", "out", "seed")
    cfg = load_config(args.config)
    p = _load_panel(args, cfg)
    table, mm = _cluster_pipeline(p, cfg)
    os.makedirs(args.out, exist_ok=True)
    for name, writer in (("distances.csv", lambda q: table.to_csv(q)),
                         ("clusters.csv", lambda q: cl.clusters_to_csv(mm, list(p.sensors), q)),
                         ("merge_log.csv", lambda q: cl.merge_log_to_csv(mm, q))):
        path = os.path.join(args.out, name)
        writer(path + ".tmp")
        os.replace(path + ".tmp", path)
    _emit_config(args.out, cfg, args.seed)
    return EXIT_OK


def cmd_synth(args) -> int:
    _require(args, "out", "seed")
    cfg = load_config(args.config)
    p = ev.synth_generate(cfg.synth, cfg.run.synth_sensors, cfg.run.synth_days, args.seed)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    meta_path = os.path.join(args.out, "meta.csv")
    ev.panel_to_csv(p, data_path + ".tmp", meta_path + ".tmp")
    os.replace(data_path + ".tmp", data_path)
    os.replace(meta_path + ".tmp", meta_path)
    _emit_config(args.out, cfg, args.seed)
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args, "data", "meta", "clusters", "out", "seed")
    cfg = load_config(args.config)
    p = _load_panel(args, cfg)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    _, train_w, _ = _windows(p, cfg, _fit_scaling(p, cfg))
    f = cfg.forecaster
    os.makedirs(args.out, exist_ok=True)
    notes: list[str] = []
    pretrained, curves = None, []
    if f.use_dae:
        blocks = md.cluster_target_blocks(train_w, mm.clusters)
        pretrained, curves = md.pretrain_dae(blocks, f, args.seed, log=notes.append)
    model = md.build_forecaster(mm, p.n_sensors, len(p.features), f, args.seed,
                                pretrained_dae=pretrained)
    history = md.train(model, train_w, f, args.seed)
    save_params(os.path.join(args.out, "checkpoint.txt"), model.parameters())
    history.write_log(os.path.join(args.out, "run.log"))
    with open(os.path.join(args.out, "run.log"), "a") as fh:
        for note in notes:
            fh.write(f"note={note}\n")
        for j, losses in enumerate(curves):
            for epoch, loss in enumerate(losses, 1):
                fh.write(f"dae_cluster={j} epoch={epoch} loss={loss:.9g}\n")
    _emit_config(args.out, cfg, args.seed)
    return EXIT_OK


def _rebuild_model(args, cfg: ResolvedConfig, p: pn.Panel, mm) -> md.Forecaster:
    model = md.build_forecaster(mm, p.n_sensors, len(p.features), cfg.forecaster, args.seed)
    from .nn import load_params
    restore_params(model.parameters(), load_params(args.model))
    return model


def _score(model, p, scaling, windows, horizon: int):
    """Forecast `windows` in original units: (pred, truth, MAE and RMSE per horizon)."""
    pred = md.recover_predictions(model.predict(windows), windows, scaling)
    truth = md.horizon_truth(p, windows.t_index, horizon)
    mae_h = [ev.mae(truth[:, :, j], pred[:, :, j]) for j in range(horizon)]
    rmse_h = [ev.rmse(truth[:, :, j], pred[:, :, j]) for j in range(horizon)]
    return pred, truth, mae_h, rmse_h


def _evaluate(model, p, cfg, scaling, decomp, test_w):
    f = cfg.forecaster
    pred, truth, mae_h, rmse_h = _score(model, p, scaling, test_w, f.horizon)
    peak_steps, _ = ev.split_peak(p, cfg.run.peak_occupancy)
    target_steps = test_w.t_index[:, None] + np.arange(1, f.horizon + 1)[None, :]
    in_peak = np.isin(target_steps, peak_steps)
    s_blk = decomp.seasonal[:, target_steps, 0].transpose(1, 0, 2)
    t_blk = decomp.trend[:, target_steps, 0].transpose(1, 0, 2)
    regime = {}
    for name, sel in (("peak", in_peak), ("offpeak", ~in_peak)):
        sel3 = np.broadcast_to(sel[:, None, :], truth.shape)
        if sel.any():
            regime[name + "_mae"] = ev.mae(truth[sel3], pred[sel3])
            regime[name + "_residual_mae"] = ev.residual_mae(
                truth[sel3], pred[sel3], s_blk[sel3], t_blk[sel3])
        else:
            regime[name + "_mae"] = None
            regime[name + "_residual_mae"] = None
    return mae_h, rmse_h, regime


def cmd_eval(args) -> int:
    _require(args, "data", "meta", "clusters", "model", "report", "seed")
    cfg = load_config(args.config)
    p = _load_panel(args, cfg)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    scaling = _fit_scaling(p, cfg)
    decomp, _, test_w = _windows(p, cfg, scaling)
    model = _rebuild_model(args, cfg, p, mm)
    mae_h, rmse_h, regime = _evaluate(model, p, cfg, scaling, decomp, test_w)
    report = ev.EvalReport(
        model_id=os.path.basename(args.model), seed=args.seed,
        config_hash=cfg.forecaster.hash(), mae_by_horizon=mae_h, rmse_by_horizon=rmse_h,
        peak_mae=regime["peak_mae"], offpeak_mae=regime["offpeak_mae"],
        peak_residual_mae=regime["peak_residual_mae"],
        offpeak_residual_mae=regime["offpeak_residual_mae"])
    report.to_csv(args.report + ".tmp")
    os.replace(args.report + ".tmp", args.report)
    report.print_table()
    return EXIT_OK


def cmd_missing_eval(args) -> int:
    _require(args, "data", "meta", "clusters", "model", "report", "seed")
    cfg = load_config(args.config)
    p = _load_panel(args, cfg)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    model = _rebuild_model(args, cfg, p, mm)
    f = cfg.forecaster
    scaling = _fit_scaling(p, cfg)
    # each pass builds, scores and drops its own test windows, so the clean
    # pass is released before the corrupted one starts
    _, _, mae_clean, _ = _score(model, p, scaling, _windows(p, cfg, scaling)[2], f.horizon)
    corrupted, _ = ev.inject_missing(p, args.seed)
    _, _, mae_missing, rmse_missing = _score(
        model, p, scaling, _windows(corrupted, cfg, scaling)[2], f.horizon)
    deltas = {}
    for j in range(f.horizon):
        deltas[f"h{j + 1}_clean"] = mae_clean[j]
        deltas[f"h{j + 1}_missing"] = mae_missing[j]
        deltas[f"h{j + 1}_increase"] = mae_missing[j] - mae_clean[j]
    deltas["mean_increase"] = float(np.mean([deltas[f"h{j + 1}_increase"]
                                             for j in range(f.horizon)]))
    report = ev.EvalReport(
        model_id=os.path.basename(args.model), seed=args.seed,
        config_hash=cfg.forecaster.hash(), mae_by_horizon=mae_missing,
        rmse_by_horizon=rmse_missing, missing_deltas=deltas)
    report.to_csv(args.report + ".tmp")
    os.replace(args.report + ".tmp", args.report)
    report.print_table()
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridorcast",
        description="Corridor time-series forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(data="input data CSV (sensor_id,timestamp,flow,occupancy,speed)",
                  meta="sensor metadata CSV (sensor_id,milepost,kind)",
                  config="flat key=value config file",
                  seed="run seed (mandatory for train/synth/missing-eval)",
                  out="output directory",
                  clusters="clusters CSV from the cluster command",
                  model="checkpoint file from the train command",
                  report="evaluation report CSV path")
    for name, fn in (("decompose", cmd_decompose), ("cluster", cmd_cluster),
                     ("synth", cmd_synth), ("train", cmd_train), ("eval", cmd_eval),
                     ("missing-eval", cmd_missing_eval)):
        sp = sub.add_parser(name)
        for flag, help_text in common.items():
            if flag == "seed":
                sp.add_argument("--seed", type=int, help=help_text)
            else:
                sp.add_argument(f"--{flag}", help=help_text)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDivergence as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, CorridorcastError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
