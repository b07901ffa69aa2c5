"""Command-line entry point binding the pipeline into reproducible runs.

Subcommands: decompose, cluster, synth, train, eval, missing-eval.  This
module parses arguments, writes artifacts and maps errors to exit codes, the
OSErrors in one place by the flag whose path failed.  The chain, the report
rows of `eval` and `missing-eval` and the config codec live in
`corridorcast.pipeline`: a command loads its inputs, calls the chain and
writes what it returns.  Every command is a deterministic function of its
inputs and the seed, and every file goes through `files.publish` (UTF-8) or,
for the checkpoint, `files.publish_arrays` (both temp file + rename).  Exit
codes: 0 ok, 2 config error (a bad value, a negative --seed, an unreadable
--config, an --out or --report that cannot be written), 3 data error (an
input that cannot be read, a step that does not divide a day, a data step of
a whole day), 4 training divergence.

The run log (run.log: one line per epoch with wall-clock times, then notes
and the DAE pretraining curves) is diagnostic output, not an artifact:
repeated runs reproduce every other output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cluster as cl
from . import decompose as dc
from . import evaluation as ev
from . import pipeline as pl
from .errors import ConfigError, CorridorcastError, DataError, TrainingDivergence
from .files import publish
from .nn import save_params
from .pipeline import load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

INPUT_FLAGS = ("data", "meta", "clusters", "model")
OUTPUT_FLAGS = ("out", "report")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"--{name} is required for this command")


def _emit_config(out_dir: str, cfg: pl.ResolvedConfig, seed: int | None) -> None:
    with publish(os.path.join(out_dir, "config_resolved.txt")) as fh:
        fh.write(cfg.to_text())
        if seed is not None:
            fh.write(f"seed={seed}\n")


# -- subcommands -------------------------------------------------------------------


def cmd_decompose(args) -> int:
    _require(args, "data", "meta", "out")
    cfg = load_config(args.config)
    p = pl.load_panel(args.data, args.meta, cfg.run)
    for sensor in p.sensors:  # each file is named after its sensor, inside --out
        if any(sep and sep in sensor.id for sep in (os.sep, os.altsep)):
            raise DataError(f"sensor id {sensor.id!r} holds a path separator, so it "
                            "cannot name a decomposition file")
    decomp = pl.decompose(p)
    os.makedirs(args.out, exist_ok=True)
    for si, sensor in enumerate(p.sensors):
        dc.dump_components_csv(os.path.join(args.out, f"decomp_{sensor.id}.csv"), decomp, si)
    _emit_config(args.out, cfg, None)
    return EXIT_OK


def cmd_cluster(args) -> int:
    _require(args, "data", "meta", "out", "seed")
    cfg = load_config(args.config)
    p = pl.load_panel(args.data, args.meta, cfg.run)
    table, mm = pl.cluster(p, cfg.run)
    os.makedirs(args.out, exist_ok=True)
    table.to_csv(os.path.join(args.out, "distances.csv"))
    cl.clusters_to_csv(mm, list(p.sensors), os.path.join(args.out, "clusters.csv"))
    cl.merge_log_to_csv(mm, os.path.join(args.out, "merge_log.csv"))
    _emit_config(args.out, cfg, args.seed)
    return EXIT_OK


def cmd_synth(args) -> int:
    _require(args, "out", "seed")
    cfg = load_config(args.config)
    p = ev.synth_generate(ev.SynthConfig(), cfg.run.synth_sensors, cfg.run.synth_days, args.seed)
    os.makedirs(args.out, exist_ok=True)
    ev.panel_to_csv(p, os.path.join(args.out, "data.csv"), os.path.join(args.out, "meta.csv"))
    _emit_config(args.out, cfg, args.seed)
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args, "data", "meta", "clusters", "out", "seed")
    cfg = load_config(args.config)
    p = pl.load_panel(args.data, args.meta, cfg.run)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    train_w, _ = pl.windows(p, cfg.run, cfg.forecaster, pl.fit_scaling(p, cfg.run))
    notes: list[str] = []
    model, history, curves = pl.fit(p, mm.clusters, train_w, cfg.forecaster, args.seed,
                                    log=notes.append)
    os.makedirs(args.out, exist_ok=True)
    # the checkpoint goes last, so that a failed write leaves no checkpoint
    # that `eval` would load without its log and config
    history.write_log(os.path.join(args.out, "run.log"), notes, curves)
    _emit_config(args.out, cfg, args.seed)
    save_params(os.path.join(args.out, "checkpoint.txt"), model.parameters())
    return EXIT_OK


def _write_report(args, f, rows: list[pl.Row]) -> int:
    report = ev.EvalReport(os.path.basename(args.model), args.seed, pl.config_hash(f), rows)
    report.to_csv(args.report)
    report.print_table()
    return EXIT_OK


def cmd_eval(args) -> int:
    _require(args, "data", "meta", "clusters", "model", "report", "seed")
    cfg = load_config(args.config)
    f = cfg.forecaster
    p = pl.load_panel(args.data, args.meta, cfg.run)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    scaling = pl.fit_scaling(p, cfg.run)
    _, test_w = pl.windows(p, cfg.run, f, scaling)
    model = pl.load_model(args.model, p, mm.clusters, f)
    return _write_report(args, f, pl.evaluate(model, p, scaling, test_w, cfg.run.peak_occupancy))


def cmd_missing_eval(args) -> int:
    _require(args, "data", "meta", "clusters", "model", "report", "seed")
    cfg = load_config(args.config)
    f = cfg.forecaster
    p = pl.load_panel(args.data, args.meta, cfg.run)
    mm = cl.clusters_from_csv(args.clusters, list(p.sensors))
    model = pl.load_model(args.model, p, mm.clusters, f)
    return _write_report(args, f, pl.evaluate_missing(
        model, p, cfg.run, f, pl.fit_scaling(p, cfg.run), args.seed))


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridorcast",
        description="Corridor time-series forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(data="input data CSV (sensor_id,timestamp,flow,occupancy,speed)",
                  meta="sensor metadata CSV (sensor_id,milepost,kind)",
                  config="flat key=value config file",
                  seed="run seed, a non-negative integer (mandatory for all but decompose)",
                  out="output directory",
                  clusters="clusters CSV from the cluster command",
                  model="checkpoint file from the train command",
                  report="evaluation report CSV path")
    for name, fn in (("decompose", cmd_decompose), ("cluster", cmd_cluster),
                     ("synth", cmd_synth), ("train", cmd_train), ("eval", cmd_eval),
                     ("missing-eval", cmd_missing_eval)):
        sp = sub.add_parser(name)
        for flag, help_text in common.items():
            sp.add_argument(f"--{flag}", type=int if flag == "seed" else str, help=help_text)
        sp.set_defaults(fn=fn)
    return parser


def _flag_of(args, filename) -> str | None:
    """The flag whose path is `filename`, or "out" for a path inside --out."""
    if not isinstance(filename, str):
        return None
    flags = {os.path.abspath(getattr(args, f)): f
             for f in (*INPUT_FLAGS, *OUTPUT_FLAGS) if getattr(args, f) is not None}
    path = os.path.abspath(filename)
    inside = args.out is not None and path.startswith(os.path.join(os.path.abspath(args.out), ""))
    return flags.get(path, "out" if inside else None)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except TrainingDivergence as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # an input that cannot be read or an output that cannot be written
        flag = _flag_of(args, exc.filename)
        if flag is None and not isinstance(exc, FileNotFoundError):
            raise
        given = f"--{flag} " if flag else ""
        verb = "write" if flag in OUTPUT_FLAGS else "read"
        print(f"error: cannot {verb} {given}{exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG if flag in OUTPUT_FLAGS else EXIT_DATA
    except (ConfigError, CorridorcastError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
