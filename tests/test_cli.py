import csv
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from corridorcast import cli
from corridorcast import cluster as cl
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import nn
from corridorcast import panel as pn

TINY_CFG = """\
# desk-tiny run settings
synth_sensors=4
synth_days=8
conv_filters=2,3
proj_channels=2
convlstm_filters=2,2
post_units=8
dae_widths=6,4,2,4,6
batch_size=32
epochs=2
pretrain_epochs=2
learning_rate=0.003
"""


def write_cfg(tmp_path, text=TINY_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "synth"
    assert run("synth", "--out", str(out), "--seed", "7", "--config", cfg) == 0
    return out, cfg


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "no_such_key=1\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


@pytest.mark.parametrize("given, resolved", [
    (None, []),
    ("dae_widths=8,4,8\nuse_dae=false\ntrain_fraction=0.6\n",
     ["dae_widths=8,4,8", "use_dae=False", "train_fraction=0.6"]),
], ids=["defaults", "overrides"])
def test_load_config_defaults_roundtrip(tmp_path, given, resolved):
    cfg = cli.load_config(None if given is None else write_cfg(tmp_path, given, "given.cfg"))
    text = cfg.to_text()
    assert set(resolved) <= set(text.splitlines())
    if given is None:
        keys = [line.partition("=")[0] for line in text.splitlines()]
        sections = (cli.pl.RunConfig, md.ForecasterConfig)
        assert sorted(keys) == sorted(f.name for c in sections for f in dataclasses.fields(c))
    path = tmp_path / "full.cfg"
    path.write_text(text)
    again = cli.load_config(str(path))
    assert again.to_text() == text


def test_synth_writes_loadable_panel(synth_dir):
    out, cfg = synth_dir
    assert (out / "data.csv").exists() and (out / "meta.csv").exists()
    assert (out / "config_resolved.txt").exists()
    from corridorcast import panel as pn
    p = pn.load_csv(str(out / "data.csv"), str(out / "meta.csv"))
    assert p.n_sensors == 4
    assert p.step_minutes == 15.0
    assert p.missing_mask.all()


def test_synth_deterministic_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", str(a), "--seed", "3", "--config", cfg) == 0
    assert run("synth", "--out", str(b), "--seed", "3", "--config", cfg) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "meta.csv").read_bytes() == (b / "meta.csv").read_bytes()


def test_decompose_constant_panel(tmp_path):
    data = tmp_path / "data.csv"
    meta = tmp_path / "meta.csv"
    meta.write_text("sensor_id,milepost,kind\nA,0.0,mainline\n")
    rows = ["sensor_id,timestamp,flow,occupancy,speed"]
    start = np.datetime64("2016-01-04T00:00:00")
    for i in range(48):  # two days of hourly samples
        ts = str((start + np.timedelta64(i, "h")).astype("datetime64[s]"))
        rows.append(f"A,{ts},7.0,7.0,7.0")
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "decomp"
    assert run("decompose", "--data", str(data), "--meta", str(meta),
               "--out", str(out)) == 0
    with open(out / "decomp_A.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 48
    assert all(abs(float(r["S"])) < 1e-12 for r in table)
    assert all(abs(float(r["R"])) < 1e-12 for r in table)
    assert all(abs(float(r["T"]) - 7.0) < 1e-12 for r in table)


def test_cluster_writes_artifacts_deterministically(synth_dir, tmp_path):
    out, cfg = synth_dir
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    for cdir in (c1, c2):
        assert run("cluster", "--data", str(out / "data.csv"), "--meta",
                   str(out / "meta.csv"), "--out", str(cdir), "--seed", "7",
                   "--config", cfg) == 0
    for name in ("clusters.csv", "merge_log.csv", "distances.csv"):
        assert (c1 / name).read_bytes() == (c2 / name).read_bytes()
    with open(c1 / "clusters.csv") as fh:
        rows = list(csv.DictReader(fh))
    sensors = {r["sensor_id"] for r in rows}
    assert sensors == {"S000", "S001", "S002", "S003"}
    for r in rows:
        assert 0.0 <= float(r["membership"]) <= 1.0


def test_cluster_separates_decoupled_groups(tmp_path):
    # two pairs of sensors with identical in-pair residual behavior but a
    # wide milepost gap between the pairs: the gap splits the corridor
    rng = np.random.default_rng(0)
    steps = 96 * 3
    start = np.datetime64("2016-01-04T00:00:00")
    rows = ["sensor_id,timestamp,flow,occupancy,speed"]
    base_a = rng.normal(size=steps)
    base_b = rng.normal(size=steps)
    series = {"A1": base_a, "A2": base_a, "B1": base_b, "B2": base_b}
    for sid, resid in series.items():
        for i in range(steps):
            ts = str((start + np.timedelta64(15 * i, "m")).astype("datetime64[s]"))
            flow = 100.0 + 10.0 * np.sin(2 * np.pi * (i % 96) / 96) + resid[i]
            rows.append(f"{sid},{ts},{flow},{5.0 + resid[i]},{60.0}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    meta = tmp_path / "meta.csv"
    meta.write_text("sensor_id,milepost,kind\n"
                    "A1,0.0,mainline\nA2,0.5,mainline\n"
                    "B1,20.0,mainline\nB2,20.5,mainline\n")
    out = tmp_path / "clusters"
    assert run("cluster", "--data", str(data), "--meta", str(meta),
               "--out", str(out), "--seed", "1") == 0
    with open(out / "clusters.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_cluster = {}
    for r in rows:
        by_cluster.setdefault(r["cluster_id"], set()).add(r["sensor_id"])
    groups = sorted(sorted(v) for v in by_cluster.values())
    assert groups == [["A1", "A2"], ["B1", "B2"]]


@pytest.fixture
def trained(synth_dir, tmp_path):
    out, cfg = synth_dir
    cdir = tmp_path / "clusters"
    assert run("cluster", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--out", str(cdir), "--seed", "7",
               "--config", cfg) == 0
    tdir = tmp_path / "train"
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--out", str(tdir),
               "--seed", "7", "--config", cfg) == 0
    return out, cfg, cdir, tdir


def test_train_emits_checkpoint_and_log(trained):
    out, cfg, cdir, tdir = trained
    assert (tdir / "checkpoint.txt").exists()
    assert (tdir / "run.log").exists()
    log = (tdir / "run.log").read_text()
    assert "epoch=1" in log and "train_loss=" in log and "wall_ms=" in log
    clusters = {line.split(",")[0] for line in
                (cdir / "clusters.csv").read_text().splitlines()[1:]}
    dae = [line.split() for line in log.splitlines() if line.startswith("dae_cluster=")]
    assert [(c, e) for c, e, _ in dae] == [(f"dae_cluster={j}", f"epoch={e}")
                                           for j in range(len(clusters)) for e in (1, 2)]
    assert all(np.isfinite(float(loss.removeprefix("loss="))) for _, _, loss in dae)


def test_train_checkpoint_deterministic(trained, tmp_path):
    out, cfg, cdir, tdir = trained
    t2 = tmp_path / "train2"
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--out", str(t2),
               "--seed", "7", "--config", cfg) == 0
    assert (tdir / "checkpoint.txt").read_bytes() == (t2 / "checkpoint.txt").read_bytes()
    assert (tdir / "config_resolved.txt").read_bytes() == \
        (t2 / "config_resolved.txt").read_bytes()


# the chain of `test_chain_is_byte_reproducible`: six sensors, one epoch
CHAIN_CFG = TINY_CFG.replace("synth_sensors=4", "synth_sensors=6").replace(
    "\nepochs=2\n", "\nepochs=1\n")


def chain_digests(root, cfg, capsys) -> dict[str, str]:
    """The sha256 of every file that synth -> cluster -> train -> eval leave
    under `root`, and of their stdout, with run.log's wall-clock times masked."""
    data = ["--data", str(root / "synth" / "data.csv"), "--meta", str(root / "synth" / "meta.csv"),
            "--seed", "7", "--config", cfg]
    clusters = ["--clusters", str(root / "clusters" / "clusters.csv")]
    capsys.readouterr()
    assert run("synth", "--out", str(root / "synth"), "--seed", "7", "--config", cfg) == 0
    assert run("cluster", *data, "--out", str(root / "clusters")) == 0
    assert run("train", *data, *clusters, "--out", str(root / "model")) == 0
    assert run("eval", *data, *clusters, "--model", str(root / "model" / "checkpoint.txt"),
               "--report", str(root / "report.csv")) == 0
    blobs = {"stdout": capsys.readouterr().out.encode()}
    for path in sorted(root.rglob("*")):
        body = path.read_bytes() if path.is_file() else None
        if path.name == "run.log":
            body = re.sub(rb"wall_ms=\S+", b"wall_ms=*", body)
        if body is not None:
            blobs[path.relative_to(root).as_posix()] = body
    return {name: hashlib.sha256(body).hexdigest() for name, body in blobs.items()}


def test_chain_is_byte_reproducible(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CHAIN_CFG)
    first = chain_digests(tmp_path / "first", cfg, capsys)
    second = chain_digests(tmp_path / "second", cfg, capsys)
    assert {"model/checkpoint.txt", "model/run.log", "synth/data.csv.panel.npz",
            "report.csv", "stdout"} <= set(first)
    assert first == second


def report_values(path):
    """The (metric, horizon, regime) -> value rows of a report CSV."""
    with open(path) as fh:
        rows = list(csv.reader(fh))[3:]
    return {(metric, horizon, regime): float(value) for metric, horizon, regime, value in rows}


HORIZON_ROWS = {(metric, str(h), "all") for metric in ("mae", "rmse") for h in range(1, 5)}


def test_eval_reports_finite_metrics(trained, tmp_path, capsys):
    out, cfg, cdir, tdir = trained
    report = tmp_path / "report.csv"
    assert run("eval", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model",
               str(tdir / "checkpoint.txt"), "--report", str(report),
               "--seed", "7", "--config", cfg) == 0
    printed = capsys.readouterr().out
    assert "metric" in printed
    values = report_values(report)
    # each number once
    assert set(values) == HORIZON_ROWS | {("mae", "all", "peak"), ("mae", "all", "offpeak")}
    for h in range(1, 5):
        m = values[("mae", str(h), "all")]
        r = values[("rmse", str(h), "all")]
        assert np.isfinite(m) and np.isfinite(r) and r >= m >= 0


def test_missing_eval_reports_deltas(trained, tmp_path):
    out, cfg, cdir, tdir = trained
    report = tmp_path / "missing.csv"
    assert run("missing-eval", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--clusters", str(cdir / "clusters.csv"),
               "--model", str(tdir / "checkpoint.txt"), "--report", str(report),
               "--seed", "7", "--config", cfg) == 0
    values = report_values(report)
    # each number once: the corrupted run's MAE is only in the mae rows
    assert set(values) == HORIZON_ROWS | {("missing_delta", "mean_increase", "all")} | {
        ("missing_delta", f"h{h}_{kind}", "all") for h in range(1, 5)
        for kind in ("clean", "increase")}
    for h in range(1, 5):
        assert values[("missing_delta", f"h{h}_increase", "all")] == \
            values[("mae", str(h), "all")] - values[("missing_delta", f"h{h}_clean", "all")]


def test_missing_eval_reports_deltas_in_horizon_order(tmp_path):
    # at 10 horizons a string sort of the keys would put h10_clean before h1_clean
    cfg = write_cfg(tmp_path, TINY_CFG + "horizon=10\n")
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--seed", "7", "--config", cfg) == 0
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,sensor_id,membership\n" +
                        "".join(f"0,S{i:03d},1.0\n" for i in range(4)))
    model = md.build_forecaster([[0, 1, 2, 3]], 4, 3, cli.load_config(cfg).forecaster, seed=7)
    nn.save_params(str(tmp_path / "checkpoint.txt"), model.parameters())
    report = tmp_path / "missing.csv"
    assert run("missing-eval", "--data", str(data / "data.csv"), "--meta",
               str(data / "meta.csv"), "--clusters", str(clusters), "--model",
               str(tmp_path / "checkpoint.txt"), "--report", str(report),
               "--seed", "7", "--config", cfg) == 0
    with open(report) as fh:
        keys = [(metric, horizon) for metric, horizon, _, _ in list(csv.reader(fh))[3:]]
    assert keys == [(metric, str(h)) for h in range(1, 11) for metric in ("mae", "rmse")] + [
        ("missing_delta", f"h{h}_{kind}") for h in range(1, 11)
        for kind in ("clean", "increase")] + [("missing_delta", "mean_increase")]


def test_missing_eval_memory_stays_bounded(tmp_path):
    # a 24-sensor, 28-day corridor and an untrained desk checkpoint: 43.2 MiB
    # while both passes built every window's arrays and stayed alive together
    cfg = write_cfg(tmp_path, "synth_sensors=24\nsynth_days=28\n")
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--seed", "11", "--config", cfg) == 0
    common = ["--data", str(data / "data.csv"), "--meta", str(data / "meta.csv"),
              "--seed", "11", "--config", cfg]
    assert run("cluster", *common, "--out", str(tmp_path)) == 0
    sensors = sorted(pn.load_sensor_meta(str(data / "meta.csv")),
                     key=lambda m: (m.position, m.id))
    mm = cl.clusters_from_csv(str(tmp_path / "clusters.csv"), sensors)
    model = md.build_forecaster(mm, 24, 3, cli.load_config(cfg).forecaster, seed=11)
    nn.save_params(str(tmp_path / "checkpoint.txt"), model.parameters())
    del model
    tracemalloc.start()
    try:
        assert run("missing-eval", *common, "--clusters", str(tmp_path / "clusters.csv"),
                   "--model", str(tmp_path / "checkpoint.txt"),
                   "--report", str(tmp_path / "missing.csv")) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_exit_code_missing_file(tmp_path):
    assert run("decompose", "--data", str(tmp_path / "nope.csv"),
               "--meta", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "o")) == 3


BAD_CONFIG_LINES = [
    ("imaginary_key=2", "bad.cfg:1: unknown config key 'imaginary_key'"),
    ("epochs=abc", "bad.cfg:1: bad value 'abc' for 'epochs'"),
    ("epochs=2.5", "bad.cfg:1: bad value '2.5' for 'epochs'"),
    ("conv_filters=8,x", "bad.cfg:1: bad value '8,x' for 'conv_filters'"),
    ("train_fraction=abc", "bad.cfg:1: bad value 'abc' for 'train_fraction'"),
    ("conv_filters=2", "bad.cfg:1: conv_filters needs two entries, got (2,)"),
    ("convlstm_filters=2,2,2", "bad.cfg:1: convlstm_filters needs two entries, got (2, 2, 2)"),
    ("synth_weekday_factors=1,2", "bad.cfg:1: unknown config key 'synth_weekday_factors'"),
    ("synth_sensors=-3", "bad.cfg:1: synth_sensors must be at least 1, got -3"),
    ("synth_days=0", "bad.cfg:1: synth_days must be at least 1, got 0"),
    ("dtw_quantile=2", "bad.cfg:1: dtw_quantile must lie in [0, 1]"),
    ("completeness_min=-0.5", "bad.cfg:1: completeness_min must lie in [0, 1]"),
    ("train_fraction=1.5", "bad.cfg:1: train_fraction must lie strictly between 0 and 1"),
    ("dtw_window_hours=nan", "bad.cfg:1: dtw_window_hours must be finite"),
    ("dtw_window_hours=0", "bad.cfg:1: dtw_window_hours must be positive"),
    ("dtw_window_hours=-2", "bad.cfg:1: dtw_window_hours must be positive"),
    ("cluster_m=2", "bad.cfg:1: unknown config key 'cluster_m'"),
    ("dtw_normalize=true", "bad.cfg:1: unknown config key 'dtw_normalize'"),
    ("neighbor_radius_miles=inf", "bad.cfg:1: neighbor_radius_miles must be finite"),
    ("learning_rate=nan", "bad.cfg:1: learning_rate must be finite"),
    ("dropout=1.5", "bad.cfg:1: dropout must lie in [0, 1)"),
    ("dae_widths=4,2,3", "bad.cfg:1: dae_widths must be palindromic"),
    ("synth_noise_sd=nan", "bad.cfg:1: unknown config key 'synth_noise_sd'"),
    ("synth_free_speed=inf", "bad.cfg:1: unknown config key 'synth_free_speed'"),
    ("synth_weekday_factors=1,1,1,1,1,nan,1",
     "bad.cfg:1: unknown config key 'synth_weekday_factors'"),
    ("synth_step_minutes=7", "bad.cfg:1: unknown config key 'synth_step_minutes'"),
    ("synth_step_minutes=0", "bad.cfg:1: unknown config key 'synth_step_minutes'"),
    ("synth_noise_sd=-1", "bad.cfg:1: unknown config key 'synth_noise_sd'"),
    ("neighbor_radius_miles=-1", "bad.cfg:1: neighbor_radius_miles must not be negative"),
    ("cluster_max_span_miles=-1", "bad.cfg:1: cluster_max_span_miles must not be negative"),
    ("cluster_threshold=5", "bad.cfg:1: cluster_threshold must lie in [0, 1], got 5.0"),
    ("conv_pool=3", "bad.cfg:1: conv_pool must divide window - conv_time_kernel + 1 = 4, got 3"),
    ("conv_time_kernel=7", "bad.cfg:1: conv_time_kernel must not exceed window 6, got 7"),
    ("synth_param_jitter=-3", "bad.cfg:1: unknown config key 'synth_param_jitter'"),
    ("synth_param_jitter=1", "bad.cfg:1: unknown config key 'synth_param_jitter'"),
    ("synth_pulses_per_day=-1", "bad.cfg:1: unknown config key 'synth_pulses_per_day'"),
    ("synth_pulse_duration_steps=0",
     "bad.cfg:1: unknown config key 'synth_pulse_duration_steps'"),
    ("synth_pulse_reach=-2", "bad.cfg:1: unknown config key 'synth_pulse_reach'"),
    ("conv_pool=0", "bad.cfg:1: conv_pool must be positive, got 0"),
    ("window=0", "bad.cfg:1: window must be positive, got 0"),
    ("epochs=abc\nepochs=3", "bad.cfg:2: config key 'epochs' already set on"),
]


@pytest.mark.parametrize("line, message", BAD_CONFIG_LINES,
                         ids=[line for line, _ in BAD_CONFIG_LINES])
def test_exit_code_bad_config(tmp_path, synth_dir, capsys, line, message):
    out, _ = synth_dir
    bad = write_cfg(tmp_path, line + "\n", name="bad.cfg")
    capsys.readouterr()
    assert run("decompose", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--out", str(tmp_path / "o"),
               "--config", bad) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("data", ["present", "missing"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_exit_code_conv_geometry_before_reading_data(synth_dir, tmp_path, capsys, command,
                                                     data):
    # the window of 6 and kernel of 3 leave 4 conv steps, which a pool of 3 cannot divide
    out, cfg = synth_dir
    assert run("cluster", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--out", str(tmp_path / "clusters"), "--seed", "7", "--config", cfg) == 0
    bad = write_cfg(tmp_path, "conv_pool=3\n", name="bad.cfg")
    given = out / "data.csv" if data == "present" else tmp_path / "absent.csv"
    outputs = {"train": ["--out", str(tmp_path / "model")],
               "eval": ["--model", str(tmp_path / "checkpoint.txt"),
                        "--report", str(tmp_path / "report.csv")]}[command]
    capsys.readouterr()
    assert run(command, "--data", str(given), "--meta", str(out / "meta.csv"),
               "--clusters", str(tmp_path / "clusters" / "clusters.csv"), *outputs,
               "--seed", "7", "--config", bad) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "bad.cfg:1: conv_pool" in err[0]
    assert not (tmp_path / "model").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file"),
    (b"epochs=\xff\xfe3\n", "is not UTF-8 text"),
], ids=["absent", "not-utf8"])
def test_exit_code_unreadable_config(synth_dir, tmp_path, capsys, content, message):
    out, _ = synth_dir
    cfg = tmp_path / "given.cfg"
    if content is not None:
        cfg.write_bytes(content)
    capsys.readouterr()
    assert run("decompose", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--out", str(tmp_path / "o"),
               "--config", str(cfg)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0] and "given.cfg" in err[0]


def test_exit_code_missing_required_flag(tmp_path):
    assert run("synth", "--out", str(tmp_path / "s")) == 2  # no seed


def test_exit_code_training_divergence(synth_dir, tmp_path):
    out, _ = synth_dir
    cfg = write_cfg(tmp_path, TINY_CFG.replace("learning_rate=0.003",
                                               "learning_rate=80.0")
                    .replace("\nepochs=2\n", "\nepochs=8\nuse_dae=false\n"),
                    name="diverge.cfg")
    cdir = tmp_path / "clusters"
    assert run("cluster", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--out", str(cdir), "--seed", "1",
               "--config", cfg) == 0
    code = run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--out", str(tmp_path / "t"),
               "--seed", "1", "--config", cfg)
    assert code == 4


def test_resolved_config_contains_seed(synth_dir):
    out, _ = synth_dir
    text = (out / "config_resolved.txt").read_text()
    assert "seed=7" in text
    assert "synth_sensors=4" in text


def test_panel_to_csv_round_trips_ids_that_need_quoting(tmp_path, capsys):
    p = ev.synth_generate(ev.SynthConfig(), sensors=4, days=8, seed=7)
    p.sensors = tuple(dataclasses.replace(s, id=sid)
                      for s, sid in zip(p.sensors, ["S0", "S,1", 'S"2', "S3"]))
    p.missing_mask[2, 30:40] = False
    p.values[~p.missing_mask] = 0.0  # an unobserved cell is not written, and reads as 0
    data, meta = str(tmp_path / "data.csv"), str(tmp_path / "meta.csv")
    ev.panel_to_csv(p, data, meta)
    q = pn.load_csv(data, meta)
    assert q.values.tobytes() == p.values.tobytes()
    assert q.missing_mask.tobytes() == p.missing_mask.tobytes()
    assert q.time_index.tobytes() == p.time_index.tobytes()
    assert q.sensors == p.sensors
    cfg = write_cfg(tmp_path)
    assert run("cluster", "--data", data, "--meta", meta, "--out", str(tmp_path / "c"),
               "--seed", "7", "--config", cfg) == 0
    assert capsys.readouterr().err == ""


def test_exit_code_short_data_row(synth_dir, tmp_path, capsys):
    out, cfg = synth_dir
    data = tmp_path / "short.csv"
    data.write_text((out / "data.csv").read_text() + "S001,2016-01-04T00:00:00,1.0\n")
    assert run("cluster", "--data", str(data), "--meta", str(out / "meta.csv"),
               "--out", str(tmp_path / "c"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "has 3 fields" in err[0]


@pytest.mark.parametrize("row, message", [
    ("S001,2016-01-04T00:00:00,1.0,2.0,3.0,4.0", "has 6 fields, expected 5"),
    ('"S001,x",2016-01-04T00:00:00,1.0,2.0,3.0', "unknown sensor 'S001,x'"),  # one field
], ids=["extra-field", "quoted-comma"])
def test_exit_code_data_row_with_extra_fields(synth_dir, tmp_path, capsys, row, message):
    out, cfg = synth_dir
    data = tmp_path / "long.csv"
    data.write_text((out / "data.csv").read_text() + row + "\n")
    assert run("cluster", "--data", str(data), "--meta", str(out / "meta.csv"),
               "--out", str(tmp_path / "c"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_exit_code_unknown_sensor_in_clusters(synth_dir, tmp_path, monkeypatch):
    out, cfg = synth_dir
    cdir = tmp_path / "clusters"
    assert run("cluster", "--data", str(out / "data.csv"), "--meta",
               str(out / "meta.csv"), "--out", str(cdir), "--seed", "7",
               "--config", cfg) == 0
    clusters = cdir / "clusters.csv"
    clusters.write_text(clusters.read_text().replace("S002", "S999"))

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the cluster file was checked")

    monkeypatch.setattr(md, "pretrain_dae", no_training)
    monkeypatch.setattr(md, "train", no_training)
    tdir = tmp_path / "train"
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(clusters), "--out", str(tdir),
               "--seed", "7", "--config", cfg) == 3
    assert not (tdir / "checkpoint.txt").exists()


@pytest.mark.parametrize("rows, message", [
    (["1,S000,1.0", "1,S001,1.0", "1,S002,1.0", "1,S003,1.0"], "has no rows for cluster id 0"),
    (["0,S000,1.0", "0,S001,1.0", "0,S002,1.0"], "leaves out sensor 'S003'"),
    (["0,S000,1.0", "0,S001,1.0", "0,S002,1.0", "0,S003,1.0", "0,S000,1.0"],
     "line 6 repeats sensor 'S000' in cluster 0"),
], ids=["cluster-id-skipped", "sensor-left-out", "duplicate-row"])
def test_exit_code_incomplete_clusters(synth_dir, tmp_path, monkeypatch, capsys, rows,
                                       message):
    out, cfg = synth_dir
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,sensor_id,membership\n" + "\n".join(rows) + "\n")

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the cluster file was checked")

    monkeypatch.setattr(md, "pretrain_dae", no_training)
    monkeypatch.setattr(md, "train", no_training)
    capsys.readouterr()
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(clusters), "--out", str(tmp_path / "t"),
               "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("name", ["data.csv", "meta.csv", "clusters.csv"])
def test_exit_code_non_utf8_input(synth_dir, tmp_path, capsys, name):
    out, cfg = synth_dir
    files = {"data.csv": (out / "data.csv").read_bytes(),
             "meta.csv": (out / "meta.csv").read_bytes(),
             "clusters.csv": b"cluster_id,sensor_id,membership\n"
                             + b"".join(b"0,S00%d,1.0\n" % i for i in range(4))}
    files[name] += b"S\xff01,1.0\n"  # a byte that starts no UTF-8 sequence
    for file_name, content in files.items():
        (tmp_path / file_name).write_bytes(content)
    capsys.readouterr()
    # eval reads the data, metadata and cluster files before the checkpoint
    assert run("eval", "--data", str(tmp_path / "data.csv"), "--meta",
               str(tmp_path / "meta.csv"), "--clusters", str(tmp_path / "clusters.csv"),
               "--model", str(tmp_path / "checkpoint.txt"), "--report",
               str(tmp_path / "report.csv"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not UTF-8 text" in err[0] and name in err[0]


def test_exit_code_dtw_window_longer_than_training_span(synth_dir, tmp_path, capsys):
    out, _ = synth_dir
    # 8 days of 15-minute steps leave 576 training steps; 200 hours are 800 steps
    cfg = write_cfg(tmp_path, TINY_CFG + "dtw_window_hours=200\n", name="long.cfg")
    capsys.readouterr()
    assert run("cluster", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--out", str(tmp_path / "c"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "800 steps" in err[0] and "576 steps" in err[0]


def test_exit_code_malformed_cluster_row(synth_dir, tmp_path, capsys):
    out, cfg = synth_dir
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,sensor_id,membership\n0,S001,1.0\n0,S002\n")
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(clusters), "--out", str(tmp_path / "t"),
               "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cluster file line 3 has 2 fields" in err[0]


def test_exit_code_bad_cluster_header(synth_dir, tmp_path, capsys):
    out, cfg = synth_dir
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster,sensor,mu\n0,S001,1.0\n")
    assert run("train", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(clusters), "--out", str(tmp_path / "t"),
               "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "cluster file header must be cluster_id,sensor_id,membership" in err[0]


def test_exit_code_dae_checkpoint_without_dae_heads(trained, tmp_path, capsys):
    out, _, cdir, tdir = trained
    no_dae = write_cfg(tmp_path, TINY_CFG + "use_dae=false\n", name="no_dae.cfg")
    capsys.readouterr()
    assert run("eval", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model",
               str(tdir / "checkpoint.txt"), "--report", str(tmp_path / "report.csv"),
               "--seed", "7", "--config", no_dae) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "parameters the model lacks" in err[0]
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("keep", [0.3, 0.6, 0.999])
def test_exit_code_truncated_checkpoint(trained, tmp_path, capsys, keep):
    out, cfg, cdir, tdir = trained
    whole = (tdir / "checkpoint.txt").read_bytes()
    cut = tmp_path / "cut.txt"
    cut.write_bytes(whole[:int(len(whole) * keep)])
    capsys.readouterr()
    assert run("eval", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model", str(cut),
               "--report", str(tmp_path / "report.csv"), "--seed", "7",
               "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: checkpoint {cut} is not a readable array archive: "
                   "File is not a zip file"]


def test_exit_code_v1_text_checkpoint(trained, tmp_path, capsys):
    out, cfg, cdir, tdir = trained
    old = tmp_path / "old.txt"
    old.write_text("corridorcast-ckpt-v1\nw 1 2 : 0x1.0000000000000p+0 -0x1.8000000000000p+1\n")
    capsys.readouterr()
    assert run("eval", "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model", str(old),
               "--report", str(tmp_path / "report.csv"), "--seed", "7",
               "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: checkpoint {old} is in the retired text format "
                   "corridorcast-ckpt-v1; re-run train to write corridorcast-ckpt-v2"]
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("flag", ["data", "meta", "clusters", "model"])
def test_exit_code_input_names_a_directory(trained, tmp_path, capsys, flag):
    out, cfg, cdir, tdir = trained
    inputs = {"data": out / "data.csv", "meta": out / "meta.csv",
              "clusters": cdir / "clusters.csv", "model": tdir / "checkpoint.txt"}
    inputs[flag] = tmp_path / "a_directory"
    inputs[flag].mkdir()
    capsys.readouterr()
    assert run("eval", *(f"--{name}={path}" for name, path in inputs.items()),
               "--report", str(tmp_path / "report.csv"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"--{flag} {inputs[flag]}: Is a directory" in err[0]
    assert not (tmp_path / "report.csv").exists()


# case -> the command, the file of its --out directory that is a directory,
# and whether --out is given with a trailing slash
UNUSABLE_OUT_FILES = {
    "synth-data.csv": ("synth", "data.csv", False),
    "synth-meta.csv": ("synth", "meta.csv", False),
    "train-checkpoint.txt": ("train", "checkpoint.txt", False),
    "train-run.log": ("train", "run.log", False),
    "out-with-trailing-slash": ("train", "checkpoint.txt", True),
}


@pytest.mark.parametrize("case", ["out", "report", *UNUSABLE_OUT_FILES])
def test_exit_code_unusable_output(trained, tmp_path, capsys, case):
    out, cfg, cdir, tdir = trained
    common = ["--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
              "--seed", "7", "--config", cfg]
    place = tmp_path / "taken"
    flag, named = "out", str(place)
    if case == "out":  # a file where the output directory should go
        place.write_text("keep me\n")
        argv = ["cluster", *common, "--out", str(place)]
    elif case == "report":  # a directory where the report file should go
        flag = "report"
        place.mkdir()
        argv = ["eval", *common, "--clusters", str(cdir / "clusters.csv"),
                "--model", str(tdir / "checkpoint.txt"), "--report", str(place)]
    else:  # a directory where one file of the output directory should go
        command, name, slash = UNUSABLE_OUT_FILES[case]
        named = str(place / name)
        (place / name).mkdir(parents=True)
        argv = [command, *common, "--clusters", str(cdir / "clusters.csv"),
                "--out", str(place) + "/" * slash]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"cannot write --{flag} {named}" in err[0]
    assert sorted(os.listdir(tmp_path)) == before
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    if case == "out":
        assert place.read_text() == "keep me\n"
    elif case == "report":
        assert not os.listdir(place)
    else:
        assert not os.listdir(place / name)
    if case == "train-run.log":  # the checkpoint is written last, so there is none
        assert not (place / "checkpoint.txt").exists()


def write_corridor(tmp_path, sensor_ids, steps, minutes=15):
    """A data and a metadata CSV: `steps` rows per sensor `minutes` apart, the
    sensors 0.5 miles apart."""
    start = np.datetime64("2016-01-04T00:00:00", "s")
    rows = [f"{sid},{start + np.timedelta64(minutes * i, 'm')},{100 + i % 7}.0,5.0,60.0"
            for sid in sensor_ids for i in range(steps)]
    (tmp_path / "data.csv").write_text("sensor_id,timestamp,flow,occupancy,speed\n"
                                       + "\n".join(rows) + "\n")
    (tmp_path / "meta.csv").write_text("sensor_id,milepost,kind\n" + "".join(
        f"{sid},{0.5 * k},mainline\n" for k, sid in enumerate(sensor_ids)))
    return ["--data", str(tmp_path / "data.csv"), "--meta", str(tmp_path / "meta.csv")]


def test_exit_code_unwritable_file_below_out(tmp_path, capsys):
    # a directory where the decomposition of the first sensor, C, should go
    inputs = write_corridor(tmp_path, ["C", "D"], 96 * 3)
    (tmp_path / "o" / "decomp_C.csv").mkdir(parents=True)
    capsys.readouterr()
    assert run("decompose", *inputs, "--out", str(tmp_path / "o") + "/") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"cannot write --out {tmp_path}/o/decomp_C.csv" in err[0]
    assert os.listdir(tmp_path / "o") == ["decomp_C.csv"]
    assert not os.listdir(tmp_path / "o" / "decomp_C.csv")


@pytest.mark.parametrize("sensor_id", ["a/b", "x/../../y"])
def test_exit_code_sensor_id_with_a_path_separator(tmp_path, capsys, sensor_id):
    # decompose names its files after the sensors, and each must stay inside --out
    inputs = write_corridor(tmp_path, ["C", sensor_id], 96 * 3)
    before = sorted(p for p in tmp_path.rglob("*") if not p.name.endswith(".panel.npz"))
    capsys.readouterr()
    assert run("decompose", *inputs, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"sensor id {sensor_id!r} holds a path separator" in err[0]
    assert sorted(p for p in tmp_path.rglob("*")
                  if not p.name.endswith(".panel.npz")) == before
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_exit_code_empty_training_span(tmp_path, capsys, command):
    # one timestamp: a quarter of it is the test span, and no step is left to train on
    inputs = write_corridor(tmp_path, ["A", "B"], 1)
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,sensor_id,membership\n0,A,1.0\n0,B,1.0\n")
    capsys.readouterr()
    assert run(command, *inputs, "--clusters", str(clusters), "--model",
               str(tmp_path / "checkpoint.txt"), "--out", str(tmp_path / "o"),
               "--report", str(tmp_path / "report.csv"), "--seed", "1") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "train_fraction 0.75 of a 1-step panel leaves no training step" \
        in err[0]
    assert not (tmp_path / "o").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command, fraction, message", [
    ("train", 0.01, "no training windows"),  # DAE heads on, as in TINY_CFG
    ("eval", 0.999, "no test windows"),
    ("missing-eval", 0.999, "no test windows"),
])
def test_exit_code_empty_window_set(trained, tmp_path, capsys, command, fraction, message):
    out, _, cdir, tdir = trained
    cfg = write_cfg(tmp_path, TINY_CFG + f"train_fraction={fraction}\n", name="split.cfg")
    capsys.readouterr()
    assert run(command, "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model",
               str(tdir / "checkpoint.txt"), "--out", str(tmp_path / "o"),
               "--report", str(tmp_path / "report.csv"), "--seed", "7",
               "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {message}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "report.csv").exists()


def test_exit_code_metadata_without_a_mainline_sensor(synth_dir, tmp_path, capsys):
    out, cfg = synth_dir
    meta = out / "meta.csv"
    meta.write_text(meta.read_text().replace(",mainline", ",on_ramp"))
    capsys.readouterr()
    assert run("cluster", "--data", str(out / "data.csv"), "--meta", str(meta),
               "--out", str(tmp_path / "c"), "--seed", "7", "--config", cfg) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: cannot attach ramps: no mainline sensors"]


@pytest.mark.parametrize("command", ["cluster", "synth", "train", "eval", "missing-eval"])
def test_exit_code_negative_seed(trained, tmp_path, capsys, command):
    out, cfg, cdir, tdir = trained
    capsys.readouterr()
    assert run(command, "--data", str(out / "data.csv"), "--meta", str(out / "meta.csv"),
               "--clusters", str(cdir / "clusters.csv"), "--model",
               str(tdir / "checkpoint.txt"), "--out", str(tmp_path / "o"),
               "--report", str(tmp_path / "report.csv"), "--seed=-1", "--config", cfg) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--seed must be a non-negative integer, got -1" in err[0]
    assert not (tmp_path / "o").exists() and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["decompose", "cluster"])
def test_exit_code_step_that_does_not_divide_a_day(tmp_path, capsys, command):
    stamps = np.datetime64("2016-01-04T00:00:00", "s") + np.arange(600) * np.timedelta64(7, "m")
    rows = [f"{sid},{ts},{100 + i % 9}.0,5.0,60.0" for sid in ("A", "B")
            for i, ts in enumerate(stamps)]
    (tmp_path / "data.csv").write_text("sensor_id,timestamp,flow,occupancy,speed\n"
                                       + "\n".join(rows) + "\n")
    (tmp_path / "meta.csv").write_text("sensor_id,milepost,kind\nA,0.0,mainline\n"
                                       "B,0.5,mainline\n")
    capsys.readouterr()
    assert run(command, "--data", str(tmp_path / "data.csv"), "--meta",
               str(tmp_path / "meta.csv"), "--out", str(tmp_path / "o"), "--seed", "1") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "a step of 7 minutes does not divide a day" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["decompose", "cluster", "train", "eval"])
def test_exit_code_step_of_a_whole_day(tmp_path, capsys, command):
    # one row per day divides a day, but leaves no daily cycle to decompose
    inputs = write_corridor(tmp_path, ["A", "B"], 28, minutes=1440)
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,sensor_id,membership\n0,A,1.0\n0,B,1.0\n")
    capsys.readouterr()
    assert run(command, *inputs, "--clusters", str(clusters), "--model",
               str(tmp_path / "checkpoint.txt"), "--out", str(tmp_path / "o"),
               "--report", str(tmp_path / "report.csv"), "--seed", "1") == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: decomposition needs at least 2 steps per period, got 1: "
                   "the data step must be shorter than a day"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "report.csv").exists()


def test_non_ascii_sensor_id_under_an_ascii_locale(synth_dir, tmp_path):
    # outputs are UTF-8 whatever the locale, as the inputs must be
    out, cfg = synth_dir
    for name in ("data.csv", "meta.csv"):
        text = (out / name).read_text(encoding="utf-8").replace("S000", "S\u00fcd0")
        (tmp_path / name).write_text(text, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
    env.pop("PYTHONUTF8", None)
    common = ["--data", str(tmp_path / "data.csv"), "--meta", str(tmp_path / "meta.csv"),
              "--seed", "7", "--config", cfg]
    for argv in (["cluster", *common, "--out", str(tmp_path / "c")],
                 ["train", *common, "--clusters", str(tmp_path / "c" / "clusters.csv"),
                  "--out", str(tmp_path / "t")]):
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "corridorcast.cli",
                               *argv], env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
    clusters = (tmp_path / "c" / "clusters.csv").read_bytes().decode("utf-8")
    assert ",S\u00fcd0," in clusters
    assert (tmp_path / "t" / "checkpoint.txt").exists()
