"""Benchmark of the corridorcast command line on seeded synthetic corridors.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root. Every timed operation is one in-process call of
``corridorcast.cli.main([...])`` (the baselines, which have no command, call
the library). ``--trace 1`` wraps the program's public functions from this
directory and reports per-layer numbers instead of end-to-end ones. The last
line of standard output is the JSON result; see perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: repeated timings spread less than with the default pool.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    sensors: int
    days: int
    ops: tuple[tuple[str, int], ...]  # (operation, runs per untraced pass)
    ramp_every: int = 0               # relabel every n-th sensor of meta.csv as a ramp
    checkpoint_in_setup: bool = False


# Sizes keep all 4 + 22 x 3 driver runs inside one hour on a 2-CPU box: the
# desk corridors use 28 days instead of ROADMAP's 56 (one 56-day train epoch
# alone takes ~35 s), the wide corridor 14 days (FHC cost depends on the
# sensor count only).
# Untraced, short operations run several times per pass and their median is
# kept: single sub-second runs of the same command spread 40% on a shared
# 2-CPU box. Traced, each runs once, so counts repeat exactly.
WORKLOADS = {
    "desk-pipeline": Workload(24, 28, (("cluster", 3), ("train", 1), ("eval", 2),
                                       ("baselines", 5))),
    "wide-cluster": Workload(384, 14, (("cluster", 1),), ramp_every=8),
    "desk-forecast": Workload(24, 28, (("eval", 3), ("missing-eval", 2)),
                              checkpoint_in_setup=True),
}
EPOCHS = 1
SETUP_REPEATS = 3


def _fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "corridorcast" / "cli.py").is_file():
        _fail_early(f"corridorcast sources not found under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import corridorcast
    import corridorcast.cli
    if Path(corridorcast.__file__).resolve().parent != SRC / "corridorcast":
        _fail_early(f"imported corridorcast from {corridorcast.__file__}, not {SRC}")
    return corridorcast


# -- small helpers -------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources: the key for cross-run digests."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without config introspection
        return "unknown"


def tail_stats(values: list[float]) -> tuple[float, float, float]:
    """Median, the highest percentile with at least ten samples beyond it, and that percentile."""
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), statistics.median(ordered), 50.0
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n


def read_report(path: Path) -> dict[tuple[str, str, str], float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3 or rows[2] != ["metric", "horizon", "regime", "value"]:
        raise ValueError("report lacks its metric,horizon,regime,value header")
    return {(m, h, r): float(v) for m, h, r, v in rows[3:]}


# -- one benchmark run -----------------------------------------------------------------


class Bench:
    def __init__(self, cc, name: str, seed: int, trace: bool):
        import numpy as np
        from tracing import Instrumentation, Tracer

        self.cc, self.np = cc, np
        self.name, self.workload, self.seed, self.trace = name, WORKLOADS[name], seed, trace
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.data = self.dir / "data"
        self.setup_dir = self.dir / "setup"
        self.it_dir = self.dir / "iteration"
        self.cfg_path = self.dir / "run.cfg"
        self.tracer = Tracer()
        self.instrumentation = Instrumentation(self.tracer, cc) if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.op_times: list[dict[str, float]] = []
        self.setup_times: list[float] = []
        self.model_mae: list[float] = []
        self.baseline_mae: dict[str, list[float]] = {}
        self.parameters = 0
        self._truth = None

    # -- operations -----------------------------------------------------------

    def fail(self, op: str, why: str) -> None:
        self.failures.append(f"{op}: {why}")

    def cli(self, op: str, *argv: str) -> float | None:
        """One `corridorcast <op>` call: seconds taken, or None if it failed."""
        common = ["--data", str(self.data / "data.csv"), "--meta", str(self.data / "meta.csv"),
                  "--seed", str(self.seed), "--config", str(self.cfg_path)]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    self.tracer.span(f"cli.{op}"):
                started = time.perf_counter()
                rc = self.cc.cli.main([op, *common, *argv])
                took = time.perf_counter() - started
        except (Exception, SystemExit):  # a crash counts the op as failed
            self.fail(op, traceback.format_exc(limit=3) + err.getvalue())
            return None
        if rc != 0:
            self.fail(op, f"exit code {rc}: {err.getvalue().strip()}")
            return None
        return took

    def synth(self) -> None:
        rc = self.cc.cli.main(["synth", "--out", str(self.data), "--seed", str(self.seed),
                               "--config", str(self.cfg_path)])
        if rc != 0:
            raise RuntimeError(f"corridorcast synth exited with {rc}")
        every = self.workload.ramp_every
        if every:
            meta = self.data / "meta.csv"
            with open(meta, newline="") as fh:
                rows = list(csv.reader(fh))
            for k, row in enumerate(rows[1:], 1):
                if k % every == 0:
                    row[2] = "on_ramp" if (k // every) % 2 else "off_ramp"
            with open(meta, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)

    def write_checkpoint(self, clusters: Path, path: Path) -> None:
        """Forecaster with pretrained DAE heads and no training epoch."""
        pn, dc, md, cl = self.cc.panel, self.cc.decompose, self.cc.model, self.cc.cluster
        cfg = self.cc.cli.load_config(str(self.cfg_path))
        f = cfg.forecaster
        p = pn.load_csv(str(self.data / "data.csv"), str(self.data / "meta.csv"))
        p = pn.impute_forward(pn.filter_complete(p, cfg.run.completeness_min))
        boundary = int(cfg.run.train_fraction * p.n_steps)
        scaled = pn.apply_scale(p, pn.fit_scale(p, (0, boundary)))
        decomp = dc.decompose_panel(scaled, dc.daily_period(p.step_minutes))
        windows = md.make_windows(scaled, decomp, f.window, f.horizon)
        train_w, _ = md.split_by_time(windows, boundary, f.horizon)
        mm = cl.clusters_from_csv(str(clusters), list(p.sensors))
        pretrained, _ = md.pretrain_dae(md.cluster_target_blocks(train_w, mm.clusters), f,
                                        self.seed)
        model = md.build_forecaster(mm, p.n_sensors, len(p.features), f, self.seed,
                                    pretrained_dae=pretrained)
        self.cc.nn.save_params(str(path), model.parameters())

    def setup(self) -> bool:
        w = self.workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(f"synth_sensors={w.sensors}\nsynth_days={w.days}\n"
                                 f"epochs={EPOCHS}\n")
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.data, ignore_errors=True)
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            self.setup_dir.mkdir(parents=True)
            gc.collect()
            try:
                started = time.perf_counter()
                self.synth()
                if w.checkpoint_in_setup:
                    if self.cli("cluster", "--out", str(self.setup_dir)) is None:
                        return False
                    self.write_checkpoint(self.setup_dir / "clusters.csv",
                                          self.setup_dir / "checkpoint.txt")
                self.setup_times.append(time.perf_counter() - started)
                if w.checkpoint_in_setup:
                    self.check_clusters("setup", self.setup_dir)
                    self.check_checkpoint("setup", self.setup_dir / "clusters.csv",
                                          self.setup_dir / "checkpoint.txt")
            except Exception:  # set-up is the program's own work: report, do not measure
                self.fail("setup", traceback.format_exc(limit=3))
                return False
        return not self.failures

    def iteration(self) -> bool:
        """One pass; each op's time is the median of its runs."""
        shutil.rmtree(self.it_dir, ignore_errors=True)
        self.it_dir.mkdir(parents=True)
        times: dict[str, float] = {}
        for op, runs in self.workload.ops:
            took: list[float] = []
            for _ in range(1 if self.trace else runs):
                self.attempted += 1
                seconds = self.operation(op)
                if seconds is None:
                    return False
                took.append(seconds)
            times[op] = statistics.median(took)
        self.op_times.append(times)
        return True

    def operation(self, op: str) -> float | None:
        """Run and check one op: its seconds, or None if it failed."""
        if self.workload.checkpoint_in_setup:
            clusters, checkpoint = self.setup_dir, self.setup_dir / "checkpoint.txt"
        else:
            clusters, checkpoint = self.it_dir / "clusters", self.it_dir / "model" / "checkpoint.txt"
        if op == "cluster":
            took = self.cli("cluster", "--out", str(clusters))
            check = lambda: self.check_clusters(op, clusters)
        elif op == "train":
            took = self.cli("train", "--clusters", str(clusters / "clusters.csv"),
                            "--out", str(checkpoint.parent))
            check = lambda: self.check_checkpoint(op, clusters / "clusters.csv", checkpoint)
        elif op in ("eval", "missing-eval"):
            report = self.it_dir / ("report.csv" if op == "eval" else "missing_report.csv")
            took = self.cli(op, "--clusters", str(clusters / "clusters.csv"),
                            "--model", str(checkpoint), "--report", str(report))
            check = lambda: self.check_report(op, report)
        else:
            took = self.baselines()
            check = lambda: None
        if took is None:
            return None
        failed_before = len(self.failures)
        with self.tracer.paused():
            try:
                check()
            except Exception:  # a check that cannot read the output fails the op
                self.fail(op, traceback.format_exc(limit=3))
        return took if len(self.failures) == failed_before else None

    def truth_panel(self):
        if self._truth is None:
            pn = self.cc.panel
            cfg = self.cc.cli.load_config(str(self.cfg_path))
            p = pn.load_csv(str(self.data / "data.csv"), str(self.data / "meta.csv"))
            p = pn.impute_forward(pn.filter_complete(p, cfg.run.completeness_min))
            boundary = int(cfg.run.train_fraction * p.n_steps)
            train = pn.Panel(p.values[:, :boundary], p.time_index[:boundary], p.features,
                             p.missing_mask[:, :boundary], p.sensors)
            h = cfg.forecaster.horizon
            anchors = self.np.arange(boundary, p.n_steps - h)
            self._truth = (p, train, anchors, h)
        return self._truth

    def baselines(self) -> float | None:
        """Fit and predict both baselines over the test span's anchors."""
        md, np = self.cc.model, self.np
        with self.tracer.paused():
            p, train, anchors, h = self.truth_panel()
        gc.collect()
        with self.tracer.span("bench.baselines"):
            started = time.perf_counter()
            weekday = md.baseline_weekday_hourly(train).predict(p, anchors, h)
            current = md.baseline_current(p, anchors, h)
            took = time.perf_counter() - started
        with self.tracer.paused():
            truth = md.horizon_truth(p, anchors, h)
        for name, pred in (("current", current), ("weekday", weekday)):
            if pred.shape != truth.shape or not np.all(np.isfinite(pred)):
                self.fail("baselines", f"{name} baseline gave shape {pred.shape} or non-finite")
                return None
            self.baseline_mae[name] = [float(np.mean(np.abs(truth[:, :, j] - pred[:, :, j])))
                                       for j in range(h)]
        return took

    # -- output checks ----------------------------------------------------------

    def digest(self, name: str, path: Path) -> None:
        value = sha256_file(path)
        if self.digests.setdefault(name, value) != value:
            self.fail(name, "artifact differs between repeats of this run")

    def check_clusters(self, op: str, out: Path) -> None:
        with open(self.data / "meta.csv", newline="") as fh:
            meta = [(row["sensor_id"], float(row["milepost"]), row["kind"])
                    for row in csv.DictReader(fh)]
        homes: dict[str, list[int]] = {sid: [] for sid, _, _ in meta}
        with open(out / "clusters.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["sensor_id"] not in homes:
                    self.fail(op, f"unknown sensor {row['sensor_id']} in clusters.csv")
                    return
                if float(row["membership"]) == 1.0:
                    homes[row["sensor_id"]].append(int(row["cluster_id"]))
        bad = [sid for sid, h in homes.items() if len(h) != 1]
        if bad:
            self.fail(op, f"{len(bad)} sensors without exactly one home cluster, e.g. {bad[0]}")
            return
        ordered = sorted(meta, key=lambda m: (m[1], m[0]))
        mainline = [m for m in ordered if m[2] == "mainline"]
        for sid, pos, kind in ordered:
            if kind != "mainline":
                nearest = min(mainline, key=lambda m: abs(m[1] - pos))[0]
                if homes[sid] != homes[nearest]:
                    self.fail(op, f"ramp {sid} is not in the home cluster of {nearest}")
                    return
        self.digest("clusters.csv", out / "clusters.csv")
        self.digest("merge_log.csv", out / "merge_log.csv")

    def check_checkpoint(self, op: str, clusters: Path, checkpoint: Path) -> None:
        """The checkpoint must reload into a freshly built forecaster."""
        pn, md, cl, nn = self.cc.panel, self.cc.model, self.cc.cluster, self.cc.nn
        cfg = self.cc.cli.load_config(str(self.cfg_path))
        sensors = sorted(pn.load_sensor_meta(str(self.data / "meta.csv")),
                         key=lambda m: (m.position, m.id))
        mm = cl.clusters_from_csv(str(clusters), sensors)
        model = md.build_forecaster(mm, len(sensors), len(pn.FEATURES), cfg.forecaster,
                                    self.seed)
        try:
            nn.restore_params(model.parameters(), nn.load_params(str(checkpoint)))
        except ValueError as exc:
            self.fail(op, f"checkpoint does not reload: {exc}")
            return
        self.parameters = model.parameter_count()
        self.digest("checkpoint.txt", checkpoint)

    def check_report(self, op: str, path: Path) -> None:
        horizon = self.cc.cli.load_config(str(self.cfg_path)).forecaster.horizon
        try:
            rows = read_report(path)
        except (OSError, ValueError) as exc:
            self.fail(op, f"unreadable report: {exc}")
            return
        mae = []
        for h in range(1, horizon + 1):
            m, r = rows.get(("mae", str(h), "all")), rows.get(("rmse", str(h), "all"))
            if m is None or r is None or not (math.isfinite(m) and math.isfinite(r)
                                              and r >= m >= 0):
                self.fail(op, f"horizon {h}: MAE {m}, RMSE {r}")
                return
            mae.append(m)
        if op == "missing-eval":
            inc = rows.get(("missing_delta", "mean_increase", "all"))
            if inc is None or not math.isfinite(inc):
                self.fail(op, f"mean_increase is {inc}")
                return
        else:
            self.model_mae = mae
        self.digest(path.name, path)

    # -- driving ----------------------------------------------------------------

    def run(self, seconds: float) -> None:
        if not self.setup():
            return
        started = time.perf_counter()
        index = 0
        while True:
            self.tracer.iteration = index
            self.tracer.active = self.trace
            t0 = time.perf_counter()
            ok = self.iteration()
            self.tracer.active = False
            index += 1
            if not ok:
                return
            # start another pass only if it is expected to end within the budget
            if time.perf_counter() - started + (time.perf_counter() - t0) > seconds:
                return

    def compare_registry(self) -> None:
        """Same sources, workload and seed must give the same artifact bytes across runs."""
        registry = WORK / "digests.json"
        key = f"{source_digest()}/{self.np.__version__}/{self.name}/{self.seed}"
        known = json.loads(registry.read_text()) if registry.is_file() else {}
        previous = known.get(key, {})
        for name, value in self.digests.items():
            if previous.setdefault(name, value) != value:
                self.fail(name, "artifact differs from an earlier run with this seed")
        known[key] = previous
        tmp = registry.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, registry)

    def environment(self) -> dict:
        w = self.workload
        return {"git_sha": git_sha(), "source_sha256": source_digest(),
                "python": platform.python_version(), "numpy": self.np.__version__,
                "blas": blas_name(self.np), "blas_threads": int(BLAS_THREADS),
                "nproc": len(os.sched_getaffinity(0)),
                "workload": {"name": self.name, **asdict(w), "steps": w.days * 96,
                             "epochs": EPOCHS, "setup_repeats": SETUP_REPEATS},
                "forecaster_parameters": self.parameters}

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        med = statistics.median
        return {
            "setup_s": (med(self.setup_times), "s"),
            "pipeline_s": (med(sum(t.values()) for t in self.op_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        tr = self.tracer
        per_iteration = [self._layer_values(i) for i in range(len(self.op_times))]
        out = {name: (statistics.median(v[name][0] for v in per_iteration),
                      per_iteration[0][name][1]) for name in per_iteration[0]}
        for label, span in (("model.forward_train", "model.forward_train"),
                            ("model.forward_infer", "model.forward_infer"),
                            ("nn.backward", "nn.backward")):
            samples = tr.durations(span)
            p50, tail, pct = tail_stats(samples)
            out[f"{label}.batch_p50_ms"] = (p50 * 1000.0, "ms")
            out[f"{label}.batch_tail_ms"] = (tail * 1000.0, "ms")
            out[f"{label}.batch_tail_pct"] = (pct, "%")
            out[f"{label}.batch_samples"] = (float(len(samples)), "count")
        return out

    def _layer_values(self, it: int) -> dict[str, tuple[float, str]]:
        summary, counts, samples = self.tracer.summary(it), self.tracer.counts[it], \
            self.tracer.samples[it]

        def total(*names):
            return (sum(summary.get(n, {}).get("total_s", 0.0) for n in names), "s")

        def own(name):
            return (summary.get(name, {}).get("self_s", 0.0), "s")

        def count(name, unit="count"):
            return (counts.get(name, 0.0), unit)

        def sampled(name, pick, unit):
            values = samples.get(name, [])
            return (pick(values) if values else 0.0, unit)

        values = {
            "panel.load_csv_s": total("panel.load_csv"),
            "panel.rows_parsed": count("panel.rows_parsed"),
            "panel.impute_forward_s": total("panel.impute_forward"),
            "panel.scale_s": total("panel.fit_scale", "panel.apply_scale"),
            "panel.sensors_dropped": count("panel.sensors_dropped"),
            "decompose.decompose_panel_s": total("decompose.decompose_panel"),
            "decompose.decompose_panel_calls": count("decompose.decompose_panel_calls"),
            "decompose.decompose_panel_distinct": count("decompose.decompose_panel_distinct"),
            "dtw.rolling_dtw_matrix_s": total("dtw.rolling_dtw_matrix"),
            "dtw.pairs": count("dtw.pairs"),
            "dtw.windows_active": count("dtw.windows_active"),
            "dtw.windows_total": count("dtw.windows_total"),
            "dtw.dp_cells": count("dtw.dp_cells"),
            "cluster.fhc_s": total("cluster.fhc"),
            "cluster.merges": count("cluster.merges"),
            "cluster.candidates_scanned": count("cluster.candidates_scanned"),
            "cluster.attach_ramps_s": total("cluster.attach_ramps"),
            "cluster.clusters_from_csv_s": total("cluster.clusters_from_csv"),
            "model.train_s": total("model.train"),
            "model.epoch_s": sampled("model.epoch_s", statistics.median, "s"),
            "model.evaluate_mse_s": total("model.evaluate_mse"),
            "model.pretrain_dae_s": total("model.pretrain_dae"),
            "model.forward_train_s": total("model.forward_train"),
            "model.forward_infer_s": total("model.forward_infer"),
            "model.predict_s": total("model.predict"),
            "model.make_windows_s": total("model.make_windows"),
            "model.windows_mib": sampled("model.windows_mib", max, "MiB"),
            "model.baseline_weekday_s": total("model.baseline_weekday"),
            "model.baseline_current_s": total("model.baseline_current"),
            "model.parameters": sampled("model.parameters", max, "count"),
        }
        for layer in ("multikernel_conv", "cluster_conv2", "grid_projection", "lstm1", "lstm2",
                      "seasonal_head", "dae_heads", "dae_target"):
            values[f"model.fwd.{layer}_s"] = total(f"model.fwd.{layer}")
        values.update({
            "nn.convlstm_step_s": total("nn.convlstm_step"),
            "nn.conv2d_s": total("nn.conv2d"),
            "nn.conv2d_calls": count("nn.conv2d_calls"),
            "nn.conv2d_gflop": count("nn.conv2d_gflop", "GFLOP"),
            "nn.backward_s": total("nn.backward"),
            "nn.adam_step_s": total("nn.adam_step"),
            "nn.save_params_s": total("nn.save_params"),
            "nn.load_params_s": total("nn.load_params"),
            "nn.checkpoint_bytes": count("nn.checkpoint_bytes", "B"),
            "evaluation.inject_missing_s": total("evaluation.inject_missing"),
            "evaluation.cells_masked": count("evaluation.cells_masked"),
            "evaluation.score_s": total("evaluation.score"),
        })
        for op in ("cluster", "train", "eval", "missing-eval"):
            values[f"cli.{op}_s"] = total(f"cli.{op}")
            values[f"cli.{op}.self_s"] = own(f"cli.{op}")
        values["bench.baselines_s"] = total("bench.baselines")
        values["evaluation.mae_h1"] = (self.model_mae[0] if self.model_mae else 0.0, "flow")
        values["evaluation.mae_h4"] = (self.model_mae[3] if len(self.model_mae) > 3 else 0.0, "flow")
        values["trace.pipeline_s"] = (sum(self.op_times[it].values()), "s")
        values["trace.spans"] = (float(sum(row["calls"] for row in summary.values())), "count")
        return values

    # -- reporting ----------------------------------------------------------------

    def print_details(self) -> None:
        print(f"workload {self.name} seed {self.seed} trace {int(self.trace)}")
        print("environment " + json.dumps(self.environment(), sort_keys=True))
        print("setup_s " + " ".join(f"{t:.4f}" for t in self.setup_times))
        for i, times in enumerate(self.op_times):
            print(f"pass {i}: " + " ".join(f"{op}={t:.4f}s" for op, t in times.items()))
        print("artifact sha256 " + json.dumps(self.digests, sort_keys=True))
        if self.model_mae:
            rows = [("model", self.model_mae), *sorted(self.baseline_mae.items())]
            print(f"{'MAE (flow)':<12}" + "".join(f"{'h' + str(j + 1):>10}"
                                                 for j in range(len(self.model_mae))))
            for name, values in rows:
                print(f"{name:<12}" + "".join(f"{v:>10.3f}" for v in values))
        if self.instrumentation is not None and self.instrumentation.missing:
            print("not instrumented (absent): " + ", ".join(self.instrumentation.missing))
        if self.trace and self.op_times:
            print(f"{'span':<36}{'calls':>8}{'total_s':>11}{'self_s':>11}   (pass 0)")
            for name, row in sorted(self.tracer.summary(0).items(),
                                    key=lambda kv: -kv[1]["total_s"]):
                print(f"{name:<36}{row['calls']:>8}{row['total_s']:>11.4f}"
                      f"{row['self_s']:>11.4f}")
        for failure in self.failures:
            print("FAILED " + failure.replace("\n", " | "))

    def write_trace(self) -> None:
        out = WORK / "traces" / f"{self.name}-seed{self.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.tracer.to_json()))
        print(f"spans written to {out.relative_to(ROOT)}")


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cc = _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    bench = Bench(cc, args.workload, args.seed, bool(args.trace))
    try:
        bench.run(args.seconds)
        if bench.op_times:
            bench.compare_registry()
    finally:
        if bench.instrumentation is not None:
            bench.instrumentation.undo()
        shutil.rmtree(bench.dir, ignore_errors=True)
    bench.print_details()
    if bench.trace and bench.op_times:
        bench.write_trace()
    if not bench.op_times:
        print("perfbench: no pass completed: " + "; ".join(bench.failures), file=sys.stderr)
        return 1
    metrics = bench.per_layer() if bench.trace else bench.end_to_end()
    expected = expected_metrics(bench.trace)
    if set(metrics) != set(expected) or any(metrics[k][1] != expected[k] for k in expected):
        print(f"perfbench: metrics disagree with BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    failed = len(bench.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": min(failed, bench.attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
