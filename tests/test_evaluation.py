import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from corridorcast import decompose as dc
from corridorcast import dtw
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import pipeline as pl
from corridorcast.errors import DataError

from test_model import CLUSTERS4, tiny_config
from test_panel import make_panel


# -- metrics -----------------------------------------------------------------


def test_metrics_zero_on_equal(rng):
    y = rng.normal(size=20)
    assert ev.mae(y, y) == 0.0
    assert ev.rmse(y, y) == 0.0


def test_metrics_unit_errors():
    assert ev.mae([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert ev.rmse([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_metrics_fixture():
    y, y_hat = [1.0, 2.0, 3.0], [2.0, 2.0, 5.0]
    assert ev.mae(y, y_hat) == pytest.approx(1.0)
    assert ev.rmse(y, y_hat) == pytest.approx(np.sqrt(5.0 / 3.0))


def test_metrics_empty_rejected():
    with pytest.raises(DataError):
        ev.mae([], [])
    with pytest.raises(DataError):
        ev.rmse([1.0], [1.0, 2.0])


def test_rmse_dominates_mae(rng):
    for _ in range(50):
        y = rng.normal(size=30)
        y_hat = rng.normal(size=30)
        assert ev.rmse(y, y_hat) >= ev.mae(y, y_hat)


# -- peak split ---------------------------------------------------------------------


def occupancy_panel(occ):
    occ = np.asarray(occ, dtype=np.float64)
    n, t = occ.shape
    values = np.zeros((n, t, 3))
    values[:, :, 1] = occ
    return make_panel(values)


def test_split_peak_all_zero():
    peak, off = ev.split_peak(occupancy_panel(np.zeros((2, 6))))
    assert peak.size == 0 and off.size == 6


def test_split_peak_all_high():
    peak, off = ev.split_peak(occupancy_panel(np.full((2, 6), 10.0)))
    assert peak.size == 6 and off.size == 0


def test_split_peak_mixed_counts():
    occ = np.array([[1.0, 9.0, 9.0, 1.0, 20.0], [1.0, 9.0, 9.0, 1.0, 20.0]])
    peak, off = ev.split_peak(occupancy_panel(occ), occupancy_threshold=8.0)
    assert peak.tolist() == [1, 2, 4]
    assert off.tolist() == [0, 3]
    assert len(set(peak) | set(off)) == 5


# -- missing-data injection ------------------------------------------------------


def week_panel(rng, sensors=4, weeks=2, step_minutes=15):
    steps = int(weeks * 7 * 24 * 60 / step_minutes)
    values = rng.random((sensors, steps, 3)) + 1.0
    return make_panel(values, step_s=step_minutes * 60)


def test_inject_missing_deterministic(rng):
    p = week_panel(rng)
    _, mask_a = ev.inject_missing(p, seed=5)
    _, mask_b = ev.inject_missing(p, seed=5)
    assert np.array_equal(mask_a, mask_b)
    _, mask_c = ev.inject_missing(p, seed=6)
    assert not np.array_equal(mask_a, mask_c)


def test_inject_missing_preserves_unmasked_cells(rng):
    p = week_panel(rng)
    out, mask = ev.inject_missing(p, seed=9)
    assert np.array_equal(out.values[~mask], p.values[~mask])
    assert out.missing_mask[~mask].all()
    assert not out.missing_mask[mask].any()
    # corrupted cells are forward-filled, not left as truth
    assert not np.array_equal(out.values[mask], p.values[mask])


def test_inject_missing_one_block_per_sensor_week(rng):
    p = week_panel(rng, sensors=3, weeks=2)
    _, mask = ev.inject_missing(p, seed=11)
    week_steps = int(7 * 24 * 60 / 15)
    for si in range(3):
        for wk in range(2):
            window = mask[si, wk * week_steps:(wk + 1) * week_steps, 0]
            runs = np.diff(np.flatnonzero(np.diff(np.concatenate(
                [[0], window.astype(int), [0]]))))
            assert window.any()
            starts = np.flatnonzero(np.diff(np.concatenate([[0], window.astype(int)])) == 1)
            assert len(starts) == 1  # exactly one contiguous block


def test_expected_missing_fraction_near_two_hours():
    frac = ev.expected_missing_fraction()
    assert frac == pytest.approx(2.0 / 168.0, rel=1e-3)


def test_inject_missing_fraction_matches_expectation(rng):
    p = week_panel(rng, sensors=25, weeks=2)
    _, mask = ev.inject_missing(p, seed=3)
    frac = mask[:, :, 0].mean()
    assert abs(frac - ev.expected_missing_fraction()) < 0.003


# -- synthetic corridor ----------------------------------------------------------


def test_fundamental_flow_zero_demand():
    cfg = ev.SynthConfig()
    assert ev.fundamental_flow(0.0, cfg.free_speed, cfg.wave_speed, cfg.max_density) == 0.0


def test_fundamental_flow_unimodal_with_apex():
    s, w, b = 70.0, 35.0, 30.0
    apex = b * w / (s + w)
    grid = np.linspace(0.0, b, 601)
    flows = ev.fundamental_flow(grid, s, w, b)
    assert abs(grid[np.argmax(flows)] - apex) < 0.06
    above = grid > apex + 1e-9
    assert np.all(np.diff(flows[above]) < 1e-9)
    assert np.max(flows) <= s * apex + 1e-9


def test_synth_shapes_and_mask():
    p = ev.synth_generate(ev.SynthConfig(), sensors=6, days=7, seed=1)
    assert p.values.shape == (6, 7 * 96, 3)
    assert p.missing_mask.all()
    assert p.step_minutes == 15.0
    assert p.features == ("flow", "occupancy", "speed")


def test_synth_deterministic():
    a = ev.synth_generate(ev.SynthConfig(), sensors=4, days=3, seed=9)
    b = ev.synth_generate(ev.SynthConfig(), sensors=4, days=3, seed=9)
    assert np.array_equal(a.values, b.values)


def test_synth_speed_near_free_at_low_occupancy():
    cfg = ev.SynthConfig(demand_base=0.5, demand_peak=0.5, noise_sd=0.0,
                         pulses_per_day=0.0, param_jitter=0.0)
    p = ev.synth_generate(cfg, sensors=3, days=2, seed=2)
    speed = p.values[:, :, 2]
    assert np.allclose(speed, cfg.free_speed, rtol=1e-9)


def test_synth_flow_respects_diagram():
    p = ev.synth_generate(ev.SynthConfig(param_jitter=0.0), sensors=4, days=4, seed=3)
    flow, occ = p.values[:, :, 0], p.values[:, :, 1]
    cfg = ev.SynthConfig()
    expected = ev.fundamental_flow(occ, cfg.free_speed, cfg.wave_speed, cfg.max_density)
    assert np.allclose(flow, expected, atol=1e-9)


def panel_rows_oracle(p, data_path):
    """The row-by-row body of the data writer in `panel_to_csv`, kept as its oracle."""
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor_id", "timestamp", "flow", "occupancy", "speed"])
        stamps = [str(ts.astype("datetime64[s]")) for ts in p.time_index]
        for si, s in enumerate(p.sensors):
            for ti, stamp in enumerate(stamps):
                if p.missing_mask[si, ti].all():
                    writer.writerow([s.id, stamp] + [repr(float(v))
                                                     for v in p.values[si, ti]])


def test_panel_to_csv_matches_row_oracle(tmp_path):
    p = ev.synth_generate(ev.SynthConfig(), sensors=3, days=2, seed=4)
    p.values[0, :4] = [[-0.0, 1e-300, 0.1 + 0.2], [1e22, 123456789.125, 2.0 / 3.0],
                       [5e-324, -1.5, 0.0], [1.0, 2.0, 3.0]]
    p.missing_mask[1, 10] = [True, False, True]  # partially observed: skipped
    p.missing_mask[2, 20:30] = False
    p.sensors = (*p.sensors[:2], dataclasses.replace(p.sensors[2], id="S,2"))  # quoted
    ev.panel_to_csv(p, str(tmp_path / "data.csv"), str(tmp_path / "meta.csv"))
    panel_rows_oracle(p, str(tmp_path / "oracle.csv"))
    written = (tmp_path / "data.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written.count(b"\n") == 1 + p.missing_mask.all(axis=2).sum()
    assert f"{p.sensors[1].id},{p.time_index[10].astype('datetime64[s]')}".encode() \
        not in written
    assert written.count(b'\r\n"S,2",') == p.missing_mask[2].all(axis=1).sum()


def test_panel_to_csv_memory_stays_bounded(tmp_path):
    # the desk corridor's data table is 4.9 MiB; writing it one block per sensor
    # peaked at 1.3 MiB, and a writer that joined the whole file, or built every
    # row as a list before writing, would go over the bound
    p = ev.synth_generate(ev.SynthConfig(), sensors=24, days=28, seed=11)
    data = tmp_path / "data.csv"
    tracemalloc.start()
    try:
        ev.panel_to_csv(p, str(data), str(tmp_path / "meta.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20 < data.stat().st_size, f"peak {peak / 2**20:.2f} MiB"


def pulse_heavy_config():
    return ev.SynthConfig(noise_sd=0.12, pulses_per_day=6.0, pulse_amplitude=12.0,
                          propagation_delay_steps=4)


def test_synth_residual_cross_correlation_peaks_at_delay():
    cfg = pulse_heavy_config()
    p = ev.synth_generate(cfg, sensors=8, days=14, seed=21)
    decomp = dc.decompose_panel(p, period=96)
    r = decomp.residual[:, :, 1]  # occupancy residuals carry the pulses
    lags = range(-8, 9)
    best = []
    for i in range(4):
        up, down = r[i], r[i + 1]
        scores = []
        for lag in lags:
            if lag >= 0:
                a, b = up[:len(up) - lag], down[lag:]
            else:
                a, b = up[-lag:], down[:len(down) + lag]
            scores.append(float(np.mean(a * b)))
        best.append(list(lags)[int(np.argmax(scores))])
    assert np.median(best) == cfg.propagation_delay_steps


def test_synth_adjacent_residuals_more_similar_than_distant():
    cfg = pulse_heavy_config()
    p = ev.synth_generate(cfg, sensors=10, days=10, seed=4)
    decomp = dc.decompose_panel(p, period=96)
    r = decomp.residual[:, :, 0]
    window = slice(0, 96 * 4)
    adjacent = [dtw.dtw_distance(r[i, window], r[i + 1, window]) for i in range(9)]
    distant = [dtw.dtw_distance(r[i, window], r[i + 5, window]) for i in range(5)]
    assert np.mean(adjacent) < np.mean(distant)


# -- reports -------------------------------------------------------------------------


def test_rmse_at_least_mae(rng):
    # RMSE >= MAE >= 0 in exact arithmetic; the two rounded means may differ by ulps
    for size in rng.integers(1, 200, size=300):
        y = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3])
        # half the cases hold (nearly) equal errors, where the two means meet
        y_hat = y + rng.normal() if rng.random() < 0.5 else rng.normal(size=size)
        mae, rmse = ev.mae(y, y_hat), ev.rmse(y, y_hat)
        assert mae >= 0 and rmse >= mae * (1.0 - 1e-9), (mae, rmse)


def test_rmse_may_round_one_ulp_below_mae():
    # 39 equal errors: the rounded RMSE comes out one ulp below the rounded MAE
    errors = np.full(39, 22.026179605606323)
    mae, rmse = ev.mae(errors, np.zeros(39)), ev.rmse(errors, np.zeros(39))
    assert rmse == np.nextafter(mae, 0.0)
    assert rmse >= mae * (1.0 - 1e-9)


def test_report_csv_and_table(tmp_path, capsys):
    report = ev.EvalReport("model", 7, "cafe", [
        ("mae", "1", "all", 1.0), ("rmse", "1", "all", 1.2), ("mae", "all", "peak", 2.0),
        ("missing_delta", "h1_increase", "all", 0.25)])
    path = str(tmp_path / "report.csv")
    report.to_csv(path)
    with open(path, newline="") as fh:
        assert fh.read() == ("model_id,seed,config_hash\r\nmodel,7,cafe\r\n"
                             "metric,horizon,regime,value\r\nmae,1,all,1.0\r\n"
                             "rmse,1,all,1.2\r\nmae,all,peak,2.0\r\n"
                             "missing_delta,h1_increase,all,0.25\r\n")
    report.print_table()
    out = capsys.readouterr().out
    assert "model=model" in out and "peak" in out


def test_report_table_sizes_the_horizon_column_from_the_longest_key(capsys):
    # missing-eval's keys, as the desk chain at seed 7 prints them
    ev.EvalReport("checkpoint.txt", 7, "cafe", [
        ("mae", "1", "all", 52.6939), ("rmse", "1", "all", 81.8556),
        ("missing_delta", "h1_clean", "all", 52.4408),
        ("missing_delta", "h1_increase", "all", 0.253132),
        ("missing_delta", "mean_increase", "all", 0.398915)]).print_table()
    assert capsys.readouterr().out.splitlines()[1:] == [
        "metric          horizon       regime   value",
        "mae             1             all      52.6939",
        "rmse            1             all      81.8556",
        "missing_delta   h1_clean      all      52.4408",
        "missing_delta   h1_increase   all      0.253132",
        "missing_delta   mean_increase all      0.398915"]
    # eval's keys keep the 9-character column
    ev.EvalReport("m", 1, "abc", [("mae", "1", "all", 1.0), ("rmse", "1", "all", 2.0),
                                  ("mae", "all", "peak", 3.0),
                                  ("mae", "all", "offpeak", 0.5)]).print_table()
    assert capsys.readouterr().out.splitlines()[1:] == [
        "metric          horizon  regime   value",
        "mae             1        all      1",
        "rmse            1        all      2",
        "mae             all      peak     3",
        "mae             all      offpeak  0.5"]


# -- report rows ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def untrained():
    """A 4-sensor, 8-day corridor, its scaling and an untrained forecaster."""
    run, f = pl.RunConfig(), tiny_config(horizon=3)
    p = ev.synth_generate(ev.SynthConfig(), 4, 8, seed=5)
    model = md.build_forecaster(CLUSTERS4, p.n_sensors, len(p.features), f, seed=4)
    return run, f, p, pl.fit_scaling(p, run), model


def by_horizon(pred, truth):
    """The per-horizon rows, built from the metrics one horizon at a time."""
    rows = []
    for j in range(truth.shape[2]):
        rows.append(("mae", str(j + 1), "all", ev.mae(truth[:, :, j], pred[:, :, j])))
        rows.append(("rmse", str(j + 1), "all", ev.rmse(truth[:, :, j], pred[:, :, j])))
    return rows


@pytest.mark.parametrize("peak_occupancy, regimes", [
    (8.0, ["peak", "offpeak"]), (1e9, ["offpeak"]), (-1.0, ["peak"])],
    ids=["both-regimes", "no-peak-step", "no-offpeak-step"])
def test_evaluate_rows_are_the_metrics_by_hand(untrained, peak_occupancy, regimes):
    run, f, p, scaling, model = untrained
    _, test_w = pl.windows(p, run, f, scaling)
    pred, truth = pl.score(model, p, scaling, test_w)
    expected = by_horizon(pred, truth)
    for regime, steps in zip(("peak", "offpeak"), ev.split_peak(p, peak_occupancy)):
        # the (window, horizon) pairs whose target step is in the regime
        sel = np.zeros(truth.shape, dtype=bool)
        for i, anchor in enumerate(test_w.t_index):
            for j in range(f.horizon):
                sel[i, :, j] = anchor + j + 1 in steps
        if sel.any():  # a regime with no target step has no row
            expected.append(("mae", "all", regime, ev.mae(truth[sel], pred[sel])))
    assert [regime for _, horizon, regime, _ in expected if horizon == "all"] == regimes
    assert pl.evaluate(model, p, scaling, test_w, peak_occupancy) == expected


def test_evaluate_missing_rows_are_the_metrics_by_hand(untrained):
    run, f, p, scaling, model = untrained
    pred, truth = pl.score(model, p, scaling, pl.windows(p, run, f, scaling)[1])
    corrupted, _ = ev.inject_missing(p, 9)
    expected = by_horizon(*pl.score(model, p, scaling, pl.windows(corrupted, run, f, scaling)[1]))
    increases = []
    for j in range(f.horizon):
        clean = ev.mae(truth[:, :, j], pred[:, :, j])
        increases.append(expected[2 * j][3] - clean)
        expected.append(("missing_delta", f"h{j + 1}_clean", "all", clean))
        expected.append(("missing_delta", f"h{j + 1}_increase", "all", increases[j]))
    expected.append(("missing_delta", "mean_increase", "all", float(np.mean(increases))))
    assert all(increases)  # the outages move every horizon's error
    assert pl.evaluate_missing(model, p, run, f, scaling, 9) == expected
