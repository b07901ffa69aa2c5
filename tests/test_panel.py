import numpy as np
import pytest

from corridorcast import panel as pn
from corridorcast.errors import (
    EmptyPanelError,
    EmptySeriesError,
    FormatError,
    UnknownSensorError,
)


def write_fixture(tmp_path, rows, meta_rows=None):
    data = tmp_path / "data.csv"
    meta = tmp_path / "meta.csv"
    data.write_text("sensor_id,timestamp,flow,occupancy,speed\n"
                    + "".join(r + "\n" for r in rows))
    if meta_rows is None:
        meta_rows = ["A,1.0,mainline", "B,2.0,mainline"]
    meta.write_text("sensor_id,milepost,kind\n" + "".join(r + "\n" for r in meta_rows))
    return str(data), str(meta)


COMPLETE_ROWS = [
    "A,2016-01-04T00:00:00,10,1,60",
    "A,2016-01-04T00:05:00,11,1.5,61",
    "A,2016-01-04T00:10:00,12,2,62",
    "B,2016-01-04T00:00:00,20,3,55",
    "B,2016-01-04T00:05:00,21,3.5,56",
    "B,2016-01-04T00:10:00,22,4,57",
]


def test_load_complete_file(tmp_path):
    p = pn.load_csv(*write_fixture(tmp_path, COMPLETE_ROWS))
    assert p.values.shape == (2, 3, 3)
    assert p.missing_mask.all()
    assert p.sensor_ids() == ["A", "B"]
    assert p.values[0, 0, 0] == 10 and p.values[1, 2, 2] == 57


def test_load_one_missing_row(tmp_path):
    rows = [r for r in COMPLETE_ROWS if not r.startswith("B,2016-01-04T00:05")]
    p = pn.load_csv(*write_fixture(tmp_path, rows))
    assert p.values.shape == (2, 3, 3)
    assert (~p.missing_mask).sum() == 3  # one row = one cell across 3 features
    assert not p.missing_mask[1, 1].any()


def test_step_inferred_five_minutes(tmp_path):
    p = pn.load_csv(*write_fixture(tmp_path, COMPLETE_ROWS))
    assert p.step_minutes == 5.0


def test_sensors_ordered_by_milepost(tmp_path):
    data, meta = write_fixture(tmp_path, COMPLETE_ROWS,
                               meta_rows=["A,5.0,mainline", "B,2.0,mainline"])
    p = pn.load_csv(data, meta)
    assert p.sensor_ids() == ["B", "A"]


def test_unknown_sensor_rejected(tmp_path):
    rows = COMPLETE_ROWS + ["Z,2016-01-04T00:00:00,1,1,1"]
    with pytest.raises(UnknownSensorError):
        pn.load_csv(*write_fixture(tmp_path, rows))


def test_non_monotone_timestamps_rejected(tmp_path):
    rows = ["A,2016-01-04T00:05:00,1,1,1", "A,2016-01-04T00:00:00,1,1,1",
            "B,2016-01-04T00:00:00,1,1,1"]
    with pytest.raises(FormatError):
        pn.load_csv(*write_fixture(tmp_path, rows))


def test_rows_interleaved_across_sensors(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    interleaved = [COMPLETE_ROWS[i] for i in (3, 0, 1, 4, 5, 2)]
    p = pn.load_csv(*write_fixture(tmp_path / "a", interleaved))
    q = pn.load_csv(*write_fixture(tmp_path / "b", COMPLETE_ROWS))
    assert np.array_equal(p.values, q.values)
    assert np.array_equal(p.missing_mask, q.missing_mask)
    assert np.array_equal(p.time_index, q.time_index)


def test_duplicated_row_rejected(tmp_path):
    rows = COMPLETE_ROWS[:5] + [COMPLETE_ROWS[4]] + COMPLETE_ROWS[5:]
    with pytest.raises(FormatError, match="'B'"):
        pn.load_csv(*write_fixture(tmp_path, rows))


def test_short_data_row_rejected(tmp_path):
    rows = COMPLETE_ROWS[:2] + ["A,2016-01-04T00:10:00,12,2"] + COMPLETE_ROWS[3:]
    with pytest.raises(FormatError, match="data line 4 has 4 fields"):
        pn.load_csv(*write_fixture(tmp_path, rows))


def test_short_metadata_row_rejected(tmp_path):
    with pytest.raises(FormatError, match="metadata line 3 has 2 fields"):
        pn.load_csv(*write_fixture(tmp_path, COMPLETE_ROWS,
                                   meta_rows=["A,1.0,mainline", "B,2.0"]))


@pytest.mark.parametrize("row, message", [
    ("A,2016-01-04T00:05:00,nan,1.5,61", "finite"),
    ("A,2016-01-04T00:05:00,11,fast,61", "bad numeric field"),
    ("A,2016-01-04 noon,11,1.5,61", "bad timestamp"),
])
def test_bad_field_rejected(tmp_path, row, message):
    rows = COMPLETE_ROWS[:1] + [row] + COMPLETE_ROWS[2:]
    with pytest.raises(FormatError, match=message):
        pn.load_csv(*write_fixture(tmp_path, rows))


def test_data_without_rows_rejected(tmp_path):
    with pytest.raises(EmptyPanelError):
        pn.load_csv(*write_fixture(tmp_path, []))


def test_single_timestamp_panel(tmp_path):
    p = pn.load_csv(*write_fixture(tmp_path, [COMPLETE_ROWS[0], COMPLETE_ROWS[3]]))
    assert p.values.shape == (2, 1, 3)
    assert p.time_index[0] == np.datetime64("2016-01-04T00:00:00", "s")


def test_off_grid_timestamp_rejected(tmp_path):
    rows = ["A,2016-01-04T00:00:00,1,1,1", "A,2016-01-04T00:05:00,1,1,1",
            "A,2016-01-04T00:12:00,1,1,1"]
    with pytest.raises(FormatError):
        pn.load_csv(*write_fixture(tmp_path, rows))


def make_panel(values, mask=None, positions=None, kinds=None, step_s=300):
    values = np.asarray(values, dtype=np.float64)
    n, t, k = values.shape
    mask = np.ones_like(values, dtype=bool) if mask is None else np.asarray(mask, bool)
    positions = positions if positions is not None else [float(i) for i in range(n)]
    kinds = kinds or [pn.SensorKind.MAINLINE] * n
    sensors = tuple(pn.SensorMeta(f"S{i}", positions[i], kinds[i]) for i in range(n))
    start = np.datetime64("2016-01-04T00:00:00", "s")
    ts = start + (np.arange(t) * step_s).astype("timedelta64[s]")
    return pn.Panel(values, ts, ("flow", "occupancy", "speed")[:k] if k <= 3
                    else tuple(f"f{i}" for i in range(k)), mask, sensors)


def test_filter_complete_keeps_all_when_observed(rng):
    p = make_panel(rng.random((3, 10, 3)))
    assert pn.filter_complete(p, 0.9).n_sensors == 3


def test_filter_complete_drops_below_threshold(rng):
    vals = rng.random((2, 10, 3))
    mask = np.ones_like(vals, dtype=bool)
    mask[1, :2] = False  # sensor 1 at 80% observed
    p = make_panel(vals, mask)
    kept = pn.filter_complete(p, 0.9)
    assert kept.sensor_ids() == ["S0"]


def test_filter_complete_is_idempotent(rng):
    vals = rng.random((4, 20, 3))
    mask = rng.random(vals.shape) > 0.07
    p = make_panel(vals, mask)
    once = pn.filter_complete(p, 0.9)
    twice = pn.filter_complete(once, 0.9)
    assert once.sensor_ids() == twice.sensor_ids()


def test_filter_complete_empty_result(rng):
    vals = rng.random((2, 10, 3))
    mask = np.zeros_like(vals, dtype=bool)
    mask[:, :5] = True
    with pytest.raises(EmptyPanelError):
        pn.filter_complete(make_panel(vals, mask), 0.9)


def test_scale_endpoints():
    vals = np.array([0.0, 5.0, 10.0]).reshape(1, 3, 1)
    p = make_panel(vals)
    s = pn.fit_scale(p, (0, 3))
    scaled = pn.apply_scale(p, s)
    assert np.allclose(scaled.values[0, :, 0], [0.0, 0.5, 1.0])


def test_scale_degenerate_constant():
    vals = np.full((1, 3, 1), 7.0)
    p = make_panel(vals)
    s = pn.fit_scale(p, (0, 3))
    assert s.degenerate[0, 0]
    scaled = pn.apply_scale(p, s)
    assert np.all(scaled.values == 0.0)
    back = pn.invert_scale(scaled, s)
    assert np.allclose(back.values, 7.0)


def test_scale_roundtrip_identity(rng):
    vals = rng.normal(size=(4, 30, 3)) * 40 + 10
    mask = rng.random(vals.shape) > 0.1
    p = make_panel(vals, mask)
    s = pn.fit_scale(p, (0, 20))
    back = pn.invert_scale(pn.apply_scale(p, s), s)
    assert np.max(np.abs(back.values[mask] - vals[mask])) < 1e-12


def test_scaled_training_cells_in_unit_interval(rng):
    vals = rng.normal(size=(3, 25, 3)) * 15
    p = make_panel(vals)
    s = pn.fit_scale(p, (0, 20))
    scaled = pn.apply_scale(p, s)
    train = scaled.values[:, :20, :]
    assert train.min() >= -1e-12 and train.max() <= 1.0 + 1e-12


def test_impute_forward_fills_gap():
    vals = np.array([1.0, 0.0, 3.0]).reshape(1, 3, 1)
    mask = np.array([True, False, True]).reshape(1, 3, 1)
    out = pn.impute_forward(make_panel(vals, mask))
    assert np.allclose(out.values[0, :, 0], [1.0, 1.0, 3.0])


def test_impute_forward_leading_gap():
    vals = np.array([0.0, 2.0]).reshape(1, 2, 1)
    mask = np.array([False, True]).reshape(1, 2, 1)
    out = pn.impute_forward(make_panel(vals, mask))
    assert np.allclose(out.values[0, :, 0], [2.0, 2.0])


def test_impute_forward_identity_when_observed(rng):
    vals = rng.random((2, 6, 3))
    p = make_panel(vals)
    assert np.array_equal(pn.impute_forward(p).values, vals)


def test_impute_forward_empty_series():
    vals = np.zeros((1, 4, 1))
    mask = np.zeros_like(vals, dtype=bool)
    with pytest.raises(EmptySeriesError):
        pn.impute_forward(make_panel(vals, mask))


def test_load_filter_scale_invert_identity(tmp_path, rng):
    p = pn.load_csv(*write_fixture(tmp_path, COMPLETE_ROWS))
    p = pn.filter_complete(p, 0.9)
    s = pn.fit_scale(p, (0, p.n_steps))
    back = pn.invert_scale(pn.apply_scale(p, s), s)
    obs = p.missing_mask
    assert np.max(np.abs(back.values[obs] - p.values[obs])) < 1e-12


def test_neighbor_pairs_consecutive_within_radius():
    sensors = [pn.SensorMeta("a", 0.0), pn.SensorMeta("b", 0.5),
               pn.SensorMeta("c", 4.0), pn.SensorMeta("d", 4.4)]
    assert pn.neighbor_pairs(sensors, radius_miles=2.0) == [(0, 1), (2, 3)]


def test_neighbor_pairs_skip_ramps():
    sensors = [pn.SensorMeta("a", 0.0), pn.SensorMeta("r", 0.2, pn.SensorKind.ON_RAMP),
               pn.SensorMeta("b", 0.5)]
    assert pn.neighbor_pairs(sensors, radius_miles=2.0) == [(0, 2)]
