import csv
import os
import tracemalloc
from array import array

import numpy as np
import pytest

from corridorcast import files
from corridorcast import panel as pn
from corridorcast.errors import (
    DataError,
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
    assert [s.id for s in p.sensors] == ["A", "B"]
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
    assert [s.id for s in p.sensors] == ["B", "A"]


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
    with pytest.raises(FormatError, match="metadata file line 3 has 2 fields"):
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


def load_csv_rows_oracle(path, meta_path):
    """The row-by-row loader that `load_csv` replaced, kept as its reference.

    It reads the data file with `csv.reader`: a row may hold more than five
    fields (the extra ones are dropped) and a quoted field may hold commas
    and line breaks, which `load_csv` rejects; on every file that `load_csv`
    accepts the two must agree bit for bit.
    """
    metas = sorted(pn.load_sensor_meta(meta_path), key=lambda m: (m.position, m.id))
    known = {m.id: i for i, m in enumerate(metas)}

    sensor_of = {}
    epoch_of = {}
    sensors, epochs, observed = array("q"), array("q"), array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != pn.DATA_HEADER:
            raise FormatError(f"data header must be {','.join(pn.DATA_HEADER)}, "
                              f"got {','.join(header or [])!r}")
        for row in reader:
            if not row:
                continue
            if len(row) < len(pn.DATA_HEADER):
                raise files.short_row(row, pn.DATA_HEADER, "data", reader.line_num)
            si = sensor_of.get(row[0])
            if si is None:
                sid = row[0].strip()
                if sid not in known:
                    raise UnknownSensorError(f"data references unknown sensor {sid!r}")
                si = sensor_of[row[0]] = known[sid]
            ts = epoch_of.get(row[1])
            if ts is None:
                ts = epoch_of[row[1]] = int(pn._parse_timestamp(row[1].strip()).astype(np.int64))
            try:
                flow, occupancy, speed = float(row[2]), float(row[3]), float(row[4])
            except ValueError as exc:
                raise FormatError(f"bad numeric field in row {row!r}: {exc}") from None
            sensors.append(si)
            epochs.append(ts)
            observed.append(flow)
            observed.append(occupancy)
            observed.append(speed)

    sensor_idx = np.frombuffer(sensors, dtype=np.int64)
    epoch_s = np.frombuffer(epochs, dtype=np.int64)
    order = np.argsort(sensor_idx, kind="stable")
    s_sorted, e_sorted = sensor_idx[order], epoch_s[order]
    regress = (s_sorted[1:] == s_sorted[:-1]) & (e_sorted[1:] <= e_sorted[:-1])
    if regress.any():
        sid = metas[s_sorted[1:][regress][0]].id
        raise FormatError(f"timestamps for sensor {sid!r} are not strictly increasing")
    if epoch_s.size == 0:
        raise EmptyPanelError("data file contains no rows")

    times = np.unique(epoch_s)
    lo, step = int(times[0]), 1
    if len(times) > 1:
        step = int(np.diff(times).min())
        if np.any((times - lo) % step != 0):
            raise FormatError("timestamps do not sit on a fixed-step grid")
    time_index = (lo + step * np.arange((int(times[-1]) - lo) // step + 1)).astype("datetime64[s]")

    n, t, k = len(metas), len(time_index), len(pn.FEATURES)
    values = np.zeros((n, t, k))
    mask = np.zeros((n, t, k), dtype=bool)
    slots = (epoch_s - lo) // step
    readings = np.frombuffer(observed, dtype=np.float64).reshape(-1, k)
    values[sensor_idx, slots] = readings
    mask[sensor_idx, slots] = True
    if not np.all(np.isfinite(readings)):
        raise FormatError("observed values must be finite")
    return pn.Panel(values, time_index, pn.FEATURES, mask, tuple(metas))


def write_raw(tmp_path, body: str, meta_rows=("A,1.0,mainline", "B,2.0,mainline",
                                              "C,0.5,on_ramp")):
    """A data file holding exactly `body` (any line endings) and its metadata."""
    data = tmp_path / "raw.csv"
    meta = tmp_path / "raw_meta.csv"
    data.write_bytes(body.encode())
    meta.write_text("sensor_id,milepost,kind\n" + "".join(r + "\n" for r in meta_rows))
    return str(data), str(meta)


HEADER = "sensor_id,timestamp,flow,occupancy,speed"

# Valid files: interleaved sensors, missing rows, blank lines (also first and
# last), CRLF and bare CR line endings, quoted ids, timestamps and numbers,
# whitespace around fields, and values whose bits a sloppy parse would change.
GOOD_BODIES = {
    "interleaved-missing": "\n".join([
        HEADER,
        "B,2016-01-04T00:05:00,21,3.5,56",
        "A,2016-01-04T00:00:00,10,1,60",
        "C,2016-01-04T00:00:00,1,0.5,30",
        "A,2016-01-04T00:10:00,12,2,62",
        "B,2016-01-04T00:15:00,22,4,57",
        "C,2016-01-04T00:15:00,2,0.25,31",
    ]) + "\n",
    "blank-lines-crlf": "\r\n".join([
        HEADER, "", "",
        "A,2016-01-04T00:00:00,10,1,60", "",
        "B,2016-01-04T00:00:00,20,3,55",
        "A,2016-01-04T00:05:00,11,1.5,61", "", "",
        "B,2016-01-04T00:05:00,21,3.5,56", "",
    ]),
    "bare-cr-no-final-newline": "\r".join([
        HEADER,
        "A,2016-01-04T00:00:00,10,1,60",
        "A,2016-01-04T00:05:00,11,1.5,61",
        "B,2016-01-04T00:05:00,21,3.5,56",
    ]),
    "mixed-endings": (HEADER + "\r\n" + "A,2016-01-04T00:00:00,10,1,60\n"
                      + "B,2016-01-04T00:00:00,20,3,55\r"
                      + "A,2016-01-04T00:05:00,11,1.5,61\r\n\r\n"
                      + "B,2016-01-04T00:05:00,21,3.5,56\n"),
    "quotes-and-spaces": "\n".join([
        " sensor_id , timestamp,flow , occupancy,speed ",
        '"A",2016-01-04T00:00:00,10,1,60',
        ' A ,"2016-01-04T00:05:00", 11 ,"1.5",61\t',
        '"B ",  2016-01-04T00:00:00 ,"20", 3 ,55',
        'B,2016-01-04T00:05:00,"21",3.5," 56 "',
        '"A",2016-01-04T00:10:00,1_2,2,62',
    ]) + "\n",
    "unicode-separators": "\n".join([
        HEADER,
        "A\x85,2016-01-04T00:00:00,\x0c10,1,60\x0b",
        '"B"\u2028,2016-01-04T00:00:00,20,3,55',
        "A,2016-01-04T00:05:00\u2029,11,1.5\x0c,61",
    ]) + "\n",
    "extreme-values": "\n".join([
        HEADER,
        "A,2016-01-04T00:00:00,-0.0,5e-324,1e22",
        "A,2016-01-04T00:05:00,0.1,-1e-320,1.7976931348623157e308",
        "B,2016-01-04T00:00:00,0.30000000000000004,2.2250738585072014e-308,-0.0",
        "B,2016-01-04T00:05:00,123456789.12345678,1e-7,4.9406564584124654e-324",
    ]) + "\n",
}


def assert_same_panel(p, q):
    assert p.values.tobytes() == q.values.tobytes()
    assert p.missing_mask.tobytes() == q.missing_mask.tobytes()
    assert p.time_index.dtype == q.time_index.dtype
    assert p.time_index.tobytes() == q.time_index.tobytes()
    assert p.sensors == q.sensors


@pytest.mark.parametrize("block", [1, 7, 40, pn.BLOCK_CHARS])
@pytest.mark.parametrize("name", sorted(GOOD_BODIES))
def test_load_csv_equals_row_oracle(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(pn, "BLOCK_CHARS", block)
    paths = write_raw(tmp_path, GOOD_BODIES[name])
    assert_same_panel(pn.load_csv(*paths), load_csv_rows_oracle(*paths))


def test_load_csv_equals_row_oracle_on_a_synthetic_corridor(tmp_path, monkeypatch):
    from corridorcast import evaluation as ev
    data, meta = str(tmp_path / "data.csv"), str(tmp_path / "meta.csv")
    p = ev.synth_generate(ev.SynthConfig(), sensors=5, days=2, seed=3)
    p.missing_mask[1, 10:30] = False
    ev.panel_to_csv(p, data, meta)
    reference = load_csv_rows_oracle(data, meta)
    for block in (97, 4096, pn.BLOCK_CHARS):
        monkeypatch.setattr(pn, "BLOCK_CHARS", block)
        remove_panel_file(data)  # parse at this block size, not read the last one's file
        assert_same_panel(pn.load_csv(data, meta), reference)


# Bad files on which the row loop and the block parse must raise the same
# error: class and message, with physical line numbers after blank lines.
BAD_BODIES = {
    "bad-header": "sensor,timestamp,flow,occupancy,speed\nA,2016-01-04T00:00:00,1,1,1\n",
    "empty-file": "",
    "header-only": HEADER + "\r\n\r\n",
    "short-row-after-blanks": "\r\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1,1", "", "", "A,2016-01-04T00:05:00,1,1",
        "Z,2016-01-04T00:10:00,1,1,1"]),
    "short-row-bare-cr": "\r".join([
        HEADER, "", "A,2016-01-04T00:00:00,1,1,1", "B,2016-01-04T00:05:00"]),
    "blank-looking-row": HEADER + "\nA,2016-01-04T00:00:00,1,1,1\n   \n",
    "short-then-long-row": "\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1", "A,2016-01-04T00:05:00,1,1,1,1"]) + "\n",
    "quoted-comma-short": HEADER + '\n"A,x",2016-01-04T00:00:00,1,1\n',
    "unknown-sensor-first": "\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1,1", "Z,2016-01-04T00:05:00,1,1,1",
        "A,2016-01-04T00:05:00,fast,1,1"]) + "\n",
    "bad-number-first": "\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1,1", "A,2016-01-04T00:05:00,1,slow,1",
        "Z,2016-01-04T00:10:00,1,1,1", "A,2016-01-04 noon,1,1,1"]) + "\n",
    "bad-timestamp-first": "\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1,1", "A,2016-01-04 noon,x,1,1",
        "Z,2016-01-04T00:10:00,1,1,1"]) + "\n",
    "quoted-bad-number": HEADER + '\nA,2016-01-04T00:00:00,"1 2",1,1\n',
    "number-quoted-after-space": HEADER + '\nA,2016-01-04T00:00:00, "1",1,1\n',
    "nan": HEADER + "\nA,2016-01-04T00:00:00,nan,1,1\nA,2016-01-04T00:05:00,1,1,1\n",
    "inf": HEADER + "\nA,2016-01-04T00:00:00,1,-inf,1\n",
    "duplicate": HEADER + "\nB,2016-01-04T00:00:00,1,1,1\nB,2016-01-04T00:00:00,1,1,1\n",
    "non-monotone": "\n".join([
        HEADER, "A,2016-01-04T00:05:00,1,1,1", "B,2016-01-04T00:00:00,1,1,1",
        "A,2016-01-04T00:00:00,1,1,1"]) + "\n",
    "off-grid": "\n".join([
        HEADER, "A,2016-01-04T00:00:00,1,1,1", "A,2016-01-04T00:05:00,1,1,1",
        "A,2016-01-04T00:12:00,1,1,1"]) + "\n",
}


@pytest.mark.parametrize("block", [1, 7, pn.BLOCK_CHARS])
@pytest.mark.parametrize("name", sorted(BAD_BODIES))
def test_load_csv_errors_match_row_oracle(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(pn, "BLOCK_CHARS", block)
    paths = write_raw(tmp_path, BAD_BODIES[name])
    with pytest.raises(DataError) as expected:
        load_csv_rows_oracle(*paths)
    with pytest.raises(DataError) as got:
        pn.load_csv(*paths)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("line, fields, shown", [
    ("A,2016-01-04T00:05:00,11,1.5,61,extra", 6, "'extra'"),
    ("A,2016-01-04T00:05:00,11,1.5,61,", 6, "''"),
    ('"A,B",2016-01-04T00:05:00,11,1.5,61', 6, "'B\"'"),
])
def test_rows_with_extra_fields_rejected(tmp_path, line, fields, shown):
    body = "\r\n".join([HEADER, "A,2016-01-04T00:00:00,10,1,60", "", line]) + "\r\n"
    with pytest.raises(FormatError) as err:
        pn.load_csv(*write_raw(tmp_path, body))
    message = str(err.value)
    assert message.startswith(f"data line 4 has {fields} fields, expected 5 "
                              f"(sensor_id,timestamp,flow,occupancy,speed): ")
    assert shown in message and "\n" not in message


def test_quote_left_open_at_line_end_rejected(tmp_path):
    body = HEADER + '\nA,2016-01-04T00:00:00,10,1,"60\nA,2016-01-04T00:05:00,11,1,61\n'
    with pytest.raises(FormatError, match="data line 2 ends inside a quoted field"):
        pn.load_csv(*write_raw(tmp_path, body))


def test_load_csv_memory_stays_within_the_row_loop(tmp_path, rng):
    from corridorcast import evaluation as ev
    data, meta = str(tmp_path / "data.csv"), str(tmp_path / "meta.csv")
    ev.panel_to_csv(make_panel(rng.gamma(2.0, 20.0, (18, 2784, 3))), data, meta)  # 50,112 rows

    def peak(load):
        tracemalloc.start()
        try:
            load(data, meta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pn.load_csv(data, meta)  # the first load imports modules; count neither loader's share
    remove_panel_file(data)  # measure a parse, not a read of the first load's panel file
    assert peak(pn.load_csv) <= 1.1 * peak(load_csv_rows_oracle)


# -- the panel file ---------------------------------------------------------------


def remove_panel_file(data):
    if os.path.exists(data + pn.PANEL_SUFFIX):
        os.remove(data + pn.PANEL_SUFFIX)


def forbid_parse(monkeypatch):
    """Make any parse of a data file fail the test, so a load must read the panel file."""
    def parse(*args):
        raise AssertionError("load_csv parsed the data file")
    monkeypatch.setattr(pn, "_read_rows", parse)


def corridor_files(tmp_path):
    from corridorcast import evaluation as ev
    data, meta = str(tmp_path / "data.csv"), str(tmp_path / "meta.csv")
    p = ev.synth_generate(ev.SynthConfig(), sensors=4, days=2, seed=5)
    p.missing_mask[2, 7:19] = False
    ev.panel_to_csv(p, data, meta)
    return data, meta


def test_panel_file_read_equals_parse(tmp_path, monkeypatch):
    data, meta = corridor_files(tmp_path)
    parsed = pn.load_csv(data, meta)
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "data.csv.panel.npz", "meta.csv"]
    forbid_parse(monkeypatch)
    assert_same_panel(pn.load_csv(data, meta), parsed)
    assert_same_panel(parsed, load_csv_rows_oracle(data, meta))


def edit_in_place(path, old: bytes, new: bytes):
    """Replace the first `old` in `path` by `new` of the same length, keeping
    the size and the modification time."""
    before = os.stat(path)
    with open(path, "r+b") as fh:
        body = fh.read()
        assert len(old) == len(new) and old in body
        fh.seek(body.index(old))
        fh.write(new)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


@pytest.mark.parametrize("edited", ["data", "meta"])
def test_one_byte_edit_is_parsed_again(tmp_path, edited):
    data, meta = corridor_files(tmp_path)
    before = pn.load_csv(data, meta)
    if edited == "data":  # the first flow reading changes its leading digit
        row = open(data, "rb").read().split(b"\n")[1]
        field = row.split(b",")[2]
        digit = b"%d" % ((int(field[:1]) + 1) % 10)
        edit_in_place(data, row, row.replace(b"," + field + b",", b"," + digit + field[1:] + b","))
    else:  # the first sensor moves to the far end of the corridor
        edit_in_place(meta, b"\nS000,0.0,", b"\nS000,9.0,")
    after = pn.load_csv(data, meta)
    assert_same_panel(after, load_csv_rows_oracle(data, meta))
    assert after.values.tobytes() != before.values.tobytes()


@pytest.mark.parametrize("damage", ["truncated", "garbage", "other-tag", "other-shape"])
def test_damaged_panel_file_is_parsed_and_rewritten(tmp_path, monkeypatch, damage):
    data, meta = corridor_files(tmp_path)
    parsed = pn.load_csv(data, meta)
    kept = data + pn.PANEL_SUFFIX
    body = open(kept, "rb").read()
    if damage == "truncated":
        open(kept, "wb").write(body[:len(body) // 2])
    elif damage == "garbage":
        open(kept, "wb").write(b"not a panel file\n" * 64)
    else:  # right digest, but another format tag or a sensor short
        with np.load(kept) as z:
            arrays = {name: z[name] for name in z.files}
        if damage == "other-tag":
            arrays["format"] = "corridorcast-panel-v0"
        else:
            arrays["values"], arrays["mask"] = arrays["values"][1:], arrays["mask"][1:]
        with open(kept, "wb") as fh:
            np.savez(fh, **arrays)
    assert_same_panel(pn.load_csv(data, meta), parsed)
    assert open(kept, "rb").read() == body
    forbid_parse(monkeypatch)
    assert_same_panel(pn.load_csv(data, meta), parsed)


@pytest.mark.parametrize("failing", ["open", "write_array_header_1_0", "replace"])
def test_failed_panel_file_write_is_ignored(tmp_path, monkeypatch, failing):
    data, meta = corridor_files(tmp_path)
    reference = load_csv_rows_oracle(data, meta)

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    def open_reads_only(file, mode="r", *args, **kwargs):
        return (fail if "w" in mode else open)(file, mode, *args, **kwargs)
    if failing == "open":  # a builtin, so set on the module that calls it
        monkeypatch.setattr(files, "open", open_reads_only, raising=False)
    else:
        monkeypatch.setattr({"write_array_header_1_0": np.lib.format,
                             "replace": files.os}[failing], failing, fail)
    assert_same_panel(pn.load_csv(data, meta), reference)
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "meta.csv"]


def test_bad_data_file_raises_every_time_and_is_not_kept(tmp_path):
    data, meta = write_raw(tmp_path, BAD_BODIES["off-grid"])
    errors = []
    for _ in range(2):
        with pytest.raises(FormatError) as err:
            pn.load_csv(data, meta)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "timestamps do not sit on a fixed-step grid"
    assert sorted(os.listdir(tmp_path)) == ["raw.csv", "raw_meta.csv"]


def invert_scale(p, s):
    """Undo `pn.apply_scale` on a whole panel: the oracle for its round trip."""
    span = np.where(s.degenerate, 1.0, s.hi - s.lo)
    raw = p.values * span[:, None, :] + s.lo[:, None, :]
    return p.with_values(np.where(s.degenerate[:, None, :], s.lo[:, None, :], raw))


def invert_scale_values(values, s, feature):
    """Undo scaling for one feature on an arbitrary (n, ...) value block."""
    lo = s.lo[:, feature]
    hi = s.hi[:, feature]
    degen = s.degenerate[:, feature]
    span = np.where(degen, 1.0, hi - lo)
    shape = (values.shape[0],) + (1,) * (values.ndim - 1)
    out = values * span.reshape(shape) + lo.reshape(shape)
    return np.where(degen.reshape(shape), lo.reshape(shape), out)


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


def test_filter_complete_keeping_every_sensor_returns_the_panel(rng):
    p = make_panel(rng.random((3, 10, 3)))
    assert pn.filter_complete(p, 0.9) is p


def test_filter_complete_drops_below_threshold(rng):
    vals = rng.random((2, 10, 3))
    mask = np.ones_like(vals, dtype=bool)
    mask[1, :2] = False  # sensor 1 at 80% observed
    p = make_panel(vals, mask)
    kept = pn.filter_complete(p, 0.9)
    assert [s.id for s in kept.sensors] == ["S0"]


def test_filter_complete_is_idempotent(rng):
    vals = rng.random((4, 20, 3))
    mask = rng.random(vals.shape) > 0.07
    p = make_panel(vals, mask)
    once = pn.filter_complete(p, 0.9)
    twice = pn.filter_complete(once, 0.9)
    assert [s.id for s in once.sensors] == [s.id for s in twice.sensors]


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
    back = invert_scale(scaled, s)
    assert np.allclose(back.values, 7.0)


def test_scale_roundtrip_identity(rng):
    vals = rng.normal(size=(4, 30, 3)) * 40 + 10
    mask = rng.random(vals.shape) > 0.1
    p = make_panel(vals, mask)
    s = pn.fit_scale(p, (0, 20))
    back = invert_scale(pn.apply_scale(p, s), s)
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


def test_impute_forward_equals_per_axis_gather(rng):
    vals = rng.normal(size=(3, 12, 3))
    mask = rng.random(vals.shape) > 0.4
    mask[0, :5, 1] = False  # leading gap
    mask[1, 3:9, :] = False  # inner gap across every feature
    mask[2, :, 2] = False
    mask[2, 11, 2] = True  # observed at the last step only
    p = make_panel(vals, mask)
    steps = np.where(mask, np.arange(12)[:, None], -1)
    np.maximum.accumulate(steps, axis=1, out=steps)
    np.maximum(steps, mask.argmax(axis=1)[:, None, :], out=steps)
    expected = np.take_along_axis(vals, steps, axis=1)
    assert pn.impute_forward(p).values.tobytes() == expected.tobytes()


def test_load_filter_scale_invert_identity(tmp_path, rng):
    p = pn.load_csv(*write_fixture(tmp_path, COMPLETE_ROWS))
    p = pn.filter_complete(p, 0.9)
    s = pn.fit_scale(p, (0, p.n_steps))
    back = invert_scale(pn.apply_scale(p, s), s)
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
