import ast
import csv
import io
import os
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from corridorcast import cluster as cl
from corridorcast import files
from corridorcast.errors import FormatError
from corridorcast.panel import SensorMeta

PACKAGE = Path(files.__file__).parent

# the only functions of the package that may write a file or move one into place,
# the one that writes CSV and the one that writes a zip archive
WRITE_SITES = {("files.py", "_published", "open"): 1, ("files.py", "_published", "os.replace"): 1,
               ("files.py", "write_table", "csv.writer"): 1,
               ("files.py", "publish_arrays", "zipfile.ZipFile"): 1}


def _write_sites(tree: ast.AST, module: str):
    """(module, enclosing function, callee) of each write-mode `open`,
    `os.fdopen` or `zipfile.ZipFile` and each `os.replace`, `os.rename` or
    `csv.writer` call in `tree`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                mode = next((k.value for k in child.keywords if k.arg == "mode"),
                            child.args[1] if len(child.args) > 1 else ast.Constant("r"))
                reads = isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")
                if (callee in ("open", "os.fdopen", "zipfile.ZipFile") and not reads
                        or callee in ("os.replace", "os.rename", "csv.writer")):
                    yield module, function, callee
            yield from visit(child, function)
    return list(visit(tree, None))


def test_only_publish_and_the_panel_file_write_files():
    found: dict[tuple, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for site in _write_sites(ast.parse(path.read_text(encoding="utf-8")), module):
            found[site] = found.get(site, 0) + 1
    assert found == WRITE_SITES


def test_guard_sees_a_write_outside_publish():
    tree = ast.parse("def save(p):\n    with open(p, 'w') as fh:\n        os.replace(p, p)\n"
                     "    zipfile.ZipFile(fh, 'w')\n"
                     "def load(p):\n    return open(p), open(p, mode='rb'), zipfile.ZipFile(p)\n")
    assert _write_sites(tree, "m.py") == [("m.py", "save", "open"), ("m.py", "save", "os.replace"),
                                          ("m.py", "save", "zipfile.ZipFile")]


def test_guard_sees_a_csv_writer_outside_write_table():
    tree = ast.parse("def dump(fh, rows):\n    csv.writer(fh).writerows(rows)\n")
    assert _write_sites(tree, "m.py") == [("m.py", "dump", "csv.writer")]


def test_only_read_table_builds_a_csv_reader():
    sites = [(path.name, function.name)
             for path in sorted(PACKAGE.rglob("*.py"))
             for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(function, ast.FunctionDef)
             for call in ast.walk(function)
             if isinstance(call, ast.Call) and ast.unparse(call.func) == "csv.reader"]
    assert sites == [("files.py", "read_table")]


def test_publish_renames_a_utf8_file_into_place(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with files.publish(str(path)) as fh:
        fh.write("Süd0,1\r\n")
        assert path.read_text() == "old\n"  # readers see the old file until the rename
    assert path.read_bytes() == "Süd0,1\r\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.csv"]


def test_publish_failure_keeps_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(KeyError):
        with files.publish(str(path)) as fh:
            fh.write("new\n")
            raise KeyError("the body failed")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_publish_failed_rename_names_the_path(tmp_path):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        with files.publish(str(path)) as fh:
            fh.write("new\n")
    assert caught.value.filename == str(path)
    assert os.listdir(tmp_path) == ["taken"] and not os.listdir(path)


def test_open_utf8_names_the_file_that_does_not_decode(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(FormatError, match=f"input {path} is not UTF-8 text"):
        with files.open_utf8(str(path), "input") as fh:
            fh.read()


HEADER = ["sensor_id", "value"]


def test_write_table_ends_lines_in_crlf_and_quotes_minimally(tmp_path):
    path = str(tmp_path / "t.csv")
    files.write_table(path, HEADER, [(["A", 'B,"north"'], [1, 2])])
    assert open(path, "rb").read() == b'sensor_id,value\r\nA,1\r\n"B,""north""",2\r\n'
    assert list(files.read_table(path, "table", HEADER)) == [(2, ["A", "1"]),
                                                            (3, ['B,"north"', "2"])]


def test_write_table_writes_floats_as_their_repr(tmp_path):
    path = tmp_path / "t.csv"
    third = 1 / 3
    files.write_table(str(path), HEADER, [(["py"], [third]), (["big"], [1e22]),
                                          (["tiny"], [1e-20])])
    assert path.read_text().splitlines()[1:] == [f"py,{third!r}", "big,1e+22", "tiny,1e-20"]


def csv_oracle(path, header, blocks):
    """`write_table` as `csv.writer` writes it a row at a time, kept as its oracle."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            writer.writerows(zip(*block))


STRINGS = ["plain", "a,b", 'say "hi"', '"', ",", "cr\rx", "lf\nx", "crlf\r\n", "", " lead",
           "tab\tx", "Süd", "{}"]
FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, float("nan"), float("inf"), float("-inf"),
          0.1 + 0.2, 1 / 3, 1e22, 123456789.125, -1.5]
ORACLE_TABLES = {
    "strings": (["text", "n"], [(STRINGS, list(range(len(STRINGS))))]),
    "one empty string": (["text"], [([""],)]),
    "one column of strings": (["text"], [(["", "x", "a,b", ""],)]),
    "floats": (["x", "y"], [(FLOATS, FLOATS[::-1])]),
    "widths": (["model_id", "seed", "config_hash"], [
        (["m,1"], [7], ["ab12"]), (["metric"], ["horizon"], ["regime"], ["value"]),
        (["mae", "rmse"], ["1", "all"], ["all", "peak"], [0.25, 0.5])]),
    "many blocks": (["id", "t", "v"], [
        ((f"S{k},{k % 3}",) * (k % 5), list(range(k % 5)), [k / 7] * (k % 5))
        for k in range(60)]),
    "no blocks": (["id"], []),
    "no columns": (["id"], [()]),
}


@pytest.mark.parametrize("name", ORACLE_TABLES)
def test_write_table_bytes_equal_the_csv_writer_oracle(tmp_path, name):
    header, blocks = ORACLE_TABLES[name]
    files.write_table(str(tmp_path / "t.csv"), header, blocks)
    csv_oracle(str(tmp_path / "oracle.csv"), header, blocks)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_write_table_rejects_columns_of_different_lengths(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"differ in length: \[1, 2\]"):
        files.write_table(str(path), HEADER, [(["A", "B"], [1])])
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("column", [
    [np.float64(1 / 3)], [np.int64(5)], [True, False], [None], [None, "x"], [1, 2.5, "s"],
], ids=["numpy float", "numpy int", "bool", "None", "None and str", "mixed"])
def test_write_table_rejects_columns_not_all_float_int_or_str(tmp_path, column):
    # a well-formed block first, so that the rejection comes after a write has begun
    blocks = [(["A"], [1.5]), (["B"] * len(column), column)]
    with pytest.raises(TypeError, match="all float, all int or all str"):
        files.write_table(str(tmp_path / "t.csv"), HEADER, blocks)
    assert not os.listdir(tmp_path)


def test_read_table_skips_blank_rows_and_strips_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(' sensor_id , value\n\nA,1\n\n\n"B\n,2",2\n')
    assert list(files.read_table(str(path), "table", HEADER)) == [(3, ["A", "1"]),
                                                                 (7, ["B\n,2", "2"])]


def test_cluster_file_header_with_spaces_is_accepted(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text(" cluster_id, sensor_id ,membership \n0,A,1.0\n")
    mm = cl.clusters_from_csv(str(path), [SensorMeta("A", 0.0)])
    assert mm.clusters == [[0]] and mm.membership(0, 0) == 1.0


@pytest.mark.parametrize("body, message", [
    ("sensor,value\nA,1\n", "table header must be sensor_id,value, got 'sensor,value'"),
    ("", "table header must be sensor_id,value, got ''"),
    ("sensor_id,value\n\nA,1\n\nB\n",
     "table line 5 has 1 fields, expected 2 (sensor_id,value): ['B']"),
    ("sensor_id,value\nA,1\nB,2,\n",
     "table line 3 has 3 fields, expected 2 (sensor_id,value): ['B', '2', '']"),
])
def test_read_table_names_a_bad_header_and_a_short_row_by_its_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body)
    with pytest.raises(FormatError) as caught:
        list(files.read_table(str(path), "table", HEADER))
    assert str(caught.value) == message


def test_read_table_names_a_line_the_csv_module_cannot_read(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("sensor_id,value\nA,1\nB," + "9" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(FormatError) as caught:
        list(files.read_table(str(path), "table", HEADER))
    assert str(caught.value) == (f"table line 3: field larger than field limit "
                                 f"({csv.field_size_limit()})")


def test_read_table_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"sensor_id,value\nA\xff,1\n")
    with pytest.raises(FormatError, match=f"table {path} is not UTF-8 text"):
        list(files.read_table(str(path), "table", HEADER))


def test_publish_arrays_roundtrips_through_read_arrays_and_np_load(tmp_path):
    arrays = {"tag": np.array("corridorcast-x"), "values": np.arange(12.0).reshape(3, 4),
              "mask": np.eye(3, dtype=bool), "empty": np.zeros((2, 0), np.float32),
              "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
              "time": np.arange(3).astype("datetime64[s]")}
    path = tmp_path / "a.npz"
    files.publish_arrays(str(path), arrays)
    assert os.listdir(tmp_path) == ["a.npz"]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    assert [i.filename for i in infos] == [f"{name}.npy" for name in arrays]
    assert {(i.compress_type, i.date_time) for i in infos} == {
        (zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))}
    read = files.read_arrays(str(path), "archive")
    with np.load(path, allow_pickle=False) as loaded:
        for name, array in arrays.items():
            for got in (read[name], loaded[name]):
                assert got.dtype == array.dtype and np.array_equal(got, array)
    assert list(read) == list(arrays)


def npy_bytes(shape, payload: bytes) -> bytes:
    """A `.npy` 1.0 member of float64 `shape` holding `payload` after its header."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue() + payload


def write_zip(fh, *members):
    with warnings.catch_warnings(), zipfile.ZipFile(fh, "w") as archive:
        warnings.simplefilter("ignore")  # zipfile warns of a duplicate name
        for name, data in members:
            archive.writestr(name, data)


BAD_ARCHIVES = {
    "declares-more": (lambda fh: write_zip(fh, ("a.npy", npy_bytes((10**12,), bytes(8)))),
                      "an array header declares 8000000000000 bytes, but its member holds 8"),
    "declares-fewer": (lambda fh: write_zip(fh, ("a.npy", npy_bytes((1,), bytes(16)))),
                       "an array header declares 8 bytes, but its member holds 16"),
    "pickled": (lambda fh: np.savez(fh, a=np.array([None, 1], dtype=object)),
                "holds Python objects"),
    "fortran": (lambda fh: np.savez(fh, a=np.asfortranarray(np.ones((2, 3)))),
                "in Fortran order"),
    "compressed": (lambda fh: np.savez_compressed(fh, a=np.ones(3)),
                   "member 'a.npy' is not a distinct, uncompressed .npy file"),
    "not-npy": (lambda fh: write_zip(fh, ("a.txt", b"1")),
                "member 'a.txt' is not a distinct, uncompressed .npy file"),
    "duplicate": (lambda fh: write_zip(fh, *[("a.npy", npy_bytes((0,), b""))] * 2),
                  "member 'a.npy' is not a distinct, uncompressed .npy file"),
    "not-a-zip": (lambda fh: fh.write(b"corridorcast-ckpt-v1\n"), "File is not a zip file"),
}


@pytest.mark.parametrize("case", BAD_ARCHIVES)
def test_read_arrays_rejects_a_bad_archive_in_one_line(tmp_path, case):
    make, reason = BAD_ARCHIVES[case]
    path = tmp_path / "a.npz"
    with open(path, "wb") as fh:
        make(fh)
    with pytest.raises(FormatError) as caught:
        files.read_arrays(str(path), "archive")
    message = str(caught.value)
    assert message.startswith(f"archive {path} is not a readable array archive: ")
    assert reason in message and "\n" not in message
