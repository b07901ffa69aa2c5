import ast
import os
from pathlib import Path

import pytest

from corridorcast import files
from corridorcast.errors import FormatError

PACKAGE = Path(files.__file__).parent

# the only functions of the package that may write a file or move one into place
WRITE_SITES = {("files.py", "publish", "open"): 1, ("files.py", "publish", "os.replace"): 1,
               ("panel.py", "_write_panel_file", "os.fdopen"): 1,
               ("panel.py", "_write_panel_file", "os.replace"): 1}


def _write_sites(tree: ast.AST, module: str):
    """(module, enclosing function, callee) of each write-mode `open` or
    `os.fdopen` and each `os.replace` or `os.rename` call in `tree`."""
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
                if (callee in ("open", "os.fdopen") and not reads
                        or callee in ("os.replace", "os.rename")):
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
                     "def load(p):\n    return open(p), open(p, mode='rb')\n")
    assert _write_sites(tree, "m.py") == [("m.py", "save", "open"), ("m.py", "save", "os.replace")]


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
