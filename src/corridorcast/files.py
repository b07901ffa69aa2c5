"""Text files as the toolkit reads and writes them: UTF-8, outputs atomically, tables as CSV."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress

from .errors import FormatError


@contextmanager
def open_utf8(path: str, what: str, newline: str | None = None):
    """`path` opened as UTF-8 text; bytes that do not decode, wherever the
    body reads them, raise FormatError naming `what` and the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise FormatError(f"{what} {path} is not UTF-8 text") from None


@contextmanager
def publish(path: str):
    """A UTF-8 text file (`newline=""`) at `path + ".tmp"`, renamed onto `path`
    when the body returns.  No temporary file outlives a failure, the rename's
    included, and an OSError comes out naming `path`."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        with suppress(OSError):  # after a rename, or where `tmp` is a directory
            os.remove(tmp)


def write_table(path: str, header: list[str], rows) -> None:
    """Publish `header`, then each of `rows`, as CSV in the `csv` module's default
    dialect: lines end in `\\r\\n`, a field is quoted only where it holds a
    comma, a quote or a line break, and a float is written as its repr."""
    with publish(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def check_header(found: list[str] | None, what: str, header: list[str]) -> None:
    """FormatError naming `what` unless `found`'s stripped fields are `header`."""
    if found is None or [f.strip() for f in found] != header:
        raise FormatError(f"{what} header must be {','.join(header)}, "
                          f"got {','.join(found or [])!r}")


def short_row(row: list[str], header: list[str], what: str, line: int) -> FormatError:
    """The FormatError for a row of `what` at physical line `line` that does not fit `header`."""
    return FormatError(f"{what} line {line} has {len(row)} fields, expected "
                       f"{len(header)} ({','.join(header)}): {row!r}")


def read_table(path: str, what: str, header: list[str]) -> list[tuple[int, list[str]]]:
    """Each row of the UTF-8 CSV table at `path` after its header, with the
    physical line it ends on.  Blank rows are skipped.  A file that does not
    decode, a header other than `header` (`check_header`) or a row with fewer
    fields than `header` raises FormatError naming `what`."""
    rows = []
    with open_utf8(path, what, newline="") as fh:
        reader = csv.reader(fh)
        check_header(next(reader, None), what, header)
        for row in filter(None, reader):
            if len(row) < len(header):
                raise short_row(row, header, what, reader.line_num)
            rows.append((reader.line_num, row))
    return rows
