"""Files as the toolkit reads and writes them: outputs atomically, text as
UTF-8, tables as CSV, arrays as an uncompressed archive of `.npy` members."""

from __future__ import annotations

import csv
import math
import os
import re
import zipfile
from contextlib import contextmanager, suppress

import numpy as np

from .errors import FormatError

_READ_BYTES = 1 << 18  # bytes of one array member copied per read, as `np.load` does
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # what makes `csv.writer` quote a field


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
def _published(path: str, mode: str, **text):
    """`publish` for a file opened with `mode` and `text`'s arguments."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        with suppress(OSError):  # after a rename, or where `tmp` is a directory
            os.remove(tmp)


def publish(path: str):
    """A UTF-8 text file (`newline=""`) at `path + ".tmp"`, renamed onto `path`
    when the body returns.  No temporary file outlives a failure, the rename's
    included, and an OSError comes out naming `path`."""
    return _published(path, "w", encoding="utf-8", newline="")


def publish_arrays(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Publish `arrays` at `path` as an uncompressed zip64 archive holding one
    `<name>.npy` member (NumPy NEP 1, format 1.0, C order) per array, in the
    given order.  A C-contiguous array is written from its own buffer, where
    `np.savez` would copy it.  Every member is dated 1980-01-01, so equal
    arrays always give equal bytes."""
    with _published(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, array in arrays.items():
            array = np.require(array, requirements="C")
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(array.reshape(-1).view(np.uint8))


def read_arrays(path: str, what: str) -> dict[str, np.ndarray]:
    """The arrays of the archive at `path`, by name in archive order, as
    `publish_arrays` writes them.  An archive that does not open, a member's
    bytes that fail their CRC-32, a compressed or duplicate member, a member
    that is not `.npy` format 1.0 in C order, a pickled array, or a header
    that declares other than the bytes its member holds (checked before the
    array is allocated) raises FormatError naming `what` and the file.  An
    OSError opening `path` propagates."""
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                for info in archive.infolist():
                    name = info.filename.removesuffix(".npy")
                    if (name == info.filename or name in arrays
                            or info.compress_type != zipfile.ZIP_STORED):
                        raise ValueError(f"member {info.filename!r} is not a distinct, "
                                         "uncompressed .npy file")
                    with archive.open(info) as member:
                        arrays[name] = _read_npy(member, info.file_size)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            reason = " ".join(str(exc).split())  # numpy's messages can span lines
            raise FormatError(f"{what} {path} is not a readable array archive: "
                              f"{reason}") from None
    return arrays


def _read_npy(member, size: int) -> np.ndarray:
    """The array of the `.npy` member `member`, which holds `size` bytes."""
    if np.lib.format.read_magic(member) != (1, 0):
        raise ValueError("an array is not in .npy format 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
    if fortran_order or dtype.hasobject:
        raise ValueError("an array is in Fortran order or holds Python objects")
    nbytes, held = math.prod(shape) * dtype.itemsize, size - member.tell()
    if nbytes != held:
        raise ValueError(f"an array header declares {nbytes} bytes, but its member holds {held}")
    array = np.empty(shape, dtype)
    flat = array.reshape(-1).view(np.uint8)
    for lo in range(0, nbytes, _READ_BYTES):  # a short read fails the assignment
        flat[lo:lo + _READ_BYTES] = np.frombuffer(member.read(_READ_BYTES), np.uint8)
    return array


def _quoted(field: str) -> str:
    """`field` quoted, its quotes doubled, as the `csv` module quotes a field."""
    return '"' + field.replace('"', '""') + '"'


def _fields(column, alone: bool):
    """The fields `csv.writer` writes for the values of `column`, or None for a
    column whose values are not all `float`, all `int` or all `str` (subclasses,
    `bool` among them, not counted).  `alone` says whether the column is its
    row's only field, where an empty string is written as `""`."""
    kinds = set(map(type, column))
    if kinds <= {float}:
        return map(float.__repr__, column)
    if kinds == {int}:
        return map(int.__repr__, column)
    if kinds != {str}:
        return None
    distinct = set(column)
    if not _NEEDS_QUOTES.search("".join(distinct)) and not (alone and "" in distinct):
        return column
    fields = {v: _quoted(v) if _NEEDS_QUOTES.search(v) or alone and not v else v
              for v in distinct}
    return map(fields.__getitem__, column)


def write_table(path: str, header: list[str], blocks) -> None:
    """Publish `header`, then each of `blocks`, as CSV in the `csv` module's
    default dialect: lines end in `\\r\\n`, a field is quoted only where it holds
    a comma, a quote or a line break, and a float is written as its repr.

    A block is a tuple of equal-length columns, and its rows are the columns
    read across; blocks may differ in width.  A block whose columns each hold
    only floats, only ints or only strings is encoded a column at a time and
    written in one piece, so no row is ever built as a list; any other block
    goes to `csv.writer` row by row.  Both write the same bytes."""
    with publish(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            lengths = {len(column) for column in block}
            if len(lengths) > 1:
                raise ValueError(f"a block's columns differ in length: {sorted(lengths)}")
            if not any(lengths):
                continue
            columns = [_fields(column, len(block) == 1) for column in block]
            if any(c is None for c in columns):
                writer.writerows(zip(*block))
            else:
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def short_row(row: list[str], header: list[str], what: str, line: int) -> FormatError:
    """The FormatError for a row of `what` at physical line `line` that does not fit `header`."""
    return FormatError(f"{what} line {line} has {len(row)} fields, expected "
                       f"{len(header)} ({','.join(header)}): {row!r}")


def read_table(path: str, what: str, header: list[str]):
    """Yield each row of the UTF-8 CSV table at `path` after its header, as
    `(line, fields)` in file order, `line` being the physical line the row
    ends on.  Fields follow the `csv` module's default dialect: a quoted
    field may hold commas, line breaks and doubled quotes.  Blank rows are
    skipped.  Bytes that do not decode, a header whose stripped fields are
    not `header`, a row with other than `len(header)` fields, or text the
    `csv` module cannot read raise FormatError naming `what`."""
    with open_utf8(path, what, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found is None or [f.strip() for f in found] != header:
                raise FormatError(f"{what} header must be {','.join(header)}, "
                                  f"got {','.join(found or [])!r}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise short_row(row, header, what, reader.line_num)
                yield reader.line_num, row
        except csv.Error as exc:
            raise FormatError(f"{what} line {reader.line_num}: {exc}") from None
