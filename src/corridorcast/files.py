"""Text files as the toolkit reads and writes them: UTF-8, outputs atomically."""

from __future__ import annotations

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
