"""Parameter checkpoints as a flat, deterministic text map.

Format (one parameter per line, after a fixed header line):

    corridorcast-ckpt-v1
    <name> <ndim> <dim0> ... <dimN-1> : <v0> <v1> ... <vK-1>

Values are row-major C-order, each written as the ``float.hex()`` of its
float64 value, so the file round-trips exactly and identical parameters
always produce identical bytes.  That holds for float32 parameters too: they
are widened exactly, and `restore_params` copies the float64 values read
back into each parameter's own dtype, rounding only values that a float32
cannot hold (a checkpoint of float64 parameters read into a float32 model).
Both directions stream: one parameter line can hold hundreds of thousands of
values, so neither side ever holds a whole line.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..errors import DataError
from ..files import open_utf8, publish
from .autograd import Tensor

_HEADER = "corridorcast-ckpt-v1"
_CHUNK = 1 << 16  # characters per read; also the most characters of one write
_TOKEN_MAX = 24  # the longest float.hex() token, "-0x1.fffffffffffffp+1023"


class CheckpointError(DataError, ValueError):
    """Unreadable or mismatched checkpoint: a data error (exit 3) and a ValueError."""


def save_params(path: str, params: dict[str, Tensor]) -> None:
    """Write parameters to `path` through `files.publish`, a chunk of values at
    a time: atomically, as UTF-8, and leaving no temporary file on failure."""
    for name in params:
        if " " in name or ":" in name:
            raise CheckpointError(f"parameter name {name!r} contains reserved characters")
    step = _CHUNK // (_TOKEN_MAX + 1)
    with publish(path) as fh:
        fh.write(_HEADER + "\n")
        for name, p in params.items():
            dims = "".join(f" {d}" for d in p.data.shape)
            fh.write(f"{name} {p.data.ndim}{dims} : ")
            flat = p.data.reshape(-1)
            for lo in range(0, flat.size, step):
                if lo:
                    fh.write(" ")
                fh.write(" ".join(map(float.hex, flat[lo:lo + step].tolist())))
            fh.write("\n")


def _read_values(fh, text: str, out: np.ndarray, name: str, lineno: int) -> None:
    """Fill `out` with the values of one line, starting from its chunk `text`.

    The rest of the line is read a chunk at a time.  A token cut by a chunk
    boundary is carried into the next chunk; a line that ends before its
    newline is truncated.
    """
    filled, carry = 0, ""
    if not text:  # the head filled the line's first chunk
        text = fh.readline(_CHUNK)
    while True:
        if not text:
            raise CheckpointError(f"checkpoint line {lineno} is truncated")
        chunk = carry + text
        tokens = chunk.split()
        carry = "" if chunk[-1].isspace() or not tokens else tokens.pop()
        if filled + len(tokens) > out.size:
            raise CheckpointError(f"value count mismatch for {name!r}")
        try:
            if len(carry) > _CHUNK:  # no token is that long
                raise ValueError
            out[filled:filled + len(tokens)] = np.fromiter(
                map(float.fromhex, tokens), np.float64, len(tokens))
        except ValueError:
            raise CheckpointError(f"malformed checkpoint line {lineno}") from None
        filled += len(tokens)
        if chunk.endswith("\n"):
            if filled != out.size:
                raise CheckpointError(f"value count mismatch for {name!r}")
            return
        text = fh.readline(_CHUNK)


def load_params(path: str) -> dict[str, np.ndarray]:
    with open_utf8(path, "checkpoint") as fh:
        header = fh.readline(_CHUNK).rstrip("\n")
        if header != _HEADER:
            raise CheckpointError(f"unrecognized checkpoint header {header!r}")
        # no line can hold more values than the file has characters
        most = os.fstat(fh.fileno()).st_size
        out: dict[str, np.ndarray] = {}
        lineno = 1
        while text := fh.readline(_CHUNK):
            lineno += 1
            if text.isspace():
                continue
            # the head "<name> <ndim> <dims> : " sits in the line's first chunk
            sep = text.find(" : ")
            fields = text[:sep].split() if sep >= 0 else []
            try:
                name, ndim = fields[0], int(fields[1])
                shape = tuple(int(d) for d in fields[2:])
                if len(shape) != ndim or math.prod(shape) > most:
                    raise ValueError
                vals = np.empty(shape)
            except (IndexError, ValueError):
                raise CheckpointError(f"malformed checkpoint line {lineno}") from None
            _read_values(fh, text[sep + 3:], vals.reshape(-1), name, lineno)
            out[name] = vals
        return out


def restore_params(params: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into the existing parameter arrays, in their dtype;
    names and shapes must match."""
    missing = set(params) - set(loaded)
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {sorted(missing)}")
    extra = set(loaded) - set(params)
    if extra:
        raise CheckpointError(f"checkpoint has parameters the model lacks: {sorted(extra)}")
    for name, p in params.items():
        if loaded[name].shape != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name!r}: checkpoint "
                                  f"{loaded[name].shape}, model {p.data.shape}")
    for name, p in params.items():
        np.copyto(p.data, loaded[name])
