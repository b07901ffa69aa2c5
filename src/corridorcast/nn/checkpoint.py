"""Parameter checkpoints as a flat, deterministic text map.

Format (one parameter per line, after a fixed header line):

    corridorcast-ckpt-v1
    <name> <ndim> <dim0> ... <dimN-1> : <v0> <v1> ... <vK-1>

Values are row-major C-order float64 written as ``float.hex()`` so the file
round-trips exactly and identical parameters always produce identical bytes.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import DataError
from .autograd import Tensor

_HEADER = "corridorcast-ckpt-v1"


class CheckpointError(DataError, ValueError):
    """Unreadable or mismatched checkpoint: a data error (exit 3) and a ValueError."""


def save_params(path: str, params: dict[str, Tensor]) -> None:
    """Write parameters atomically (temp file + rename)."""
    lines = [_HEADER]
    for name, p in params.items():
        if " " in name or ":" in name:
            raise CheckpointError(f"parameter name {name!r} contains reserved characters")
        dims = " ".join(str(d) for d in p.data.shape)
        vals = " ".join(float(v).hex() for v in p.data.reshape(-1))
        lines.append(f"{name} {p.data.ndim}{' ' + dims if dims else ''} : {vals}")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


_CHUNK = 1 << 16


def _tokens(text: str, start: int):
    """Whitespace-separated fields of `text[start:]`, split one chunk at a time."""
    while start < len(text):
        end = text.find(" ", start + _CHUNK)
        if end < 0:
            end = len(text)
        yield from text[start:end].split()
        start = end + 1


def load_params(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != _HEADER:
            raise CheckpointError(f"unrecognized checkpoint header {header!r}")
        out: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, 2):
            if line.isspace():
                continue
            # values are parsed straight from the line: one parameter line can
            # hold hundreds of thousands of them
            sep = line.find(" : ")
            if sep < 0:
                sep = len(line)
            fields = line[:sep].split()
            try:
                name, ndim = fields[0], int(fields[1])
                shape = tuple(int(d) for d in fields[2:2 + ndim])
                vals = np.fromiter(map(float.fromhex, _tokens(line, sep + 3)), np.float64)
            except (IndexError, ValueError):
                raise CheckpointError(f"malformed checkpoint line {lineno}") from None
            if vals.size != int(np.prod(shape)) if shape else vals.size != 1:
                raise CheckpointError(f"value count mismatch for {name!r}")
            out[name] = vals.reshape(shape)
    return out


def restore_params(params: dict[str, Tensor], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter dict (shapes must match)."""
    missing = set(params) - set(loaded)
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {sorted(missing)}")
    for name, p in params.items():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, model {p.data.shape}")
        p.data = arr.copy()
