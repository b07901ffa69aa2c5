"""Parameter checkpoints as a deterministic array archive.

Format `corridorcast-ckpt-v2` is an archive written by `files.publish_arrays`:
an uncompressed zip of `.npy` members (NumPy NEP 1).  Its first member,
`format`, holds the string `corridorcast-ckpt-v2`; then each parameter is one
member under its own name, in the model's parameter order, holding the array
in its own dtype.  Values round-trip exactly and identical parameters always
produce identical bytes.  `restore_params` copies each array into its
parameter's dtype, rounding only values the parameter cannot hold (a float64
checkpoint read into a float32 model).
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, FormatError
from ..files import publish_arrays, read_arrays
from .autograd import Tensor

_FORMAT = "corridorcast-ckpt-v2"
_V1 = "corridorcast-ckpt-v1"  # the first line of the retired float.hex text format


class CheckpointError(DataError, ValueError):
    """Unreadable or mismatched checkpoint: a data error (exit 3) and a ValueError."""


def save_params(path: str, params: dict[str, Tensor]) -> None:
    """Write floating parameters to `path` through `files.publish_arrays`:
    atomically, and leaving no temporary file on failure."""
    if "format" in params:
        raise CheckpointError("parameter name 'format' is reserved")
    for name, p in params.items():
        if not np.issubdtype(p.data.dtype, np.floating):
            raise TypeError(f"parameter {name!r} is not a floating array")
    publish_arrays(path, {"format": np.array(_FORMAT),
                          **{name: p.data for name, p in params.items()}})


def load_params(path: str) -> dict[str, np.ndarray]:
    """The parameters of the checkpoint at `path`, by name in archive order."""
    try:
        arrays = read_arrays(path, "checkpoint")
    except FormatError as exc:
        with open(path, "rb") as fh:
            if fh.read(len(_V1)) == _V1.encode():
                raise CheckpointError(f"checkpoint {path} is in the retired text format "
                                      f"{_V1}; re-run train to write {_FORMAT}") from None
        raise CheckpointError(str(exc)) from None
    if str(arrays.pop("format", None)) != _FORMAT:
        raise CheckpointError(f"checkpoint {path} is not {_FORMAT}: its format member "
                              "is missing or differs")
    for name, array in arrays.items():
        if not np.issubdtype(array.dtype, np.floating):
            raise CheckpointError(f"checkpoint parameter {name!r} is not a floating "
                                  f"array: {array.dtype}")
    return arrays


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
