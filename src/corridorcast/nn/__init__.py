"""Minimal differentiable layer stack: autograd core, layers, ADAM, and
checkpoints as `corridorcast-ckpt-v2` array archives (see `checkpoint`)."""

from .autograd import (
    GraphStateError,
    ShapeError,
    Tensor,
    concat,
    conv2d,
    gather_rows,
    matmul,
    maxpool2d,
    mean,
    no_grad,
    relu,
    reshape,
    sigmoid,
    square,
    tanh,
    total,
)
from .checkpoint import CheckpointError, load_params, restore_params, save_params
from .layers import (
    Conv2d,
    ConvLSTMCell,
    Dense,
    Layer,
    MultiKernelConv,
    xavier_uniform,
)
from .optim import Adam

__all__ = [
    "Adam",
    "CheckpointError",
    "Conv2d",
    "ConvLSTMCell",
    "Dense",
    "GraphStateError",
    "Layer",
    "MultiKernelConv",
    "ShapeError",
    "Tensor",
    "concat",
    "conv2d",
    "gather_rows",
    "load_params",
    "matmul",
    "maxpool2d",
    "mean",
    "no_grad",
    "relu",
    "reshape",
    "restore_params",
    "save_params",
    "sigmoid",
    "square",
    "tanh",
    "total",
    "xavier_uniform",
]
