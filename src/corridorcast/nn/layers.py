"""Trainable layers assembled from the autograd primitives.

Each layer owns named parameter tensors (``requires_grad=True``) and exposes
them through ``parameters()`` as ``name -> Tensor`` so optimizers and
checkpoints can address every weight.  Initialization is Xavier-uniform with
zero biases; peephole maps start at zero.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base: parameter registry keyed by attribute name."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def _param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)


class Dense(Layer):
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int,
                 activation: str = "identity"):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self.activation = activation
        self.w = self._param("w", xavier_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = self._param("b", np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        out = ag.matmul(x, self.w) + self.b
        return ag.ACTIVATIONS[self.activation](out)


class Conv2d(Layer):
    """2-D convolution over (batch, H, W, Cin) with valid padding by default."""

    def __init__(self, rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int,
                 activation: str = "relu", strides=(1, 1), padding: str = "valid"):
        super().__init__()
        self.strides = tuple(strides)
        self.padding = padding
        self.activation = activation
        fan_in, fan_out = kh * kw * cin, kh * kw * cout
        self.w = self._param("w", xavier_uniform(rng, (kh, kw, cin, cout), fan_in, fan_out))
        self.b = self._param("b", np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        out = ag.conv2d(x, self.w, strides=self.strides, padding=self.padding) + self.b
        return ag.ACTIVATIONS[self.activation](out)


class MultiKernelConv(Layer):
    """One convolution kernel per sensor cluster, sliding over time only.

    Input is (batch, sensors, time, features).  For each cluster the member
    rows are gathered and correlated with a kernel spanning the whole member
    axis, so features never mix across clusters; the kernel moves along the
    time axis alone.  Returns one (batch, 1, T', filters) map per cluster.
    """

    def __init__(self, rng: np.random.Generator, member_lists: list[list[int]],
                 time_kernel: int, n_features: int, filters: int,
                 activation: str = "relu"):
        super().__init__()
        if any(len(m) == 0 for m in member_lists):
            raise ValueError("cluster with zero members")
        self.member_lists = [list(m) for m in member_lists]
        self.time_kernel = time_kernel
        self.activation = activation
        self.kernels: list[Tensor] = []
        self.biases: list[Tensor] = []
        for ci, members in enumerate(self.member_lists):
            shape = (len(members), time_kernel, n_features, filters)
            fan_in = len(members) * time_kernel * n_features
            fan_out = len(members) * time_kernel * filters
            self.kernels.append(self._param(f"k{ci}", xavier_uniform(rng, shape, fan_in, fan_out)))
            self.biases.append(self._param(f"b{ci}", np.zeros(filters)))

    def __call__(self, x: Tensor) -> list[Tensor]:
        return multikernel_conv_forward(x, self.member_lists, self.kernels, self.biases,
                                        activation=self.activation)


def multikernel_conv_forward(x: Tensor, member_lists, kernels, biases,
                             activation: str = "relu") -> list[Tensor]:
    """Per-cluster gather + time-axis convolution; see MultiKernelConv."""
    outs = []
    for members, w, b in zip(member_lists, kernels, biases):
        if len(members) == 0:
            raise ValueError("cluster with zero members")
        if w.data.shape[0] != len(members):
            raise ag.ShapeError(
                f"kernel sensor axis {w.data.shape[0]} != cluster size {len(members)}")
        rows = ag.gather_rows(x, members)
        outs.append(ag.ACTIVATIONS[activation](ag.conv2d(rows, w) + b))
    return outs


class ConvLSTMCell(Layer):
    """Convolutional LSTM cell with Hadamard peephole connections.

    Gate pre-activations are 2-D convolutions (same padding) of the input and
    the previous hidden state, plus elementwise peephole terms on the cell
    state:

        i = sigmoid(Wxi*x + Whi*h + Wci.c + bi)
        f = sigmoid(Wxf*x + Whf*h + Wcf.c + bf)
        c' = f.c + i.tanh(Wxc*x + Whc*h + bc)
        o = sigmoid(Wxo*x + Who*h + Wco.c' + bo)
        h' = o.tanh(c')

    where * is convolution and . the elementwise product.  The spatial grid
    (rows, cols) is fixed at construction because the peephole weights are
    full spatial maps.

    The eight gate convolutions are computed as one: the channel-stacked
    [x, h] is convolved with a kernel whose output axis stacks the i, f, c, o
    gates, and the result is split.  That kernel is assembled at call time
    from the per-gate ``wx*``/``wh*`` parameters, so parameter names and
    checkpoints keep the per-gate layout.
    """

    GATES = ("i", "f", "c", "o")

    def __init__(self, rng: np.random.Generator, spatial: tuple[int, int],
                 in_channels: int, filters: int, kernel: int = 3):
        super().__init__()
        self.spatial = tuple(spatial)
        self.in_channels = in_channels
        self.filters = filters
        kh = kw = kernel
        for gate in self.GATES:
            self._param(f"wx{gate}", xavier_uniform(
                rng, (kh, kw, in_channels, filters), kh * kw * in_channels, kh * kw * filters))
            self._param(f"wh{gate}", xavier_uniform(
                rng, (kh, kw, filters, filters), kh * kw * filters, kh * kw * filters))
            self._param(f"b{gate}", np.zeros(filters))
        for gate in ("i", "f", "o"):
            self._param(f"wc{gate}", np.zeros(self.spatial + (filters,)))

    def zero_state(self, batch: int) -> tuple[Tensor, Tensor]:
        shape = (batch,) + self.spatial + (self.filters,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        if x.data.shape[1:3] != self.spatial:
            raise ag.ShapeError(f"input grid {x.data.shape[1:3]} != cell grid {self.spatial}")
        if h_prev.data.shape != c_prev.data.shape or h_prev.data.shape[1:3] != self.spatial:
            raise ag.ShapeError("state shapes inconsistent with the cell grid")
        p = self._params
        kernel = ag.concat([ag.concat([p[f"wx{g}"] for g in self.GATES], axis=3),
                            ag.concat([p[f"wh{g}"] for g in self.GATES], axis=3)], axis=2)
        z = ag.conv2d(ag.concat([x, h_prev], axis=3), kernel, padding="same")
        n = self.filters
        zi, zf, zc, zo = (ag.slice_last(z, k * n, (k + 1) * n) for k in range(4))

        i = ag.sigmoid(zi + ag.mul(p["wci"], c_prev) + p["bi"])
        f = ag.sigmoid(zf + ag.mul(p["wcf"], c_prev) + p["bf"])
        c = ag.mul(f, c_prev) + ag.mul(i, ag.tanh(zc + p["bc"]))
        o = ag.sigmoid(zo + ag.mul(p["wco"], c) + p["bo"])
        h = ag.mul(o, ag.tanh(c))
        return h, c


class Dropout:
    def __init__(self, rate: float):
        self.rate = rate

    def __call__(self, x: Tensor, training: bool, rng: np.random.Generator | None = None,
                 mask: np.ndarray | None = None) -> Tensor:
        return ag.dropout(x, self.rate, training, rng=rng, mask=mask)
