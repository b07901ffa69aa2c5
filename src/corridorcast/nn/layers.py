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
    """Base: parameter registry keyed by name, in registration order.

    An adopted child's parameters join it as ``<prefix>.<name>``, so a whole
    layer tree has one registry.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def _param(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def _adopt(self, prefix: str, child: "Layer") -> "Layer":
        for name, p in child._params.items():
            self._params[f"{prefix}.{name}"] = p
        return child

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def cast(self, dtype) -> None:
        """Replace every parameter's array with a copy in `dtype`."""
        for p in self._params.values():
            p.data = p.data.astype(dtype)


class Dense(Layer):
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int,
                 activation: str = "identity"):
        super().__init__()
        self.activation = activation
        self.w = self._param("w", xavier_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = self._param("b", np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        out = ag.matmul(x, self.w) + self.b
        return ag.ACTIVATIONS[self.activation](out)


class Conv2d(Layer):
    """Valid 2-D convolution over (batch, H, W, Cin), then ReLU."""

    def __init__(self, rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int):
        super().__init__()
        fan_in, fan_out = kh * kw * cin, kh * kw * cout
        self.w = self._param("w", xavier_uniform(rng, (kh, kw, cin, cout), fan_in, fan_out))
        self.b = self._param("b", np.zeros(cout))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.relu(ag.conv2d(x, self.w) + self.b)


class MultiKernelConv(Layer):
    """One convolution kernel per sensor cluster, sliding over time only.

    Input is (batch, sensors, time, features).  For each cluster the member
    rows are gathered and correlated with a kernel spanning the whole member
    axis, so features never mix across clusters; the kernel moves along the
    time axis alone, and ReLU follows.  Returns one (batch, 1, T', filters)
    map per cluster.  Every member list must be nonempty, which `Forecaster`
    checks.
    """

    def __init__(self, rng: np.random.Generator, member_lists: list[list[int]],
                 time_kernel: int, n_features: int, filters: int):
        super().__init__()
        self.member_lists = [list(m) for m in member_lists]
        self.kernels: list[Tensor] = []
        self.biases: list[Tensor] = []
        for ci, members in enumerate(self.member_lists):
            shape = (len(members), time_kernel, n_features, filters)
            fan_in = len(members) * time_kernel * n_features
            fan_out = len(members) * time_kernel * filters
            self.kernels.append(self._param(f"k{ci}", xavier_uniform(rng, shape, fan_in, fan_out)))
            self.biases.append(self._param(f"b{ci}", np.zeros(filters)))

    def __call__(self, x: Tensor) -> list[Tensor]:
        return [ag.relu(ag.conv2d(ag.gather_rows(x, members), w) + b)
                for members, w, b in zip(self.member_lists, self.kernels, self.biases)]


# Windows per banded-row matmul in the forward recurrence: the kh shifted
# input rows of a whole batch (1.7 MiB for the desk layer 2 at 64 windows)
# shrink to those of one block.  GEMM rows do not touch each other's sums,
# so outputs do not change.
_ROW_BLOCK = 16


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
    full spatial maps.  Calling the cell runs it over a whole window from a
    zero state as one autograd node.
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

    def __call__(self, x: Tensor, sequence: bool = False) -> Tensor:
        """Run over the time axis of `x` (B, T, rows, cols, Cin) from h = c = 0.

        Returns the hidden sequence (B, T, rows, cols, n) when `sequence` is
        set, else the final h (B, rows, cols, n), as one autograd node whose
        backward is hand-derived BPTT.

        The per-gate kernels are stacked once into one (kh, kw, Cin+n, 4, n)
        kernel with the gates i, f, c, o on its fourth axis and expanded into
        one band (`autograd._Band`) whose output columns run (gate, column,
        filter).  Each step copies the kh shifted rows of the row-padded,
        channel-stacked [x_t, h_{t-1}] as contiguous cols*(Cin+n) runs and
        multiplies them by the band, in blocks of `_ROW_BLOCK` windows; each
        gate is then a slice with runs of cols*n.

        For backward each step keeps only its padded [x, h] input, the
        activated gates, c and tanh(c); backward rebuilds the rows, adds
        `rows.T @ dz` into one band gradient that is folded onto the kernel
        once, and scatters `dz @ band.T` back with kh row adds.  Under
        `no_grad` nothing per step is kept.  Every buffer takes the dtype of
        `x` and the kernel.
        """
        if x.data.ndim != 5 or x.data.shape[2:4] != self.spatial:
            raise ag.ShapeError(f"input {x.data.shape} does not run over cell grid "
                                f"{self.spatial}")
        if x.data.shape[4] != self.in_channels:
            raise ag.ShapeError(f"channel mismatch: input {x.data.shape[4]}, "
                                f"cell {self.in_channels}")
        B, T, H, W, cin = x.data.shape
        n = self.filters
        params = self._params
        gates = self.GATES
        p = {name: t.data for name, t in params.items()}
        kernel = np.concatenate([np.stack([p[f"wx{g}"] for g in gates], axis=3),
                                 np.stack([p[f"wh{g}"] for g in gates], axis=3)], axis=2)
        kh, kw = kernel.shape[:2]
        dtype = np.result_type(x.data, kernel)
        (top, bottom), cols = ag._same_pads(kh, kw)
        band = ag._Band(kernel, W, cols=cols)
        rows = slice(top, top + H)
        parents = (x, *params.values())
        record = ag._grad_enabled and any(t.requires_grad for t in parents)

        # per-step buffers for backward when recording, otherwise one reused
        # slot (two for c, which a step reads and writes)
        slots = T if record else 1
        xh = np.zeros((slots, B, H + top + bottom, W, cin + n), dtype)
        act = np.empty((slots, 4, B, H, W, n), dtype)  # i, f, tanh candidate g, o
        tcs = np.empty((slots, B, H, W, n), dtype)
        cs = np.empty((T + 1 if record else 2, B, H, W, n), dtype)
        cs[0] = 0.0
        hs = np.empty((B, T, H, W, n), dtype) if sequence else None
        z = np.empty((B, H, 4, W, n), dtype)  # gate pre-activations, rewritten each step
        block_rows = np.empty((min(B, _ROW_BLOCK), H, kh, W, cin + n), dtype)
        h = None
        for t in range(T):
            buf = xh[t % slots]
            buf[:, rows, :, :cin] = x.data[:, t]
            if h is not None:
                buf[:, rows, :, cin:] = h
            for lo in range(0, B, _ROW_BLOCK):
                piece = buf[lo:lo + _ROW_BLOCK]
                np.matmul(band.rows(piece, out=block_rows[:len(piece)]), band.matrix,
                          out=z[lo:lo + _ROW_BLOCK].reshape(len(piece) * H, -1))
            i, f, g, o = act[t % slots]
            c_prev, c = cs[t % len(cs)], cs[(t + 1) % len(cs)]
            np.add(z[:, :, 0], p["wci"] * c_prev, out=i)
            i += p["bi"]
            ag._sigmoid(i, i)
            np.add(z[:, :, 1], p["wcf"] * c_prev, out=f)
            f += p["bf"]
            ag._sigmoid(f, f)
            np.add(z[:, :, 2], p["bc"], out=g)
            np.tanh(g, out=g)
            np.multiply(f, c_prev, out=c)
            c += i * g
            np.add(z[:, :, 3], p["wco"] * c, out=o)
            o += p["bo"]
            ag._sigmoid(o, o)
            tc = np.tanh(c, out=tcs[t % slots])
            h = np.multiply(o, tc, out=None if hs is None else hs[:, t])
        out = h if hs is None else hs
        if not record:
            return Tensor(out)

        def backward(grad):
            dband = np.zeros_like(band.matrix)
            db = np.zeros(4 * W * n, dtype)
            dpeep = {gate: np.zeros((H, W, n), dtype) for gate in ("i", "f", "o")}
            dx = np.empty_like(x.data) if x.requires_grad else None
            dh = np.zeros((B, H, W, n), dtype)
            if not sequence:
                dh += grad
            dc = np.zeros((B, H, W, n), dtype)
            dz = np.empty((B, H, 4, W, n), dtype)  # the band's output layout
            dzf = dz.reshape(B * H, -1)
            dai, daf, dag, dao = (dz[:, :, k] for k in range(4))
            batch_rows = np.empty((B, H, kh, W, cin + n), dtype)
            for t in reversed(range(T)):
                i, f, g, o = act[t]
                c_prev, c, tc = cs[t], cs[t + 1], tcs[t]
                if sequence:
                    dh += grad[:, t]
                np.multiply(dh, tc, out=dao)
                dao *= o * (1.0 - o)
                dc += dh * o * (1.0 - tc * tc) + dao * p["wco"]
                np.multiply(dc, g, out=dai)
                dai *= i * (1.0 - i)
                np.multiply(dc, c_prev, out=daf)
                daf *= f * (1.0 - f)
                np.multiply(dc, i, out=dag)
                dag *= 1.0 - g * g
                dpeep["i"] += (dai * c_prev).sum(axis=0)
                dpeep["f"] += (daf * c_prev).sum(axis=0)
                dpeep["o"] += (dao * c).sum(axis=0)
                db += dzf.sum(axis=0)
                dc = dc * f + dai * p["wci"] + daf * p["wcf"]
                dband += band.rows(xh[t], out=batch_rows).T @ dzf
                dxh = band.scatter(dzf @ band.matrix.T, xh.shape[1:])[:, rows]
                if dx is not None:
                    dx[:, t] = dxh[..., :cin]
                dh = dxh[..., cin:]
            if dx is not None:
                x._accumulate(dx)
            dW = band.fold(dband)
            db = db.reshape(4, W, n).sum(axis=1)
            grads = {f"wc{gate}": d for gate, d in dpeep.items()}
            for k, gate in enumerate(gates):
                grads[f"wx{gate}"] = dW[:, :, :cin, k]
                grads[f"wh{gate}"] = dW[:, :, cin:, k]
                grads[f"b{gate}"] = db[k]
            for name, t in params.items():
                if t.requires_grad:
                    t._accumulate(grads[name])

        return ag._make(out, parents, backward)
