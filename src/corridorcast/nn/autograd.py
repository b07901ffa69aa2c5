"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records how it was produced.
Calling ``backward()`` on a scalar walks the graph in reverse topological
order and accumulates gradients into every tensor created with
``requires_grad=True``.  Only the operations the forecaster needs are
implemented: elementwise arithmetic, matmul, the usual activations, 2-D
convolution (valid/same padding), block max-pooling, inverted dropout,
reshape, concatenation, last-axis slices and integer gathers along the
sensor axis.

Everything is float64 so that central-difference gradient checks are
meaningful at tight tolerances.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphStateError(RuntimeError):
    """Gradient requested in an invalid state (e.g. before a forward pass)."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over broadcast axes so it matches `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a private copy: `g` may be the upstream buffer or shared with a sibling
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise GraphStateError("backward() requires a scalar tensor")
        if not self.requires_grad:
            raise GraphStateError("backward() on a tensor with no differentiable parents")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, parents=parents if requires else (),
                  backward=backward if requires else None)


# -- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def square(a: Tensor) -> Tensor:
    out_data = a.data * a.data

    def backward(g):
        a._accumulate(2.0 * a.data * g)

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # 1/(1+exp(-x)) == (1+tanh(x/2))/2, which cannot overflow; one buffer,
    # since a second large temporary costs more than the tanh itself
    out_data = np.multiply(a.data, 0.5)
    np.tanh(out_data, out=out_data)
    out_data *= 0.5
    out_data += 0.5

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def identity(a: Tensor) -> Tensor:
    return a


ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh, "identity": identity}


# -- reductions / shaping ----------------------------------------------------


def total(a: Tensor) -> Tensor:
    out_data = np.array(a.data.sum())

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(out_data, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.array(a.data.mean())

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g) / n))

    return _make(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(out_data, tuple(tensors), backward)


def slice_last(a: Tensor, lo: int, hi: int) -> Tensor:
    """Select channels `lo:hi` of the last axis."""
    out_data = a.data[..., lo:hi]

    def backward(g):
        # sibling slices of one tensor fill one gradient buffer in place
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[..., lo:hi] += g

    return _make(out_data, (a,), backward)


def take_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along an axis, dropping that axis."""
    out_data = a.data.take(index, axis=axis)

    def backward(g):
        da = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        da[tuple(sl)] = g
        a._accumulate(da)

    return _make(out_data, (a,), backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 1 (the sensor axis); duplicates accumulate."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[:, idx]

    def backward(g):
        da = np.zeros_like(a.data)
        np.add.at(da, (slice(None), idx), g)
        a._accumulate(da)

    return _make(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul supports 2-D operands only")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), backward)


# -- convolution / pooling ----------------------------------------------------


def _im2col(xd: np.ndarray, kh: int, kw: int, s1: int, s2: int) -> np.ndarray:
    """Unroll every (kh, kw) patch of `xd` into a row ordered (p, q, channel)."""
    win = sliding_window_view(xd, (kh, kw), axis=(1, 2))[:, ::s1, ::s2]
    B, ho, wo, cin = win.shape[:4]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(B * ho * wo, kh * kw * cin)


def conv2d(x: Tensor, w: Tensor, strides=(1, 1), padding: str = "valid") -> Tensor:
    """Cross-correlate `x` (batch, H, W, Cin) with `w` (kh, kw, Cin, Cout).

    `padding` is "valid" (no padding) or "same" (stride must be 1; output
    keeps the spatial shape).  Bias and activation are applied by callers.
    The convolution is unrolled (im2col): every receptive field becomes one
    row of a (B*Ho*Wo, kh*kw*Cin) matrix, multiplied once by the kernel.
    """
    kh, kw, cin, cout = w.data.shape
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D, got {x.data.shape}")
    if x.data.shape[3] != cin:
        raise ShapeError(f"channel mismatch: input {x.data.shape[3]}, kernel {cin}")
    s1, s2 = strides
    if padding == "same":
        if (s1, s2) != (1, 1):
            raise ShapeError("same padding requires stride 1")
        pads = ((0, 0), ((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2), (0, 0))
        xd = np.pad(x.data, pads)
    elif padding == "valid":
        pads = None
        xd = x.data
    else:
        raise ValueError(f"unknown padding {padding!r}")
    B, H, W, _ = xd.shape
    if kh > H or kw > W:
        raise ShapeError(f"kernel ({kh},{kw}) larger than input ({H},{W})")
    ho = (H - kh) // s1 + 1
    wo = (W - kw) // s2 + 1
    wmat = w.data.reshape(kh * kw * cin, cout)
    out_data = (_im2col(xd, kh, kw, s1, s2) @ wmat).reshape(B, ho, wo, cout)

    def backward(g):
        # the columns are rebuilt here: kept alive by the graph they would
        # hold a kh*kw-fold copy of every input until backward runs
        gf = g.reshape(-1, cout)
        if w.requires_grad:
            w._accumulate((_im2col(xd, kh, kw, s1, s2).T @ gf).reshape(w.data.shape))
        if x.requires_grad:
            dcols = (gf @ wmat.T).reshape(B, ho, wo, kh, kw, cin)
            dxd = np.zeros_like(xd)
            for p in range(kh):
                for q in range(kw):
                    dxd[:, p:p + s1 * ho:s1, q:q + s2 * wo:s2, :] += dcols[:, :, :, p, q, :]
            if pads is not None:
                dxd = dxd[:, pads[1][0]:dxd.shape[1] - pads[1][1] or None,
                          pads[2][0]:dxd.shape[2] - pads[2][1] or None, :]
            x._accumulate(dxd)

    return _make(out_data, (x, w), backward)


def maxpool2d(x: Tensor, window) -> Tensor:
    """Non-overlapping block max over the two spatial axes of (B, H, W, C).

    Spatial dims must divide by the window (pad-free policy).  The gradient
    routes to the first maximal element of each block.
    """
    m, n = window
    B, H, W, C = x.data.shape
    if H % m != 0 or W % n != 0:
        raise ShapeError(f"spatial dims ({H},{W}) not divisible by window ({m},{n})")
    ho, wo = H // m, W // n
    blocks = (x.data.reshape(B, ho, m, wo, n, C)
              .transpose(0, 1, 3, 2, 4, 5)
              .reshape(B, ho, wo, m * n, C))
    idx = blocks.argmax(axis=3)
    out_data = np.take_along_axis(blocks, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def backward(g):
        dblocks = np.zeros_like(blocks)
        np.put_along_axis(dblocks, idx[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        dx = (dblocks.reshape(B, ho, wo, m, n, C)
              .transpose(0, 1, 3, 2, 4, 5)
              .reshape(B, H, W, C))
        x._accumulate(dx)

    return _make(out_data, (x,), backward)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None,
            mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Inference mode is the identity.  A fixed `mask` can be supplied so
    gradient checks can freeze the randomness.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if mask is None:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng or an explicit mask")
        mask = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    keep = mask.astype(np.float64) * scale
    out_data = x.data * keep

    def backward(g):
        x._accumulate(g * keep)

    out = _make(out_data, (x,), backward)
    out.dropout_mask = mask
    return out
