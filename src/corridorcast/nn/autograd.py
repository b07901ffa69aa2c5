"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a floating ndarray and records how it was produced.
Calling ``backward()`` on a scalar walks the graph in reverse topological
order and accumulates gradients into every leaf, that is every tensor
created with ``requires_grad=True``.  Only leaves keep ``.grad``: the walk
frees the graph as it goes, each node dropping its closure, its parents and
its gradient once its closure has run, so an activation dies as soon as no
later closure needs it.  A graph therefore serves one ``backward()``; a
second one raises ``GraphStateError``.  Inside ``with no_grad():``
operations record no graph at all, which is how inference runs.

Only the operations the forecaster needs are implemented: elementwise
arithmetic, matmul, the usual activations, 2-D convolution (valid/same
padding), block max-pooling, reshape, concatenation and integer gathers
along the sensor axis.  Every convolution is one banded-row matmul
(``_Band``) at stride 1: the kernel is expanded once per call into a
(kh*W*C, Wo*Cout) band holding the column padding, and each output row
multiplies its kh input rows, laid side by side, by the band.  The
ConvLSTM recurrence is one node of its own (``layers.ConvLSTMCell``) built
on the same band as ``conv2d``.

A ``Tensor`` keeps the floating dtype of the array it wraps; ints, bools,
lists and Python scalars become float64.  A constant operand of a binary
operation (``x * 2.0``, ``-x``) takes the tensor's dtype, and every buffer an
operation allocates, gradients included, takes the dtype of its operands.  So
a graph built from float32 arrays runs in float32 end to end, which is how
the forecaster trains and predicts, and one built from float64 arrays runs
in float64, which is how the central-difference gradient checks stay
meaningful at tight tolerances.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphStateError(RuntimeError):
    """Gradient requested in an invalid state (e.g. before a forward pass)."""


_grad_enabled = True
_FREED = object()  # the closure of a node whose graph an earlier backward() freed


@contextmanager
def no_grad():
    """Record no graph inside the block: results have no parents and no closure.

    The arithmetic is unchanged, so outputs are bit-identical to a graph-building
    pass; the previous state is restored on exit, also on an exception.
    """
    global _grad_enabled
    was, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = was


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
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
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
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph, freeing it.

        Gradients accumulate into the leaves' ``.grad``.  Each node that is not
        a leaf is popped in reverse topological order; leaves, having no
        closure to run, are left out of it.  After its closure runs a node
        drops the closure, its parents and its ``.grad``.  So only leaves
        keep a gradient, and the graph can be walked once: a second
        ``backward()`` through any of its nodes raises ``GraphStateError``.
        """
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
            if node._backward is _FREED:
                raise GraphStateError("backward() through a graph that an earlier "
                                      "backward() already freed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p._backward is not None and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        if self._backward is None:
            return  # a leaf keeps its gradient
        while topo:
            node = topo.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _FREED, (), None

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _operand(other, self))

    def __radd__(self, other):
        return add(_operand(other, self), self)

    def __sub__(self, other):
        return sub(self, _operand(other, self))

    def __rsub__(self, other):
        return sub(_operand(other, self), self)

    def __mul__(self, other):
        return mul(self, _operand(other, self))

    def __rmul__(self, other):
        return mul(_operand(other, self), self)

    def __neg__(self):
        return mul(self, _operand(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, _operand(other, self))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operand(x, like: Tensor) -> Tensor:
    """The other operand of a binary op on `like`: a constant takes `like`'s dtype.

    Under NumPy 2 a float64 constant would otherwise upcast a float32 tensor.
    """
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data, parents, backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


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


def _sigmoid(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigmoid(a) into `out`, which may be `a`.

    1/(1+exp(-x)) == (1+tanh(x/2))/2, which cannot overflow; one buffer,
    since a second large temporary costs more than the tanh itself.
    """
    np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data, np.empty_like(a.data))

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


class _Band:
    """A 2-D convolution as one matmul of input rows with a banded kernel matrix.

    The (kh, kw, C, G, n) kernel is expanded once into a band of shape
    (kh*W*C, G*Wo*n) for inputs W columns wide: the entry at row (p, col, c)
    and column (k, j, f) is w[p, q, c, k, f] where col = j + q - left, and
    zero where that tap falls outside the W columns.  So column padding lives
    in the band, and an input is padded along its rows only.  The stride is
    1: each output row multiplies its kh input rows, laid side by side, by
    the band.  Down a band column the nonzero terms keep the (p, q, c)
    order of a plain receptive-field sum.  G splits the output channels into
    groups laid out (group, column, channel), so one group is a slice with
    runs of Wo*n; `conv2d` uses one group, the ConvLSTM one per gate.
    """

    def __init__(self, w: np.ndarray, width: int, cols=(0, 0)):
        self.kh, kw, self.c, self.groups, self.n = w.shape
        self.width = width
        self.wo = width + cols[0] + cols[1] - kw + 1
        # (q, j, col): kernel column q of output column j reads input column col
        self.taps = [(q, j, j + q - cols[0]) for q in range(kw) for j in range(self.wo)
                     if 0 <= j + q - cols[0] < width]
        band = np.zeros((self.kh, width, self.c, self.groups, self.wo, self.n), dtype=w.dtype)
        for q, j, col in self.taps:
            band[:, col, :, :, j] = w[:, q]
        self.kernel_shape = w.shape
        self.matrix = band.reshape(self.kh * width * self.c, -1)

    def out_rows(self, height: int) -> int:
        return height - self.kh + 1

    def rows(self, xp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(B, Hp, W, C) row-padded input -> (B*Ho, kh*W*C): each output row's kh input rows.

        `out`, if given, is a (B, Ho, kh, W, C) buffer to fill.
        """
        B = xp.shape[0]
        ho = self.out_rows(xp.shape[1])
        if out is None:
            out = np.empty((B, ho, self.kh) + xp.shape[2:], dtype=xp.dtype)
        for p in range(self.kh):
            out[:, :, p] = xp[:, p:p + ho]
        return out.reshape(B * ho, -1)

    def fold(self, dband: np.ndarray) -> np.ndarray:
        """Adjoint of the expansion: sum a band gradient along its diagonals into the kernel's."""
        d = dband.reshape(self.kh, self.width, self.c, self.groups, self.wo, self.n)
        dw = np.zeros(self.kernel_shape, dtype=dband.dtype)
        for q, j, col in self.taps:
            dw[:, q] += d[:, col, :, :, j]
        return dw

    def scatter(self, drows: np.ndarray, shape) -> np.ndarray:
        """Adjoint of `rows`: add (B*Ho, kh*W*C) row gradients into a zero array of `shape`."""
        B, hp = shape[:2]
        ho = self.out_rows(hp)
        d = drows.reshape((B, ho, self.kh) + tuple(shape[2:]))
        dxp = np.zeros(shape, dtype=drows.dtype)
        for p in range(self.kh):
            dxp[:, p:p + ho] += d[:, :, p]
        return dxp


def _same_pads(kh: int, kw: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(top, bottom) and (left, right) padding that keeps the spatial shape at stride 1."""
    return ((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2)


def conv2d(x: Tensor, w: Tensor, padding: str = "valid") -> Tensor:
    """Cross-correlate `x` (batch, H, W, Cin) with `w` (kh, kw, Cin, Cout) at stride 1.

    `padding` is "valid" (no padding) or "same" (output keeps the spatial
    shape).  Bias and activation are applied by callers.  The kernel is
    expanded into a (kh*W*Cin, Wo*Cout) band (`_Band`) that holds the column
    padding; the input, padded along its rows only, becomes a
    (B*Ho, kh*W*Cin) matrix of each output row's kh input rows, multiplied
    once by the band.  Backward folds `rows.T @ g` back onto the kernel and
    scatters `g @ band.T` with kh row adds.
    """
    kh, kw, cin, cout = w.data.shape
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D, got {x.data.shape}")
    if x.data.shape[3] != cin:
        raise ShapeError(f"channel mismatch: input {x.data.shape[3]}, kernel {cin}")
    if padding == "same":
        (top, bottom), cols = _same_pads(kh, kw)
    elif padding == "valid":
        (top, bottom), cols = (0, 0), (0, 0)
    else:
        raise ValueError(f"unknown padding {padding!r}")
    B, H, W, _ = x.data.shape
    if kh > H + top + bottom or kw > W + sum(cols):
        raise ShapeError(f"kernel ({kh},{kw}) larger than input ({H},{W})")
    xd = np.pad(x.data, ((0, 0), (top, bottom), (0, 0), (0, 0))) if top + bottom else x.data
    band = _Band(w.data[:, :, :, None, :], W, cols)
    ho = band.out_rows(xd.shape[1])
    out_data = (band.rows(xd) @ band.matrix).reshape(B, ho, band.wo, cout)

    def backward(g):
        # the rows are rebuilt here: kept alive by the graph they would hold a
        # kh-fold copy of every input until backward runs
        gf = g.reshape(B * ho, -1)
        if w.requires_grad:
            w._accumulate(band.fold(band.rows(xd).T @ gf).reshape(w.data.shape))
        if x.requires_grad:
            x._accumulate(band.scatter(gf @ band.matrix.T, xd.shape)[:, top:top + H])

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
