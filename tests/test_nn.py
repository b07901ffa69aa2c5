import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from corridorcast import files
from corridorcast import model as md
from corridorcast import nn
from corridorcast.nn import Tensor
from corridorcast.nn.autograd import ShapeError, _make

from conftest import assert_grads_close, central_difference_grads


# -- oracles ---------------------------------------------------------------


def conv2d_loop(x, w):
    """Direct nested-loop cross-correlation, the slow reference."""
    bsz, height, width, cin = x.shape
    kh, kw, _, cout = w.shape
    ho = height - kh + 1
    wo = width - kw + 1
    out = np.zeros((bsz, ho, wo, cout))
    for b in range(bsz):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = 0.0
                    for p in range(kh):
                        for q in range(kw):
                            for ci in range(cin):
                                acc += x[b, i + p, j + q, ci] * w[p, q, ci, co]
                    out[b, i, j, co] = acc
    return out


def maxpool_loop(x, window):
    m, n = window
    bsz, height, width, c = x.shape
    out = np.zeros((bsz, height // m, width // n, c))
    for b in range(bsz):
        for i in range(height // m):
            for j in range(width // n):
                for ch in range(c):
                    out[b, i, j, ch] = x[b, i * m:(i + 1) * m, j * n:(j + 1) * n, ch].max()
    return out


def scalar_peephole_lstm(x, h, c, p):
    """Scalar transcription of the five gate equations."""
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    i = sig(p["wxi"] * x + p["whi"] * h + p["wci"] * c + p["bi"])
    f = sig(p["wxf"] * x + p["whf"] * h + p["wcf"] * c + p["bf"])
    c2 = f * c + i * math.tanh(p["wxc"] * x + p["whc"] * h + p["bc"])
    o = sig(p["wxo"] * x + p["who"] * h + p["wco"] * c2 + p["bo"])
    return o * math.tanh(c2), c2


def _slice_last(a, lo, hi):
    """Channels lo:hi of the last axis; sibling slices share one gradient buffer."""
    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[..., lo:hi] += g

    return _make(a.data[..., lo:hi], (a,), backward)


def _take_step(a, t):
    """Time step t of a (batch, T, ...) tensor, dropping the time axis."""
    def backward(g):
        da = np.zeros_like(a.data)
        da[:, t] = g
        a._accumulate(da)

    return _make(a.data.take(t, axis=1), (a,), backward)


def reference_convlstm_step(cell, x, h_prev, c_prev):
    """The per-step ConvLSTM chain (about 22 autograd nodes) that the fused
    recurrence replaced, kept as its exact-parity oracle: one convolution of
    the channel-stacked [x, h] with a kernel stacked on every call, four gate
    slices and the elementwise ops in the same order."""
    p = cell.parameters()
    kernel = nn.concat([nn.concat([p[f"wx{g}"] for g in cell.GATES], axis=3),
                        nn.concat([p[f"wh{g}"] for g in cell.GATES], axis=3)], axis=2)
    z = nn.conv2d(nn.concat([x, h_prev], axis=3), kernel, padding="same")
    n = cell.filters
    zi, zf, zc, zo = (_slice_last(z, k * n, (k + 1) * n) for k in range(4))
    i = nn.sigmoid(zi + p["wci"] * c_prev + p["bi"])
    f = nn.sigmoid(zf + p["wcf"] * c_prev + p["bf"])
    c = f * c_prev + i * nn.tanh(zc + p["bc"])
    o = nn.sigmoid(zo + p["wco"] * c + p["bo"])
    return o * nn.tanh(c), c


# -- conv2d ------------------------------------------------------------------


def test_conv2d_identity_kernel(rng):
    x = rng.normal(size=(2, 3, 4, 1))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = nn.conv2d(Tensor(x), w) + Tensor(np.zeros(1))
    assert np.array_equal(out.data, x)


def test_conv2d_zero_kernel(rng):
    x = rng.normal(size=(2, 4, 4, 3))
    w = Tensor(np.zeros((2, 2, 3, 5)))
    out = nn.conv2d(Tensor(x), w) + Tensor(np.zeros(5))
    assert np.all(out.data == 0.0)


def test_conv2d_matches_loop_oracle(rng):
    x = rng.normal(size=(1, 4, 4, 1))
    w = rng.normal(size=(2, 2, 1, 1))
    out = nn.conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, conv2d_loop(x, w), atol=1e-12)


def test_conv2d_multichannel_matches_oracle(rng):
    x = rng.normal(size=(3, 6, 5, 2))
    w = rng.normal(size=(3, 2, 2, 4))
    out = nn.conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, conv2d_loop(x, w), atol=1e-12)


def test_conv2d_same_padding_keeps_shape(rng):
    x = rng.normal(size=(2, 5, 4, 3))
    w = rng.normal(size=(3, 3, 3, 2))
    out = nn.conv2d(Tensor(x), Tensor(w), padding="same")
    assert out.data.shape == (2, 5, 4, 2)


@pytest.mark.parametrize("padding,kh,kw", [("same", 3, 3), ("same", 3, 2), ("same", 5, 2),
                                           ("valid", 5, 2)])
def test_conv2d_same_padding_matches_loop_oracle(rng, padding, kh, kw):
    # 3x2 pads its columns (0, 1); kh == H = 5 spans every input row, and
    # gives one output row when valid, as MultiKernelConv uses it
    x = rng.normal(size=(2, 5, 4, 3))
    w = rng.normal(size=(kh, kw, 3, 2))
    pads = ((0, 0), ((kh - 1) // 2, kh // 2), ((kw - 1) // 2, kw // 2), (0, 0))
    want = conv2d_loop(np.pad(x, pads) if padding == "same" else x, w)
    out = nn.conv2d(Tensor(x), Tensor(w), padding=padding)
    assert out.data.shape == want.shape
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)


def test_conv2d_kernel_too_large(rng):
    x = rng.normal(size=(1, 2, 2, 1))
    w = rng.normal(size=(3, 3, 1, 1))
    with pytest.raises(ShapeError):
        nn.conv2d(Tensor(x), Tensor(w))


# -- maxpool -----------------------------------------------------------------


def test_maxpool_constant(rng):
    x = np.full((2, 4, 4, 3), 2.5)
    out = nn.maxpool2d(Tensor(x), (2, 2))
    assert np.all(out.data == 2.5)


def test_maxpool_2x2():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out = nn.maxpool2d(Tensor(x), (2, 2))
    assert out.data.reshape(()) == 4.0


def test_maxpool_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 6, 4, 3))
    out = nn.maxpool2d(Tensor(x), (3, 2))
    assert np.array_equal(out.data, maxpool_loop(x, (3, 2)))


def test_maxpool_rejects_nondivisible(rng):
    with pytest.raises(ShapeError):
        nn.maxpool2d(Tensor(rng.normal(size=(1, 5, 4, 1))), (2, 2))


# -- multikernel convolution ----------------------------------------------------


def multikernel(members, kernels, biases):
    """A MultiKernelConv over the clusters `members` whose kernels and biases
    are set to the given arrays."""
    _, time_kernel, n_features, filters = kernels[0].shape
    layer = nn.MultiKernelConv(np.random.default_rng(0), members, time_kernel, n_features,
                               filters)
    nn.restore_params(layer.parameters(), {
        **{f"k{ci}": w for ci, w in enumerate(kernels)},
        **{f"b{ci}": b for ci, b in enumerate(biases)}})
    return layer


def test_multikernel_full_window_is_dense(rng):
    # one cluster over all sensors, kernel spanning the whole time window:
    # a single output position equal to a dense map of the block
    x = rng.normal(size=(2, 3, 5, 2))
    w = rng.normal(size=(3, 5, 2, 4))
    outs = multikernel([[0, 1, 2]], [w], [np.zeros(4)])(Tensor(x))
    assert len(outs) == 1 and outs[0].data.shape == (2, 1, 1, 4)
    dense = np.maximum(x.reshape(2, -1) @ w.reshape(-1, 4), 0.0)
    assert np.allclose(outs[0].data.reshape(2, 4), dense, atol=1e-12)


def test_multikernel_zero_kernels(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [2, 3]]
    layer = multikernel(members, [np.zeros((2, 3, 3, 2)) for _ in members],
                        [np.zeros(2) for _ in members])
    assert all(np.all(o.data == 0.0) for o in layer(Tensor(x)))


def test_multikernel_matches_gather_oracle(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [1, 2, 3]]
    kernels = [rng.normal(size=(len(m), 3, 3, 2)) for m in members]
    biases = [rng.normal(size=2) for _ in members]
    outs = multikernel(members, kernels, biases)(Tensor(x))
    for m, w, b, out in zip(members, kernels, biases, outs):
        expected = np.maximum(conv2d_loop(x[:, m, :, :], w) + b, 0.0)
        assert np.allclose(out.data, expected, atol=1e-12)


def test_multikernel_never_mixes_clusters(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [2, 3]]
    layer = multikernel(members, [rng.normal(size=(2, 3, 3, 2)) for _ in members],
                        [rng.normal(size=2) for _ in members])
    base = layer(Tensor(x))
    x2 = x.copy()
    x2[:, [2, 3], :, :] = 0.0  # zero cluster 1's sensors
    mod = layer(Tensor(x2))
    assert np.array_equal(base[0].data, mod[0].data)
    assert not np.array_equal(base[1].data, mod[1].data)


# -- ConvLSTM ---------------------------------------------------------------------


def make_cell(rng, spatial=(3, 2), cin=2, filters=2, kernel=3):
    return nn.ConvLSTMCell(rng, spatial, cin, filters, kernel)


def test_convlstm_zero_parameters_zero_output(rng):
    # every gate is sigmoid(0) = 0.5 and the candidate tanh(0) = 0, so c and
    # h stay exactly 0 over the whole window
    cell = make_cell(rng)
    for p in cell.parameters().values():
        p.data[...] = 0.0
    x = Tensor(rng.normal(size=(2, 3, 3, 2, 2)))
    assert np.all(cell(x, sequence=True).data == 0.0)
    assert np.all(cell(x).data == 0.0)


def test_convlstm_forget_bias_saturation(rng):
    # with a huge forget bias the second step's cell state keeps the first
    # step's plus the input-gated candidate; a huge output bias makes
    # h = tanh(c), so c can be read through h
    cell = make_cell(rng)
    cell.parameters()["bf"].data[...] = 20.0
    cell.parameters()["bo"].data[...] = 20.0
    x = rng.normal(size=(2, 2, 3, 2, 2)) * 0.1
    h2 = cell(Tensor(x))
    p = {k: t.data for k, t in cell.parameters().items()}
    pad = ((0, 0), (1, 1), (1, 1), (0, 0))

    def pre(gate, x_t, h_prev):
        return (conv2d_loop(np.pad(x_t, pad), p[f"wx{gate}"])
                + conv2d_loop(np.pad(h_prev, pad), p[f"wh{gate}"]))

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    c, h = np.zeros((2, 3, 2, 2)), np.zeros((2, 3, 2, 2))
    for t in range(2):
        c = c + (sig(pre("i", x[:, t], h) + p["wci"] * c + p["bi"])
                 * np.tanh(pre("c", x[:, t], h) + p["bc"]))
        h = np.tanh(c)
    assert np.abs(c).max() > 0.01
    assert np.allclose(h2.data, h, atol=1e-6)


def test_convlstm_scalar_oracle(rng):
    # 1x1 spatial grid with 1x1 kernels degenerates to a scalar peephole LSTM;
    # from step 2 on the state it reads is nonzero
    cell = nn.ConvLSTMCell(rng, (1, 1), 1, 1, kernel=1)
    params = {name: rng.normal() for name in
              ("wxi", "whi", "wci", "bi", "wxf", "whf", "wcf", "bf",
               "wxc", "whc", "bc", "wxo", "who", "wco", "bo")}
    for name, val in params.items():
        cell._params[name].data[...] = val
    xs = (0.7, -0.4, 0.9)
    hs = cell(Tensor(np.reshape(xs, (1, 3, 1, 1, 1))), sequence=True)
    h, c = 0.0, 0.0
    for t, x in enumerate(xs):
        h, c = scalar_peephole_lstm(x, h, c, params)
        assert abs(hs.data[0, t].item() - h) < 1e-12
    assert c != 0.0


def test_convlstm_fused_gates_match_per_gate_convolutions(rng):
    # the stacked kernel must keep the i, f, c, o gate order on its output
    # axis and the x-then-h order on its input axis; three steps, so the
    # hidden and cell states are nonzero from step 2
    cell = make_cell(rng, spatial=(4, 3), cin=3, filters=4, kernel=3)
    for p in cell.parameters().values():
        p.data[...] = rng.normal(size=p.data.shape) * 0.5
    x = rng.normal(size=(2, 3, 4, 3, 3))
    hs = cell(Tensor(x), sequence=True)

    p = {k: t.data for k, t in cell.parameters().items()}
    pad = ((0, 0), (1, 1), (1, 1), (0, 0))

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h, c = np.zeros((2, 4, 3, 4)), np.zeros((2, 4, 3, 4))
    for t in range(3):
        xp, hp = np.pad(x[:, t], pad), np.pad(h, pad)

        def pre(g):
            return conv2d_loop(xp, p[f"wx{g}"]) + conv2d_loop(hp, p[f"wh{g}"])

        i = sig(pre("i") + p["wci"] * c + p["bi"])
        f = sig(pre("f") + p["wcf"] * c + p["bf"])
        c = f * c + i * np.tanh(pre("c") + p["bc"])
        o = sig(pre("o") + p["wco"] * c + p["bo"])
        h = o * np.tanh(c)
        assert np.allclose(hs.data[:, t], h, rtol=0, atol=1e-12)


def test_convlstm_sequence_matches_per_step_oracle(rng):
    check_sequence_against_per_step_oracle(rng, kernel=3)


@pytest.mark.parametrize("kernel", [1, 2, 5])
def test_convlstm_sequence_matches_per_step_oracle_other_kernels(rng, kernel):
    # kernel 1 has a block-diagonal band; kernel 2 pads rows and columns
    # (0, 1); with kernel 5 on 4 columns some taps of the edge columns fall
    # wholly outside the grid
    check_sequence_against_per_step_oracle(rng, kernel)


def check_sequence_against_per_step_oracle(rng, kernel):
    # two stacked cells on the desk grid (24 sensors x 4 channels) over a
    # 6-step window, wired as in the forecaster; every parameter random, so
    # the peepholes and biases are nonzero
    b, steps, grid = 3, 6, (24, 4)
    cells = [make_cell(rng, spatial=grid, cin=2, filters=4, kernel=kernel),
             make_cell(rng, spatial=grid, cin=4, filters=8, kernel=kernel)]
    for cell in cells:
        for p in cell.parameters().values():
            p.data = 0.5 * rng.normal(size=p.data.shape)
    x = Tensor(rng.normal(size=(b, steps) + grid + (2,)), requires_grad=True)
    weights = [rng.normal(size=(b, steps) + grid + (4,)), rng.normal(size=(b,) + grid + (8,))]

    def fused():
        hs1 = cells[0](x, sequence=True)
        return hs1, cells[1](hs1)

    def oracle():
        h1 = c1 = Tensor(np.zeros((b,) + grid + (4,)))
        h2 = c2 = Tensor(np.zeros((b,) + grid + (8,)))
        seq = []
        for t in range(steps):
            h1, c1 = reference_convlstm_step(cells[0], _take_step(x, t), h1, c1)
            h2, c2 = reference_convlstm_step(cells[1], h1, h2, c2)
            seq.append(nn.reshape(h1, (b, 1) + grid + (4,)))
        return nn.concat(seq, axis=1), h2

    leaves = {"x": x}
    for k, cell in enumerate(cells):
        leaves.update({f"{k}.{name}": p for name, p in cell.parameters().items()})
    results = []
    for run in (fused, oracle):
        for t in leaves.values():
            t.zero_grad()
        outs = run()
        terms = [nn.total(o * Tensor(wt)) for o, wt in zip(outs, weights)]
        (terms[0] + terms[1]).backward()
        results.append(([o.data for o in outs], {k: t.grad for k, t in leaves.items()}))
    (fused_out, fused_grads), (oracle_out, oracle_grads) = results
    for got, want in zip(fused_out, oracle_out):
        assert np.array_equal(got, want)
    assert len(fused_grads) == 1 + 2 * 15
    for name, want in oracle_grads.items():
        np.testing.assert_allclose(fused_grads[name], want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_convlstm_final_h_is_the_sequence_last_step(rng, dtype):
    # on the desk grid with every parameter random: the final-h call is the
    # last step of the sequence call, in its outputs and in the gradients of a
    # loss that reads only that step
    cell = make_cell(rng, spatial=(24, 4), cin=2, filters=4)
    for p in cell.parameters().values():
        p.data = 0.5 * rng.normal(size=p.data.shape)
    cell.cast(dtype)
    data = rng.normal(size=(3, 6, 24, 4, 2)).astype(dtype)
    weight = Tensor(rng.normal(size=(3, 24, 4, 4)).astype(dtype))
    runs = []
    for sequence in (False, True):
        for p in cell.parameters().values():
            p.zero_grad()
        x = Tensor(data.copy(), requires_grad=True)
        out = cell(x, sequence=sequence)
        h = _take_step(out, 5) if sequence else out
        nn.total(h * weight).backward()
        runs.append((h.data, x.grad, {k: p.grad for k, p in cell.parameters().items()}))
    (h, dx, grads), (h_seq, dx_seq, grads_seq) = runs
    assert h.dtype == dx.dtype == dtype
    assert np.array_equal(h, h_seq) and np.array_equal(dx, dx_seq)
    assert np.any(dx[:, 0] != 0.0)  # the gradient reaches the first step
    for name, g in grads.items():
        assert g.dtype == dtype and np.array_equal(g, grads_seq[name]), name


def test_convlstm_shape_mismatch(rng):
    cell = make_cell(rng)
    for shape in ((1, 2, 4, 2, 2), (1, 2, 3, 2, 3), (1, 3, 2, 2)):
        with pytest.raises(ShapeError):
            cell(Tensor(np.zeros(shape)))


# -- gradient checks ----------------------------------------------------------------


def test_gradcheck_dense(rng):
    layer = nn.Dense(rng, 5, 4, activation="tanh")
    x = rng.normal(size=(3, 5))

    def f():
        return float(nn.mean(nn.square(layer(Tensor(x)))).data)

    params = {k: p.data for k, p in layer.parameters().items()}
    numeric = central_difference_grads(f, params)
    for p in layer.parameters().values():
        p.zero_grad()
    nn.mean(nn.square(layer(Tensor(x)))).backward()
    assert_grads_close({k: p.grad for k, p in layer.parameters().items()}, numeric)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_gradcheck_conv2d(rng, padding):
    x = Tensor(rng.normal(size=(2, 5, 4, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 2, 3)), requires_grad=True)

    def f():
        return float(nn.mean(nn.square(nn.conv2d(x, w, padding=padding))).data)

    numeric = central_difference_grads(f, {"x": x.data, "w": w.data})
    x.zero_grad(), w.zero_grad()
    nn.mean(nn.square(nn.conv2d(x, w, padding=padding))).backward()
    assert_grads_close({"x": x.grad, "w": w.grad}, numeric)


def test_gradcheck_maxpool(rng):
    x = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)

    def f():
        return float(nn.total(nn.square(nn.maxpool2d(x, (2, 2)))).data)

    numeric = central_difference_grads(f, {"x": x.data})
    x.zero_grad()
    nn.total(nn.square(nn.maxpool2d(x, (2, 2)))).backward()
    assert_grads_close({"x": x.grad}, numeric)


def test_gradcheck_multikernel(rng):
    members = [[0, 1], [1, 2]]
    layer = nn.MultiKernelConv(rng, members, 2, 2, 3)
    x = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)

    def run():
        outs = layer(x)
        return nn.mean(nn.square(nn.concat([nn.reshape(o, (2, -1)) for o in outs], axis=1)))

    arrays = {"x": x.data}
    arrays.update({k: p.data for k, p in layer.parameters().items()})
    numeric = central_difference_grads(lambda: float(run().data), arrays)
    x.zero_grad()
    for p in layer.parameters().values():
        p.zero_grad()
    run().backward()
    analytic = {"x": x.grad}
    analytic.update({k: p.grad for k, p in layer.parameters().items()})
    assert_grads_close(analytic, numeric)


def test_gradcheck_convlstm_step(rng):
    # the final h after two steps: the second runs from the nonzero state
    # of the first
    cell = make_cell(rng, spatial=(2, 2), cin=1, filters=2, kernel=3)
    for p in cell.parameters().values():
        p.data = 0.5 * rng.normal(size=p.data.shape)
    x = Tensor(rng.normal(size=(2, 2, 2, 2, 1)), requires_grad=True)

    def run():
        return nn.mean(nn.square(cell(x)))

    leaves = {"x": x, **cell.parameters()}
    numeric = central_difference_grads(lambda: float(run().data),
                                       {k: t.data for k, t in leaves.items()})
    for t in leaves.values():
        t.zero_grad()
    run().backward()
    assert_grads_close({k: t.grad for k, t in leaves.items()}, numeric)


def test_gradcheck_convlstm_sequence(rng):
    cell = make_cell(rng, spatial=(3, 2), cin=2, filters=2, kernel=3)
    for p in cell.parameters().values():
        p.data = 0.5 * rng.normal(size=p.data.shape)
    x = Tensor(rng.normal(size=(2, 3, 3, 2, 2)), requires_grad=True)

    def run():
        return nn.mean(nn.square(cell(x, sequence=True)))

    leaves = {"x": x, **cell.parameters()}
    assert len(leaves) == 1 + 15
    numeric = central_difference_grads(lambda: float(run().data),
                                       {k: t.data for k, t in leaves.items()})
    for t in leaves.values():
        t.zero_grad()
    run().backward()
    assert_grads_close({k: t.grad for k, t in leaves.items()}, numeric)


def test_gradcheck_gather_and_concat(rng):
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

    def run():
        g1 = nn.gather_rows(x, [0, 1, 1])
        g2 = nn.gather_rows(x, [3])
        return nn.mean(nn.square(nn.concat([nn.reshape(g1, (2, -1)),
                                            nn.reshape(g2, (2, -1))], axis=1)))

    numeric = central_difference_grads(lambda: float(run().data), {"x": x.data})
    x.zero_grad()
    run().backward()
    assert_grads_close({"x": x.grad}, numeric)


# -- optimizer ------------------------------------------------------------------


def test_gradient_accumulates_over_repeated_operands(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = rng.normal(size=(3, 4))
    nn.total((a + a) * Tensor(g)).backward()
    assert np.array_equal(a.grad, 2.0 * g)

    a.zero_grad()
    nn.total(a * a * Tensor(g)).backward()
    assert np.allclose(a.grad, 2.0 * a.data * g, rtol=1e-15, atol=0)

    # the first write into each operand's gradient must be its own buffer
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    a.zero_grad()
    nn.total(a + b).backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert not np.shares_memory(a.grad, b.grad)


def test_quadratic_loss_gradient_exact(rng):
    w = Tensor(rng.normal(size=(7,)), requires_grad=True)
    nn.total(nn.square(w)).backward()
    assert np.allclose(w.grad, 2.0 * w.data, atol=0, rtol=0)


def test_adam_first_step_is_signlike(rng):
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = w.data.copy()
    adam = nn.Adam({"w": w}, lr=0.1)
    nn.total(nn.square(w)).backward()
    adam.step()
    g = 2.0 * before
    expected = before - 0.1 * g / (np.sqrt(g * g) + adam.eps)
    assert np.allclose(w.data, expected, atol=1e-9)
    assert np.allclose(w.data, before - 0.1 * np.sign(g), atol=1e-6)


def test_adam_training_is_deterministic(rng):
    def run():
        r = np.random.default_rng(99)
        layer = nn.Dense(r, 4, 3)
        x = r.normal(size=(8, 4))
        y = r.normal(size=(8, 3))
        adam = nn.Adam(layer.parameters(), lr=1e-2)
        for _ in range(25):
            loss = nn.mean(nn.square(layer(Tensor(x)) - Tensor(y)))
            adam.zero_grad()
            loss.backward()
            adam.step()
        return {k: p.data.copy() for k, p in layer.parameters().items()}

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_adam_in_place_matches_the_out_of_place_formula(rng):
    # parameters as small as one update, so that a last-bit difference in the
    # update survives the subtraction
    params = {f"p{i}": Tensor(1e-3 * rng.normal(size=shape), requires_grad=True)
              for i, shape in enumerate([(7, 5), (3,), (2, 3, 4)])}
    adam = nn.Adam(params, lr=1e-3)
    b1, b2, lr, eps = adam.beta1, adam.beta2, adam.lr, adam.eps
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    buffers = [adam.m[k] for k in params] + [adam.v[k] for k in params]
    data = [p.data for p in params.values()]
    for t in range(1, 6):
        for k, p in params.items():
            g = p.grad = rng.normal(size=p.data.shape) * np.exp(rng.normal(size=p.data.shape))
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        adam.step()
    for k, p in params.items():
        assert p.data.dtype == np.float64
        assert np.array_equal(p.data, ref[k]), k
        assert np.array_equal(adam.m[k], m[k]) and np.array_equal(adam.v[k], v[k]), k
    # updated in place: the same arrays as before the first step
    assert all(a is b for a, b in zip(buffers, [adam.m[k] for k in params]
                                      + [adam.v[k] for k in params]))
    assert all(a is p.data for a, p in zip(data, params.values()))


def test_adam_rejects_a_missing_gradient(rng):
    params = {"a": Tensor(rng.normal(size=(3,)), requires_grad=True),
              "b": Tensor(rng.normal(size=(2, 2)), requires_grad=True)}
    adam = nn.Adam(params)
    before = {k: p.data.copy() for k, p in params.items()}
    nn.total(nn.square(params["a"])).backward()
    with pytest.raises(nn.GraphStateError, match="'b'"):
        adam.step()
    assert adam.step_count == 0
    assert all(np.array_equal(p.data, before[k]) for k, p in params.items())
    with pytest.raises(TypeError, match="dtypes"):
        nn.Adam({"a": params["a"], "c": Tensor(np.zeros(2, np.float32), requires_grad=True)})


def test_adam_steps_the_values_restored_after_construction(rng):
    def stepped(layer, restore):
        adam = nn.Adam(layer.parameters(), lr=1e-2)
        if restore is not None:
            nn.restore_params(layer.parameters(), restore)
        for k, p in layer.parameters().items():
            p.grad = grads[k].copy()
        adam.step()
        return {k: p.data.copy() for k, p in layer.parameters().items()}

    restored = nn.Dense(np.random.default_rng(1), 4, 3)
    grads = {k: rng.normal(size=p.data.shape) for k, p in restored.parameters().items()}
    values = {k: rng.normal(size=g.shape) for k, g in grads.items()}
    fresh = nn.Dense(np.random.default_rng(2), 4, 3)
    nn.restore_params(fresh.parameters(), values)
    expected = stepped(fresh, None)
    got = stepped(restored, values)  # restore_params copies into Adam's views
    assert all(np.array_equal(got[k], expected[k]) for k in expected)


def test_adam_holds_only_its_moments_between_steps(rng):
    # the parameters move into one buffer next to m and v; a step's transient
    # is the gathered gradients and one scratch vector, and holding those two
    # across steps would add 3.6 MiB here
    clusters = [list(range(lo, lo + 4)) for lo in range(0, 24, 4)]
    params = md.build_forecaster(clusters, 24, 3, md.ForecasterConfig.desk(),
                                 seed=1).parameters()
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
    size = sum(p.data.nbytes for p in params.values())
    slack = size // 8  # the views' array objects and the dicts of m and v
    tracemalloc.start()
    try:
        adam = nn.Adam(params)
        built, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adam.step()
        adam.step()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 2**20
    assert built < 3 * size + slack
    assert held - built < slack
    assert peak - built < 2 * size + slack


def test_tensor_dtype_rule(rng):
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor([1, 2]).data.dtype == np.float64
    assert Tensor(True).data.dtype == np.float64
    assert Tensor(2.5).data.dtype == np.float64
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    assert x.data.dtype == np.float32
    # a scalar constant, -x included, takes the tensor's dtype: a float64 0-d
    # array would upcast float32 under NumPy 2
    outs = [-x, x * 2.0, 2.0 * x, x + 1, 1.0 - x, x - np.float64(0.5)]
    assert all(o.data.dtype == np.float32 for o in outs)
    loss = nn.mean(nn.square(nn.sigmoid(outs[1]) - nn.tanh(outs[0])))
    assert loss.data.dtype == np.float32
    loss.backward()
    assert x.grad.dtype == np.float32
    x64 = Tensor(x.data.astype(np.float64))
    assert (-x64).data.dtype == np.float64


def test_backward_requires_scalar(rng):
    w = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with pytest.raises(nn.GraphStateError):
        nn.square(w).backward()


# -- graph lifetime ------------------------------------------------------------------


def test_no_grad_records_no_graph_and_restores_the_flag(rng):
    cell = nn.ConvLSTMCell(rng, (3, 2), 2, 3)
    x = Tensor(rng.normal(size=(2, 2, 3, 2, 2)), requires_grad=True)
    with_graph = cell(x, sequence=True)
    with nn.no_grad():
        hs, h = cell(x, sequence=True), cell(x)
    for out in (hs, h):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert np.array_equal(hs.data, with_graph.data)

    with pytest.raises(KeyError):
        with nn.no_grad():
            raise KeyError("inside")
    again = cell(x)
    assert again.requires_grad and again._parents


def test_backward_frees_intermediates_and_keeps_leaf_grads(rng):
    layer = nn.Dense(rng, 4, 3, activation="tanh")
    x = Tensor(rng.normal(size=(5, 4)))
    hidden = layer(x)
    alive = weakref.ref(hidden)
    loss = nn.mean(nn.square(hidden))
    del hidden
    assert alive() is not None  # the graph holds it until backward runs
    loss.backward()
    assert alive() is None
    assert loss.grad is None and loss._parents == ()
    grads = {k: p.grad for k, p in layer.parameters().items()}
    assert all(g is not None and g.shape == layer.parameters()[k].data.shape
               for k, g in grads.items())


def test_second_backward_on_freed_graph_raises(rng):
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    shared = nn.tanh(nn.matmul(x, w))
    loss = nn.total(nn.square(shared))
    loss.backward()
    first = w.grad.copy()
    with pytest.raises(nn.GraphStateError):
        loss.backward()
    # a new graph that reaches a freed node raises too, before touching any grad
    with pytest.raises(nn.GraphStateError):
        nn.total(shared).backward()
    assert np.array_equal(w.grad, first)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path, rng):
    layer = nn.Dense(rng, 6, 5)
    path = str(tmp_path / "ckpt.txt")
    nn.save_params(path, layer.parameters())
    loaded = nn.load_params(path)
    for name, p in layer.parameters().items():
        assert np.array_equal(loaded[name], p.data)


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    layer = nn.Dense(rng, 3, 2)
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    nn.save_params(p1, layer.parameters())
    nn.save_params(p2, layer.parameters())
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_restore_shape_mismatch(tmp_path, rng):
    layer = nn.Dense(rng, 3, 2)
    path = str(tmp_path / "c.txt")
    nn.save_params(path, layer.parameters())
    other = nn.Dense(rng, 3, 4)
    with pytest.raises(nn.CheckpointError):
        nn.restore_params(other.parameters(), nn.load_params(path))


@pytest.fixture(scope="module")
def desk_params():
    """A desk forecaster's float32 parameters plus a float64 0-d and an empty one."""
    clusters = [list(range(lo, lo + 4)) for lo in range(0, 24, 4)]
    model = md.build_forecaster(clusters, 24, 3, md.ForecasterConfig.desk(), seed=1)
    params = model.parameters()
    params["scalar"] = Tensor(np.float64(-0.1))
    params["empty"] = Tensor(np.zeros((3, 0)))
    return params


def test_checkpoint_roundtrip_keeps_dtype_shape_and_order(tmp_path, desk_params):
    path = str(tmp_path / "ckpt.txt")
    nn.save_params(path, desk_params)
    loaded = nn.load_params(path)
    assert list(loaded) == list(desk_params)
    with np.load(path, allow_pickle=False) as archive:  # numpy's own .npz reader agrees
        assert archive.files == ["format", *desk_params]
        assert str(archive["format"]) == "corridorcast-ckpt-v2"
        for name, p in desk_params.items():
            for array in (loaded[name], archive[name]):
                assert array.dtype == p.data.dtype and array.shape == p.data.shape
                assert np.array_equal(array, p.data)


def test_checkpoint_truncated_or_bit_flipped_archive_raises(tmp_path, rng):
    path = tmp_path / "ckpt.txt"
    w = rng.normal(size=(4, 5)) + 3.0
    nn.save_params(str(path), {"w": Tensor(w)})
    body = path.read_bytes()
    flipped = bytearray(body)
    flipped[body.index(w.tobytes()) + 77] ^= 0x10  # a bit of one value
    for broken, reason in ((body[:len(body) // 2], "not a zip file"),
                           (body[:-1], "not a zip file"),
                           (bytes(flipped), "Bad CRC-32 for file 'w.npy'")):
        path.write_bytes(broken)
        with pytest.raises(nn.CheckpointError, match=reason):
            nn.load_params(str(path))


@pytest.mark.parametrize("arrays, message", [
    ({"w": np.ones(3)}, "format member is missing or differs"),
    ({"format": np.array("corridorcast-panel-v1"), "w": np.ones(3)},
     "format member is missing or differs"),
    ({"format": np.array(["corridorcast-ckpt-v2"]), "w": np.ones(3)},
     "format member is missing or differs"),
    ({"format": np.array("corridorcast-ckpt-v2"), "w": np.arange(3)},
     "parameter 'w' is not a floating array: int64"),
], ids=["no-format", "foreign-format", "format-not-0d", "integer-member"])
def test_checkpoint_format_and_member_dtypes_are_checked(tmp_path, arrays, message):
    path = str(tmp_path / "ckpt.txt")
    files.publish_arrays(path, arrays)
    with pytest.raises(nn.CheckpointError, match=message):
        nn.load_params(path)


def test_checkpoint_saves_seconds_apart_have_the_same_bytes(tmp_path, rng):
    # a zip member's date has a 2 s resolution, so the saves are further apart
    params = nn.Dense(rng, 3, 2).parameters()
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    nn.save_params(str(first), params)
    time.sleep(2.1)
    nn.save_params(str(second), params)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_failed_save_leaves_no_temp_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "ckpt.txt"
    good = Tensor(rng.normal(size=3))
    with pytest.raises(nn.CheckpointError):
        nn.save_params(str(path), {"a": good, "format": good})  # the format member's name
    not_floats = type("P", (), {"data": np.arange(3)})()
    with pytest.raises(TypeError):
        nn.save_params(str(path), {"a": good, "b": not_floats})
    headers = []
    real_header = np.lib.format.write_array_header_1_0

    def fail_on_the_second_parameter(member, header):
        headers.append(header)
        if len(headers) == 3:
            raise OSError(28, "No space left on device")
        real_header(member, header)
    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail_on_the_second_parameter)
    with pytest.raises(OSError) as caught:
        nn.save_params(str(path), {"a": good, "b": good})
    assert caught.value.filename == str(path)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_restore_copies_into_existing_arrays(tmp_path, rng):
    layer, other = nn.Dense(rng, 6, 5), nn.Dense(rng, 6, 5)
    path = str(tmp_path / "ckpt.txt")
    nn.save_params(path, layer.parameters())
    arrays = {name: p.data for name, p in other.parameters().items()}
    nn.restore_params(other.parameters(), nn.load_params(path))
    for name, p in other.parameters().items():
        assert p.data is arrays[name]
        assert np.array_equal(p.data, layer.parameters()[name].data)


def test_checkpoint_float32_roundtrip_is_byte_identical(tmp_path, rng):
    layer, other = nn.Dense(rng, 6, 5), nn.Dense(rng, 6, 5)
    layer.cast(np.float32)
    other.cast(np.float32)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    nn.save_params(str(first), layer.parameters())
    nn.restore_params(other.parameters(), nn.load_params(str(first)))
    nn.save_params(str(second), other.parameters())
    assert first.read_bytes() == second.read_bytes()
    assert str(files.read_arrays(str(first), "checkpoint")["format"]) == "corridorcast-ckpt-v2"
    for name, p in other.parameters().items():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, layer.parameters()[name].data)


def test_checkpoint_float64_into_float32_model_rounds(tmp_path, rng):
    layer, other = nn.Dense(rng, 6, 5), nn.Dense(rng, 6, 5)
    other.cast(np.float32)
    path = str(tmp_path / "ckpt64.txt")
    nn.save_params(path, layer.parameters())
    loaded = nn.load_params(path)
    nn.restore_params(other.parameters(), loaded)
    for name, p in other.parameters().items():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, np.float32(loaded[name]))
    w64 = layer.parameters()["w"].data
    assert not np.array_equal(other.parameters()["w"].data, w64)  # rounding happened


def test_checkpoint_io_memory_stays_bounded(tmp_path, desk_params):
    # a save writes each array from its own buffer, and a load holds the
    # parameters (1.8 MiB here) and one read of at most 256 KiB
    path = str(tmp_path / "ckpt.txt")
    peaks = []
    for call in (lambda: nn.save_params(path, desk_params), lambda: nn.load_params(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4 * 2**20
    assert peaks[1] < 6 * 2**20
