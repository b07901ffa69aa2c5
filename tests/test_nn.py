import math

import numpy as np
import pytest

from corridorcast import nn
from corridorcast.nn import Tensor
from corridorcast.nn.autograd import ShapeError

from conftest import assert_grads_close, central_difference_grads


# -- oracles ---------------------------------------------------------------


def conv2d_loop(x, w, strides=(1, 1)):
    """Direct nested-loop cross-correlation, the slow reference."""
    bsz, height, width, cin = x.shape
    kh, kw, _, cout = w.shape
    s1, s2 = strides
    ho = (height - kh) // s1 + 1
    wo = (width - kw) // s2 + 1
    out = np.zeros((bsz, ho, wo, cout))
    for b in range(bsz):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = 0.0
                    for p in range(kh):
                        for q in range(kw):
                            for ci in range(cin):
                                acc += x[b, i * s1 + p, j * s2 + q, ci] * w[p, q, ci, co]
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


# -- conv2d ------------------------------------------------------------------


def test_conv2d_identity_kernel(rng):
    x = rng.normal(size=(2, 3, 4, 1))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = nn.conv2d_forward(Tensor(x), w, Tensor(np.zeros(1)), activation="identity")
    assert np.array_equal(out.data, x)


def test_conv2d_zero_kernel(rng):
    x = rng.normal(size=(2, 4, 4, 3))
    w = Tensor(np.zeros((2, 2, 3, 5)))
    out = nn.conv2d_forward(Tensor(x), w, Tensor(np.zeros(5)), activation="identity")
    assert np.all(out.data == 0.0)


def test_conv2d_matches_loop_oracle(rng):
    x = rng.normal(size=(1, 4, 4, 1))
    w = rng.normal(size=(2, 2, 1, 1))
    out = nn.conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, conv2d_loop(x, w), atol=1e-12)


@pytest.mark.parametrize("strides", [(1, 1), (2, 1), (2, 2)])
def test_conv2d_multichannel_strided_matches_oracle(rng, strides):
    x = rng.normal(size=(3, 6, 5, 2))
    w = rng.normal(size=(3, 2, 2, 4))
    out = nn.conv2d(Tensor(x), Tensor(w), strides=strides)
    assert np.allclose(out.data, conv2d_loop(x, w, strides), atol=1e-12)


def test_conv2d_same_padding_keeps_shape(rng):
    x = rng.normal(size=(2, 5, 4, 3))
    w = rng.normal(size=(3, 3, 3, 2))
    out = nn.conv2d(Tensor(x), Tensor(w), padding="same")
    assert out.data.shape == (2, 5, 4, 2)


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


def test_multikernel_full_window_is_dense(rng):
    # one cluster over all sensors, kernel spanning the whole time window:
    # a single output position equal to a dense map of the block
    x = rng.normal(size=(2, 3, 5, 2))
    w = rng.normal(size=(3, 5, 2, 4))
    outs = nn.multikernel_conv_forward(
        Tensor(x), [[0, 1, 2]], [Tensor(w)], [Tensor(np.zeros(4))], activation="identity")
    assert len(outs) == 1 and outs[0].data.shape == (2, 1, 1, 4)
    dense = x.reshape(2, -1) @ w.reshape(-1, 4)
    assert np.allclose(outs[0].data.reshape(2, 4), dense, atol=1e-12)


def test_multikernel_zero_kernels(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [2, 3]]
    kernels = [Tensor(np.zeros((2, 3, 3, 2))) for _ in members]
    biases = [Tensor(np.zeros(2)) for _ in members]
    outs = nn.multikernel_conv_forward(Tensor(x), members, kernels, biases)
    assert all(np.all(o.data == 0.0) for o in outs)


def test_multikernel_matches_gather_oracle(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [1, 2, 3]]
    kernels = [Tensor(rng.normal(size=(len(m), 3, 3, 2))) for m in members]
    biases = [Tensor(rng.normal(size=2)) for _ in members]
    outs = nn.multikernel_conv_forward(Tensor(x), members, kernels, biases,
                                       activation="identity")
    for m, w, b, out in zip(members, kernels, biases, outs):
        expected = conv2d_loop(x[:, m, :, :], w.data) + b.data
        assert np.allclose(out.data, expected, atol=1e-12)


def test_multikernel_never_mixes_clusters(rng):
    x = rng.normal(size=(2, 4, 6, 3))
    members = [[0, 1], [2, 3]]
    kernels = [Tensor(rng.normal(size=(2, 3, 3, 2))) for _ in members]
    biases = [Tensor(rng.normal(size=2)) for _ in members]
    base = nn.multikernel_conv_forward(Tensor(x), members, kernels, biases)
    x2 = x.copy()
    x2[:, [2, 3], :, :] = 0.0  # zero cluster 1's sensors
    mod = nn.multikernel_conv_forward(Tensor(x2), members, kernels, biases)
    assert np.array_equal(base[0].data, mod[0].data)
    assert not np.array_equal(base[1].data, mod[1].data)


def test_multikernel_rejects_empty_cluster(rng):
    with pytest.raises(ValueError):
        nn.multikernel_conv_forward(Tensor(rng.normal(size=(1, 2, 4, 1))), [[]],
                                    [Tensor(np.zeros((0, 2, 1, 1)))], [Tensor(np.zeros(1))])


# -- ConvLSTM ---------------------------------------------------------------------


def make_cell(rng, spatial=(3, 2), cin=2, filters=2, kernel=3):
    return nn.ConvLSTMCell(rng, spatial, cin, filters, kernel)


def test_convlstm_zero_parameters_zero_output(rng):
    cell = make_cell(rng)
    for p in cell.parameters().values():
        p.data[...] = 0.0
    h0, c0 = cell.zero_state(2)
    x = Tensor(rng.normal(size=(2, 3, 2, 2)))
    h1, c1 = cell.step(x, h0, c0)
    assert np.all(h1.data == 0.0)
    assert np.all(c1.data == 0.0)


def test_convlstm_forget_bias_saturation(rng):
    # with a huge forget bias the cell state keeps its previous value plus
    # the input-gated candidate
    cell = make_cell(rng)
    cell.parameters()["bf"].data[...] = 20.0
    h_prev = Tensor(rng.normal(size=(2, 3, 2, 2)) * 0.1)
    c_prev = Tensor(rng.normal(size=(2, 3, 2, 2)) * 0.1)
    x = Tensor(rng.normal(size=(2, 3, 2, 2)) * 0.1)
    _, c1 = cell.step(x, h_prev, c_prev)
    p = cell._params
    pre_i = (conv2d_loop(np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0))), p["wxi"].data)
             + conv2d_loop(np.pad(h_prev.data, ((0, 0), (1, 1), (1, 1), (0, 0))),
                           p["whi"].data)
             + p["wci"].data * c_prev.data + p["bi"].data)
    pre_c = (conv2d_loop(np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0))), p["wxc"].data)
             + conv2d_loop(np.pad(h_prev.data, ((0, 0), (1, 1), (1, 1), (0, 0))),
                           p["whc"].data)
             + p["bc"].data)
    expected = c_prev.data + (1.0 / (1.0 + np.exp(-pre_i))) * np.tanh(pre_c)
    assert np.allclose(c1.data, expected, atol=1e-6)


def test_convlstm_scalar_oracle(rng):
    # 1x1 spatial grid with 1x1 kernels degenerates to a scalar peephole LSTM
    cell = nn.ConvLSTMCell(rng, (1, 1), 1, 1, kernel=1)
    params = {name: rng.normal() for name in
              ("wxi", "whi", "wci", "bi", "wxf", "whf", "wcf", "bf",
               "wxc", "whc", "bc", "wxo", "who", "wco", "bo")}
    for name, val in params.items():
        cell._params[name].data[...] = val
    x, h, c = 0.7, -0.4, 0.9
    h1, c1 = cell.step(Tensor(np.full((1, 1, 1, 1), x)),
                       Tensor(np.full((1, 1, 1, 1), h)),
                       Tensor(np.full((1, 1, 1, 1), c)))
    h_ref, c_ref = scalar_peephole_lstm(x, h, c, params)
    assert abs(h1.data.item() - h_ref) < 1e-12
    assert abs(c1.data.item() - c_ref) < 1e-12


def test_convlstm_fused_gates_match_per_gate_convolutions(rng):
    # the stacked kernel must keep the i, f, c, o gate order on its output
    # axis and the x-then-h order on its input axis
    cell = make_cell(rng, spatial=(4, 3), cin=3, filters=4, kernel=3)
    for p in cell.parameters().values():
        p.data[...] = rng.normal(size=p.data.shape) * 0.5
    x = rng.normal(size=(2, 4, 3, 3))
    h_prev = rng.normal(size=(2, 4, 3, 4))
    c_prev = rng.normal(size=(2, 4, 3, 4))
    h1, c1 = cell.step(Tensor(x), Tensor(h_prev), Tensor(c_prev))

    p = {k: t.data for k, t in cell.parameters().items()}
    pad = ((0, 0), (1, 1), (1, 1), (0, 0))
    xp, hp = np.pad(x, pad), np.pad(h_prev, pad)

    def pre(g):
        return conv2d_loop(xp, p[f"wx{g}"]) + conv2d_loop(hp, p[f"wh{g}"])

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    i = sig(pre("i") + p["wci"] * c_prev + p["bi"])
    f = sig(pre("f") + p["wcf"] * c_prev + p["bf"])
    c_ref = f * c_prev + i * np.tanh(pre("c") + p["bc"])
    o = sig(pre("o") + p["wco"] * c_ref + p["bo"])
    h_ref = o * np.tanh(c_ref)
    assert np.allclose(c1.data, c_ref, rtol=0, atol=1e-12)
    assert np.allclose(h1.data, h_ref, rtol=0, atol=1e-12)


def test_convlstm_shape_mismatch(rng):
    cell = make_cell(rng)
    h0, c0 = cell.zero_state(1)
    with pytest.raises(ShapeError):
        cell.step(Tensor(np.zeros((1, 4, 2, 2))), h0, c0)


# -- dropout ---------------------------------------------------------------------


def test_dropout_rate_zero_is_identity(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    assert nn.dropout(x, 0.0, training=True, rng=rng) is x


def test_dropout_inference_is_identity(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    assert nn.dropout(x, 0.5, training=False) is x


def test_dropout_preserves_mean(rng):
    x = Tensor(np.ones(100_000))
    out = nn.dropout(x, 0.2, training=True, rng=np.random.default_rng(7))
    assert abs(out.data.mean() - 1.0) < 0.01


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


@pytest.mark.parametrize("padding,strides", [("valid", (1, 1)), ("valid", (2, 1)),
                                             ("same", (1, 1)), ("valid", (2, 2))])
def test_gradcheck_conv2d(rng, padding, strides):
    x = Tensor(rng.normal(size=(2, 5, 4, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 2, 3)), requires_grad=True)

    def f():
        return float(nn.mean(nn.square(
            nn.conv2d(x, w, strides=strides, padding=padding))).data)

    numeric = central_difference_grads(f, {"x": x.data, "w": w.data})
    x.zero_grad(), w.zero_grad()
    nn.mean(nn.square(nn.conv2d(x, w, strides=strides, padding=padding))).backward()
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
    cell = make_cell(rng, spatial=(2, 2), cin=1, filters=2, kernel=3)
    x = Tensor(rng.normal(size=(2, 2, 2, 1)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)

    def run():
        h1, c1 = cell.step(x, h0, c0)
        return nn.mean(nn.square(h1) + nn.square(c1))

    arrays = {"x": x.data, "h0": h0.data, "c0": c0.data}
    arrays.update({k: p.data for k, p in cell.parameters().items()})
    numeric = central_difference_grads(lambda: float(run().data), arrays)
    for t in (x, h0, c0, *cell.parameters().values()):
        t.zero_grad()
    run().backward()
    analytic = {"x": x.grad, "h0": h0.grad, "c0": c0.grad}
    analytic.update({k: p.grad for k, p in cell.parameters().items()})
    assert_grads_close(analytic, numeric)


def test_gradcheck_dropout_frozen_mask(rng):
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    mask = np.random.default_rng(3).random((4, 5)) >= 0.3

    def f():
        return float(nn.mean(nn.square(
            nn.dropout(x, 0.3, training=True, mask=mask))).data)

    numeric = central_difference_grads(f, {"x": x.data})
    x.zero_grad()
    nn.mean(nn.square(nn.dropout(x, 0.3, training=True, mask=mask))).backward()
    assert_grads_close({"x": x.grad}, numeric)


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


def test_backward_requires_scalar(rng):
    w = Tensor(rng.normal(size=(3,)), requires_grad=True)
    with pytest.raises(nn.GraphStateError):
        nn.square(w).backward()


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
