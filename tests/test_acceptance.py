"""Acceptance suite: one test per release criterion, tolerances pinned.

The criteria checked today are c01-c06 and c11: DTW against a brute-force
oracle and its identities, decomposition reconstruction, the clustering
trace, gradient checks of every layer (the ConvLSTM cell in both output
modes, a DAE head in training mode) and of the composed forecaster, the
ConvLSTM zero-parameter identity with a closed form for a window run from a
nonzero candidate bias, and the missing-data generator's statistics.  The
end-to-end criteria c07-c10 (overfit probe, baseline ordering, peak-regime
gain, DAE robustness) do not exist yet; ROADMAP.md item 2 describes them.
Everything is deterministic given the seeds baked in below.  Run with
`pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import time

import numpy as np
import pytest

from corridorcast import cluster as cl
from corridorcast import decompose as dc
from corridorcast import dtw
from corridorcast import evaluation as ev
from corridorcast import model as md
from corridorcast import nn
from corridorcast import panel as pn
from corridorcast.nn import Tensor

from conftest import assert_grads_close, central_difference_grads
from test_cluster import metas, table
from test_dtw import dtw_bruteforce


# -- criterion 1: DTW oracle equivalence -----------------------------------------


def test_c01_dtw_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for _ in range(500):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = rng.integers(-9, 10, size=(n, k)).astype(float)
        y = rng.integers(-9, 10, size=(m, k)).astype(float)
        assert dtw.dtw_distance(x, y) == dtw_bruteforce(x, y)
    assert time.perf_counter() - started < 10.0


# -- criterion 2: DTW identities ----------------------------------------------------


def test_c02_dtw_identities():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(int(rng.integers(1, 12)), k))
        y = rng.normal(size=(int(rng.integers(1, 12)), k))
        assert dtw.dtw_distance(x, x) == 0.0
        assert dtw.dtw_distance(x, y) == dtw.dtw_distance(y, x)


# -- criterion 3: decomposition ------------------------------------------------------


def test_c03_decomposition_reconstruction_and_fixtures():
    rng = np.random.default_rng(2026)
    for period in (4, 7, 96):
        series = rng.normal(size=4 * period) * 5 + 50
        d = dc.decompose_additive(series, period)
        assert np.max(np.abs(d.seasonal + d.trend + d.residual - series)) < 1e-9
        phases = np.arange(len(series)) % period
        assert np.array_equal(d.seasonal, d.seasonal[phases])  # exact periodicity
    const = dc.decompose_additive(np.full(16, 7.0), 4)
    assert np.allclose(const.trend, 7.0, atol=1e-12)
    assert np.all(const.seasonal == 0.0) and np.allclose(const.residual, 0.0, atol=1e-12)
    cycle = np.array([0.0, 1.0, 0.0, -1.0])
    pure = dc.decompose_additive(np.tile(cycle, 8), 4)
    assert np.max(np.abs(pure.residual[2:-2])) < 1e-9
    assert np.allclose(pure.seasonal[:4], cycle, atol=1e-9)


# -- criterion 4: clustering ---------------------------------------------------------


def test_c04_clustering_trace_contiguity_clamp():
    # frozen hand-executed trace on the 4-sensor fixture
    fixture = table({(0, 1): 1.0, (1, 2): 10.0, (2, 3): 1.0})
    mm = cl.fhc(fixture, metas([0.0, 1.0, 2.0, 3.0]), max_avg_span_miles=2.0)
    assert mm.merge_log == [(1, "0", "1", 1.0), (2, "2", "3", 1.0)]
    assert mm.clusters == [[0, 1], [2, 3]]
    assert all(0.0 <= mu <= 1.0 for mu in mm.memberships.values())

    rng = np.random.default_rng(2027)
    for _ in range(50):
        n = int(rng.integers(5, 21))
        positions = np.cumsum(np.concatenate([[0.0], rng.uniform(0.2, 1.5, n - 1)]))
        entries = {(i, i + 1): float(rng.uniform(0.1, 8.0)) for i in range(n - 1)}
        span = float(rng.uniform(1.0, positions[-1] + 1.0))
        result = cl.fhc(table(entries), metas(positions.tolist()), span)
        for members in result.clusters:
            assert members == list(range(members[0], members[-1] + 1))
        assert all(0.0 <= mu <= 1.0 for mu in result.memberships.values())

    for _ in range(10_000):
        d_min = float(rng.uniform(0, 10))
        d = d_min + float(rng.uniform(0, 10))
        assert 0.0 <= cl.fuzzy_update(d, [d_min, d]) <= 1.0


# -- criterion 5: gradient checks ------------------------------------------------------


def _checked(build_loss, params, extra=None):
    arrays = {k: p.data for k, p in params.items()}
    if extra:
        arrays.update({k: t.data for k, t in extra.items()})
    numeric = central_difference_grads(lambda: float(build_loss().data), arrays)
    for t in list(params.values()) + list((extra or {}).values()):
        t.zero_grad()
    build_loss().backward()
    analytic = {k: p.grad for k, p in params.items()}
    if extra:
        analytic.update({k: t.grad for k, t in extra.items()})
    assert_grads_close(analytic, numeric, rtol=1e-4)


def test_c05_gradient_checks_all_layers_and_composed():
    started = time.perf_counter()
    rng = np.random.default_rng(2028)

    dense = nn.Dense(rng, 5, 4, activation="relu")
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    _checked(lambda: nn.mean(nn.square(dense(x))), dense.parameters(), {"x": x})

    w = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
    xc = Tensor(rng.normal(size=(2, 5, 4, 2)), requires_grad=True)
    _checked(lambda: nn.mean(nn.square(nn.conv2d(xc, w, padding="same"))),
             {"w": w}, {"xc": xc})

    xp = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
    _checked(lambda: nn.total(nn.square(nn.maxpool2d(xp, (2, 2)))), {}, {"xp": xp})

    mk = nn.MultiKernelConv(rng, [[0, 1], [1, 2]], 2, 2, 3)
    xm = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
    _checked(lambda: nn.mean(nn.square(nn.concat(
        [nn.reshape(o, (2, -1)) for o in mk(xm)], axis=1))), mk.parameters(), {"xm": xm})

    # the cell over three steps, so steps 2 and 3 run from a nonzero state,
    # with every parameter random (peepholes included), in both output modes
    cell = nn.ConvLSTMCell(rng, (2, 2), 1, 2, kernel=3)
    for p in cell.parameters().values():
        p.data = 0.5 * rng.normal(size=p.data.shape)
    xl = Tensor(rng.normal(size=(2, 3, 2, 2, 1)), requires_grad=True)
    for sequence in (True, False):
        _checked(lambda: nn.mean(nn.square(cell(xl, sequence=sequence))),
                 cell.parameters(), {"xl": xl})

    # a DAE head in training mode: a freshly seeded rng per call freezes the
    # dropout masks, and biases off zero keep ReLU pre-activations off the kink
    dae = md.DAEHead(rng, 5, (4, 3, 4), 0.3)
    for layer in dae.dense:
        layer.b.data = rng.normal(size=layer.b.data.shape)
    xd = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    _checked(lambda: nn.mean(nn.square(dae(xd, True, np.random.default_rng(1)))),
             dae.parameters(), {"xd": xd})
    assert not np.array_equal(dae(xd, True, np.random.default_rng(1)).data,
                              dae(xd, False).data)  # the masks were on

    # composed cluster-conv + ConvLSTM + DAE graph, inference mode
    cfg = md.ForecasterConfig(window=6, horizon=2, conv_filters=(2, 2),
                              conv_time_kernel=3, conv_pool=2, proj_channels=1,
                              convlstm_filters=(2, 2), convlstm_kernel=3, post_units=4,
                              dae_widths=(4, 3, 2, 3, 4), dropout=0.2, batch_size=4,
                              epochs=1, pretrain_epochs=1, learning_rate=1e-3)
    model = md.build_forecaster([[0, 1], [1, 2]], 3, 2, cfg, seed=3)
    assert all(p.data.size <= 1000 for p in model.parameters().values())
    for p in model.parameters().values():
        # randomize every tensor (biases included) so no ReLU pre-activation
        # sits on its kink, where central differences are undefined
        p.data = 0.4 * rng.normal(size=p.data.shape)
    batch = {"residual": rng.normal(size=(2, 3, 6, 2)),
             "trend": rng.normal(size=(2, 3, 6, 2)),
             "seasonal": rng.normal(size=(2, 3, 8))}
    target = rng.normal(size=(2, 3, 2))

    def model_loss():
        return nn.mean(nn.square(model.forward(batch) - Tensor(target)))

    _checked(model_loss, model.parameters())
    assert time.perf_counter() - started < 60.0


# -- criterion 6: ConvLSTM zero-parameter identity ---------------------------------------


def test_c06_convlstm_zero_parameter_identity():
    rng = np.random.default_rng(2029)
    cell = nn.ConvLSTMCell(rng, (3, 2), 2, 2, kernel=3)
    for p in cell.parameters().values():
        p.data[...] = 0.0
    x = Tensor(rng.normal(size=(2, 3, 3, 2, 2)))
    assert np.all(cell(x, sequence=True).data == 0.0)
    # with only bc = b nonzero every gate is sigma(0) = 1/2 and the candidate
    # tanh(b), so c_t = (1 - 2^-t) tanh(b) and h stays analytic: o * tanh(c)
    b = 0.8
    cell.parameters()["bc"].data[...] = b
    hs = cell(x, sequence=True).data
    steps = np.arange(1, 4).reshape(1, 3, 1, 1, 1)
    expected = 0.5 * np.tanh((1.0 - 2.0 ** -steps) * np.tanh(b))
    assert np.abs(hs - expected).max() <= 1e-15


# -- criterion 11: missing-data generator statistics --------------------------------------


def test_c11_missing_generator_statistics():
    rng = np.random.default_rng(2030)
    steps = 4 * 7 * 24 * 4  # four weeks at 15-minute steps
    values = rng.random((100, steps, 3)) + 1.0
    start = np.datetime64("2016-01-04T00:00:00", "s")
    ts = start + (np.arange(steps) * 900).astype("timedelta64[s]")
    sensors = tuple(pn.SensorMeta(f"S{i:03d}", float(i)) for i in range(100))
    panel = pn.Panel(values, ts, ("flow", "occupancy", "speed"),
                     np.ones_like(values, dtype=bool), sensors)
    _, mask = ev.inject_missing(panel, seed=2030)
    empirical = mask[:, :, 0].mean()
    expected = ev.expected_missing_fraction()
    assert abs(empirical - expected) < 0.003
