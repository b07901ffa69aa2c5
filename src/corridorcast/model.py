"""The corridor forecaster: windowing, baselines, DAE pretraining, training.

The trainable model stacks, in order: a multi-kernel convolution over
residual windows (one kernel per sensor cluster, sliding over time only),
a dense re-projection of the concatenated cluster features onto a
(window, sensors, channels) grid, concatenation of a densely re-projected
trend channel, two convolution-LSTM layers over the window axis, a dense
head joined with the known seasonal slice of the prediction span, and
optionally one denoising-autoencoder head per cluster whose outputs are
resolved by a shared linear target layer (so sensors belonging to several
clusters receive a combined forecast).

Inputs are stationarized: seasonal and trend windows have their value at
the last input step subtracted, residuals pass through, and forecasts are
recovered by adding the anchors back before inverting the scaling.

The networks train and predict in `PRECISION` (float32): weights are drawn
in float64 and cast once, and each batch is cast to the parameters' dtype
on its way in.  Panels, decomposition, scaling, recovery and scoring stay
float64.  A model whose parameters are set to float64 runs in float64.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .decompose import Decomposition, recover_forecast
from .errors import (ConfigError, FieldError, InsufficientDataError, TrainingDivergence,
                     require_finite)
from .files import publish
from .nn import Tensor
from .panel import Panel, ScalingParams

# The floating dtype of every network's parameters, activations and gradients.
PRECISION = np.float32


@dataclass(frozen=True)
class ForecasterConfig:
    """Architecture and training knobs.

    Defaults are the full-scale reference setting; `desk()` returns the
    scaled-down configuration meant for laptop-sized experiments.
    """

    window: int = 6
    horizon: int = 4
    conv_filters: tuple[int, int] = (32, 64)
    conv_time_kernel: int = 3
    conv_pool: int = 2
    proj_channels: int = 8
    convlstm_filters: tuple[int, int] = (16, 32)
    convlstm_kernel: int = 3
    post_units: int = 256
    dae_widths: tuple[int, ...] = (40, 20, 10, 20, 40)
    dropout: float = 0.2
    batch_size: int = 512
    epochs: int = 400
    pretrain_epochs: int = 60
    learning_rate: float = 1e-3
    use_dae: bool = True

    def __post_init__(self):
        require_finite(self)
        for name in ("conv_filters", "convlstm_filters"):
            if len(getattr(self, name)) != 2:
                raise FieldError(name, f"needs two entries, got {getattr(self, name)}")
        for name in ("window", "horizon", "conv_filters", "conv_time_kernel", "conv_pool",
                     "proj_channels", "convlstm_filters", "convlstm_kernel", "post_units",
                     "dae_widths", "batch_size", "epochs", "pretrain_epochs", "learning_rate"):
            value = getattr(self, name)
            if any(v <= 0 for v in (value if isinstance(value, tuple) else (value,))):
                raise FieldError(name, f"must be positive, got {value}")
        if tuple(self.dae_widths) != tuple(reversed(self.dae_widths)):
            raise FieldError("dae_widths", f"must be palindromic, got {self.dae_widths}")
        if not 0.0 <= self.dropout < 1.0:
            raise FieldError("dropout", f"must lie in [0, 1), got {self.dropout}")
        conv_length = self.window - self.conv_time_kernel + 1
        if conv_length < 1:
            raise FieldError("conv_time_kernel", f"must not exceed window {self.window}, "
                                                 f"got {self.conv_time_kernel}")
        if conv_length % self.conv_pool:
            raise FieldError("conv_pool", "must divide window - conv_time_kernel + 1 = "
                                          f"{conv_length}, got {self.conv_pool}")

    @classmethod
    def desk(cls, **overrides) -> "ForecasterConfig":
        base = dict(conv_filters=(8, 16), proj_channels=4, convlstm_filters=(4, 8),
                    post_units=128, dae_widths=(16, 8, 4, 8, 16), batch_size=64,
                    epochs=25, pretrain_epochs=20, learning_rate=3e-3)
        base.update(overrides)
        return cls(**base)


# -- windowing -----------------------------------------------------------------


class WindowSet:
    """Stride-1 (w input + h horizon) windows of a decomposed, scaled panel.

    The set is an index over the decomposition's (sensor, step, feature)
    blocks: it holds a reference to them, a copy of the scaled series of
    feature 0, the one the model forecasts, and the anchor step of each window (`t_index`, the last input
    step).  `subset` indexes only the anchors.  The per-window arrays
    `anchor_seasonal` and `anchor_trend` (N, sensors) and `target_scaled` and
    `target_st` (N, sensors, h) are gathered on first use, so only a set that
    is scored or trained on builds them; `batch_dict` gathers the
    stationarized input windows of the requested anchors and nothing else.
    """

    def __init__(self, decomp: Decomposition, series: np.ndarray, w: int, h: int,
                 t_index: np.ndarray):
        self.decomp = decomp
        self.series = series  # (sensors, steps): the scaled feature 0
        self.w = w
        self.h = h
        self.t_index = t_index

    def __len__(self) -> int:
        return len(self.t_index)

    def subset(self, idx) -> "WindowSet":
        return WindowSet(self.decomp, self.series, self.w, self.h,
                         self.t_index[np.asarray(idx)])

    @functools.cached_property
    def anchor_seasonal(self) -> np.ndarray:
        return np.ascontiguousarray(self.decomp.seasonal[:, self.t_index, 0].T)

    @functools.cached_property
    def anchor_trend(self) -> np.ndarray:
        return np.ascontiguousarray(self.decomp.trend[:, self.t_index, 0].T)

    @functools.cached_property
    def target_scaled(self) -> np.ndarray:
        horizon = self.t_index[:, None] + np.arange(1, self.h + 1)
        return np.ascontiguousarray(self.series[:, horizon].transpose(1, 0, 2))

    @functools.cached_property
    def target_st(self) -> np.ndarray:
        return self.target_scaled - (self.anchor_seasonal + self.anchor_trend)[:, :, None]

    def batch_dict(self, idx=slice(None)) -> dict[str, np.ndarray]:
        """Model inputs of the windows at `idx` (an index or slice into the set).

        Residual and trend windows are (B, sensors, w, features), the seasonal
        window of feature 0, the forecast one, is (B, sensors, w+h); seasonal
        and trend are shifted by their own value at the anchor step (input
        step w-1), residuals pass through.
        """
        w, h = self.w, self.h
        steps = self.t_index[idx][:, None] + np.arange(1 - w, h + 1)  # (B, w+h)

        def gather(block: np.ndarray, span: int) -> np.ndarray:
            # (n, steps[, k]) -> (B, n, span[, k])
            return np.ascontiguousarray(np.moveaxis(block[:, steps[:, :span]], 0, 1))

        def shifted(block: np.ndarray, span: int) -> np.ndarray:
            win = gather(block, span)
            win -= win[:, :, w - 1:w].copy()
            return win

        d = self.decomp
        return {"residual": gather(d.residual, w), "trend": shifted(d.trend, w),
                "seasonal": shifted(d.seasonal[:, :, 0], w + h)}


def make_windows(panel: Panel, decomp: Decomposition, w: int, h: int) -> WindowSet:
    """Index every stride-1 (w input + h horizon) window of the panel.

    The panel and decomposition are expected in scaled space.  Window `i` is
    anchored at step `w - 1 + i`; its targets are the horizon values of
    feature 0 minus its seasonal + trend at the anchor, the feature whose
    seasonal slice `Forecaster.forward` joins.  No window and no per-window
    array is built here (see `WindowSet`).
    """
    n, t, k = panel.values.shape
    if t < w + h:
        raise InsufficientDataError(f"{t} steps cannot fit a window of {w}+{h}")
    series = np.ascontiguousarray(panel.values[:, :, 0])
    return WindowSet(decomp, series, w, h, np.arange(w - 1, t - h))


def split_by_time(windows: WindowSet, boundary_step: int, horizon: int
                  ) -> tuple[WindowSet, WindowSet]:
    """Train/test split on the anchor step; training targets stay before the boundary."""
    train_idx = np.flatnonzero(windows.t_index + horizon < boundary_step)
    test_idx = np.flatnonzero(windows.t_index >= boundary_step)
    return windows.subset(train_idx), windows.subset(test_idx)


def recover_predictions(pred_st: np.ndarray, windows: WindowSet,
                        scaling: ScalingParams) -> np.ndarray:
    """Stationarized scaled forecasts of feature 0 -> original units (N, sensors, horizon)."""
    scaled = recover_forecast(pred_st, (windows.anchor_seasonal, windows.anchor_trend))
    lo = scaling.lo[:, 0][None, :, None]
    hi = scaling.hi[:, 0][None, :, None]
    degen = scaling.degenerate[:, 0][None, :, None]
    span = np.where(degen, 1.0, hi - lo)
    return np.where(degen, lo, scaled * span + lo)


def horizon_truth(panel: Panel, t_indices: np.ndarray, horizon: int) -> np.ndarray:
    """Ground-truth horizon blocks (N, sensors, horizon) of feature 0 from an
    original-unit panel."""
    offsets = np.arange(1, horizon + 1)
    steps = np.asarray(t_indices)[:, None] + offsets[None, :]
    return panel.values[:, steps, 0].transpose(1, 0, 2)


# -- baselines ---------------------------------------------------------------------


def baseline_current(panel: Panel, t_indices: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the feature-0 value at the anchor step across the whole horizon."""
    now = panel.values[:, np.asarray(t_indices), 0].T  # (N, s)
    return np.repeat(now[:, :, None], horizon, axis=2)


class WeekdayHourlyBaseline:
    """Timetable forecaster: training-mean flow per (sensor, weekday, slot).

    `table[sensor, weekday, slot]` holds the mean of the observed training
    values of feature 0 under that key, or the sensor's global training mean
    where the key was never observed.  Each key's values are summed in time
    order.
    """

    def __init__(self, train_panel: Panel):
        self.step_minutes = train_panel.step_minutes
        self.step_seconds = int(self.step_minutes * 60)
        slots = -(-86400 // self.step_seconds)
        weekday, slot = self._key(
            train_panel.time_index.astype("datetime64[s]").astype(np.int64))
        n = train_panel.n_sensors
        vals = train_panel.values[:, :, 0]
        obs = train_panel.missing_mask[:, :, 0]
        # sensor-major flat keys; bincount adds each bin's values in input order
        keys = (np.arange(n)[:, None] * 7 + weekday) * slots + slot
        size = n * 7 * slots
        sums = np.bincount(keys[obs], weights=vals[obs], minlength=size)
        counts = np.bincount(keys[obs], minlength=size)
        totals = np.where(obs, vals, 0.0).sum(axis=1)
        seen = obs.sum(axis=1)
        self.global_mean = np.where(seen > 0, totals / np.maximum(seen, 1), 0.0)
        fallback = np.repeat(self.global_mean, 7 * slots)
        self.table = np.where(counts > 0, sums / np.maximum(counts, 1), fallback
                              ).reshape(n, 7, slots)

    def _key(self, seconds):
        """(weekday, slot of day) of epoch seconds; 1970-01-01 was a Thursday."""
        return ((seconds // 86400) + 3) % 7, (seconds % 86400) // self.step_seconds

    def predict(self, panel: Panel, t_indices: np.ndarray, horizon: int) -> np.ndarray:
        steps = np.asarray(t_indices)[:, None] + np.arange(1, horizon + 1)
        weekday, slot = self._key(
            panel.time_index[steps].astype("datetime64[s]").astype(np.int64))
        sensors = np.arange(panel.n_sensors)[None, :, None]
        return self.table[sensors, weekday[:, None, :], slot[:, None, :]]  # (N, s, h)


def baseline_weekday_hourly(train_panel: Panel) -> WeekdayHourlyBaseline:
    return WeekdayHourlyBaseline(train_panel)


# -- denoising autoencoder heads ---------------------------------------------------


def scale_dae_widths(widths: tuple[int, ...], in_dim: int) -> tuple[int, ...]:
    """Shrink the widths proportionally when the input is smaller than the bottleneck.

    All widths are scaled by in_dim / (2 * bottleneck), which lands the new
    bottleneck near in_dim / 2 so the autoencoder stays undercomplete.
    """
    bottleneck = min(widths)
    if in_dim >= bottleneck:
        return tuple(widths)
    factor = in_dim / (2.0 * bottleneck)
    return tuple(max(1, int(round(w * factor))) for w in widths)


class DAEHead(nn.Layer):
    """Denoising autoencoder over one cluster's flattened output block.

    Hidden layers are ReLU with dropout corruption in between while
    training; the reconstruction layer is linear.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, widths: tuple[int, ...],
                 dropout_rate: float):
        super().__init__()
        self.widths = scale_dae_widths(widths, in_dim)
        self.dropout_rate = dropout_rate
        self.dense: list[nn.Dense] = []
        dims = [in_dim, *self.widths, in_dim]
        for li, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            act = "identity" if li == len(dims) - 2 else "relu"
            self.dense.append(self._adopt(f"l{li}", nn.Dense(rng, a, b, activation=act)))

    def __call__(self, x: Tensor, training: bool, rng=None) -> Tensor:
        """The chain of `nn.Dense` calls with inverted dropout before each layer
        but the first, run as one autograd node with the chain's operations in
        its order, so outputs and gradients are bit-identical to it.

        Only in training mode at a nonzero rate, each layer's input is
        multiplied by a keep mask drawn from `rng`: ``rng.random(shape) >=
        rate`` scaled by ``1/(1-rate)``.  Each layer's input and activation
        are kept; backward is hand-derived: the ReLU mask, ``ins.T @ g``,
        ``g.sum(axis=0)``, ``g @ w.T``, then times the keep mask.
        """
        rate = self.dropout_rate
        drop = training and rate > 0.0
        if drop and rng is None:
            raise ValueError("training-mode dropout needs an rng")
        h, ins, acts, keeps = x.data, [], [], []
        for li, layer in enumerate(self.dense):
            keep = None
            if li > 0 and drop:
                keep = (rng.random(h.shape) >= rate).astype(h.dtype) * (1.0 / (1.0 - rate))
                h = h * keep
            ins.append(h)
            h = h @ layer.w.data + layer.b.data
            if layer.activation == "relu":
                h = np.maximum(h, 0.0)
            acts.append(h)
            keeps.append(keep)

        def backward(g):
            for li in reversed(range(len(self.dense))):
                layer = self.dense[li]
                if layer.activation == "relu":
                    g = g * (acts[li] > 0.0)
                layer.w._accumulate(ins[li].T @ g)
                layer.b._accumulate(g.sum(axis=0))
                if li == 0 and not x.requires_grad:
                    return
                g = g @ layer.w.data.T
                if keeps[li] is not None:
                    g = g * keeps[li]
            x._accumulate(g)

        return nn.autograd._make(h, (x, *self._params.values()), backward)


def pretrain_dae(cluster_blocks: list[np.ndarray], config: ForecasterConfig, seed: int,
                 log=None) -> tuple[list[dict[str, np.ndarray]], list[list[float]]]:
    """Train one DAE per cluster to reconstruct its clean output blocks.

    `cluster_blocks[j]` is (samples, dim_j).  Corruption comes from the
    dropout layers between the dense layers; the reconstruction target is the
    uncorrupted block.  Returns the trained weights per cluster (ready to be
    loaded into the forecaster's DAE heads) and the per-epoch reconstruction
    loss curves.
    """
    out: list[dict[str, np.ndarray]] = []
    curves: list[list[float]] = []
    for j, block in enumerate(cluster_blocks):
        rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
        n, dim = block.shape
        head = DAEHead(rng, dim, config.dae_widths, config.dropout)
        head.cast(PRECISION)
        block = block.astype(PRECISION)
        if head.widths != tuple(config.dae_widths) and log is not None:
            log(f"cluster {j}: dae widths scaled to {head.widths} for dim {dim}")

        def batch_loss(idx):
            clean = Tensor(block[idx])
            return nn.mean(nn.square(head(clean, training=True, rng=rng) - clean))

        curves.append([loss for loss, _ in minibatch_epochs(
            head, n, config, config.pretrain_epochs, rng, batch_loss)])
        out.append({k: p.data.copy() for k, p in head.parameters().items()})
    return out, curves


# -- the forecaster ------------------------------------------------------------------


class Forecaster(nn.Layer):
    """Cluster-aware convolution-LSTM forecaster with optional DAE heads."""

    def __init__(self, clusters: list[list[int]], n_sensors: int, n_features: int,
                 config: ForecasterConfig, seed: int,
                 pretrained_dae: list[dict[str, np.ndarray]] | None = None):
        if any(len(c) == 0 for c in clusters):
            raise ConfigError("cluster with zero members")
        if any(u < 0 or u >= n_sensors for c in clusters for u in c):
            raise ConfigError("cluster member index out of range")
        covered = {u for c in clusters for u in c}
        if covered != set(range(n_sensors)):
            raise ConfigError("clusters must cover every sensor")
        self.clusters = [list(c) for c in clusters]
        self.n_sensors = n_sensors
        self.n_features = n_features
        self.config = config
        cfg = config
        w, h = cfg.window, cfg.horizon
        f1, f2 = cfg.conv_filters
        l1, l2 = cfg.convlstm_filters
        v = cfg.proj_channels

        t_pooled = (w - cfg.conv_time_kernel + 1) // cfg.conv_pool
        conv2_kernel = min(2, t_pooled)
        t2 = t_pooled - conv2_kernel + 1

        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        super().__init__()

        self.mkconv = self._adopt("mk", nn.MultiKernelConv(
            rng, self.clusters, cfg.conv_time_kernel, n_features, f1))
        self.cluster_conv2 = [
            self._adopt(f"conv2.{j}", nn.Conv2d(rng, 1, conv2_kernel, f1, f2))
            for j in range(len(clusters))]

        concat_dim = len(clusters) * t2 * f2
        self.proj = self._adopt("proj", nn.Dense(rng, concat_dim, w * n_sensors * v,
                                                 activation="relu"))
        self.trend_proj = self._adopt("trend", nn.Dense(
            rng, n_sensors * w * n_features, w * n_sensors * v, activation="relu"))

        self.lstm1 = self._adopt("lstm1", nn.ConvLSTMCell(rng, (n_sensors, v), 2, l1,
                                                          cfg.convlstm_kernel))
        self.lstm2 = self._adopt("lstm2", nn.ConvLSTMCell(rng, (n_sensors, v), l1, l2,
                                                          cfg.convlstm_kernel))

        self.post = self._adopt("post", nn.Dense(rng, n_sensors * v * l2, cfg.post_units,
                                                 activation="relu"))
        head_in = cfg.post_units + n_sensors * (w + h)
        self.head = self._adopt("head", nn.Dense(rng, head_in, n_sensors * h))

        self.use_dae = cfg.use_dae
        self.dae_heads: list[DAEHead] = []
        if self.use_dae:
            for j, members in enumerate(self.clusters):
                self.dae_heads.append(self._adopt(f"dae{j}", DAEHead(
                    rng, len(members) * h, cfg.dae_widths, cfg.dropout)))
            total = sum(len(m) * h for m in self.clusters)
            self.fct = self._adopt("fct", nn.Dense(rng, total, n_sensors * h))
        self.cast(PRECISION)
        for head, weights in zip(self.dae_heads, pretrained_dae or ()):
            nn.restore_params(head.parameters(), weights)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which `forward` runs."""
        return self.head.w.data.dtype

    # -- forward -----------------------------------------------------------------

    def _cluster_maps(self, residual: np.ndarray) -> list[Tensor]:
        """Each cluster's kernel, pooled, then its second convolution."""
        feats = self.mkconv(Tensor(residual))
        return [conv(nn.maxpool2d(f, (1, self.config.conv_pool)))
                for conv, f in zip(self.cluster_conv2, feats)]

    def forward(self, batch: dict[str, np.ndarray], training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        batch = {k: a.astype(self.dtype, copy=False) for k, a in batch.items()}
        cfg = self.config
        s, w, h = self.n_sensors, cfg.window, cfg.horizon
        v = cfg.proj_channels
        b = batch["residual"].shape[0]

        maps = self._cluster_maps(batch["residual"])
        merged = nn.concat([nn.reshape(f, (b, -1)) for f in maps], axis=1)
        grid = nn.reshape(self.proj(merged), (b, w, s, v, 1))

        trend_flat = nn.reshape(Tensor(batch["trend"]), (b, -1))
        trend_grid = nn.reshape(self.trend_proj(trend_flat), (b, w, s, v, 1))
        block = nn.concat([grid, trend_grid], axis=4)

        h2 = self.lstm2(self.lstm1(block, sequence=True))

        post = self.post(nn.reshape(h2, (b, -1)))
        seasonal_flow = nn.reshape(Tensor(batch["seasonal"]), (b, -1))
        joined = nn.concat([post, seasonal_flow], axis=1)
        y_bar = nn.reshape(self.head(joined), (b, s, h))
        if not self.use_dae:
            return y_bar

        dae_outs = []
        for j, members in enumerate(self.clusters):
            rows = nn.reshape(nn.gather_rows(y_bar, members), (b, len(members) * h))
            dae_outs.append(self.dae_heads[j](rows, training, rng))
        resolved = self.fct(nn.concat(dae_outs, axis=1))
        return nn.reshape(resolved, (b, s, h))

    def predict(self, windows: WindowSet, batch_size: int = 64) -> np.ndarray:
        """Inference-mode forward over slices of `batch_size` windows, recording no graph."""
        outs = []
        with nn.no_grad():
            for lo in range(0, len(windows), batch_size):
                piece = windows.batch_dict(slice(lo, lo + batch_size))
                outs.append(self.forward(piece, training=False).data)
        return np.concatenate(outs, axis=0)


def build_forecaster(clusters, n_sensors: int, n_features: int, config: ForecasterConfig,
                     seed: int, pretrained_dae=None) -> Forecaster:
    """Assemble the forecaster; `clusters` may be a MembershipMatrix or member lists."""
    member_lists = clusters.clusters if hasattr(clusters, "clusters") else clusters
    return Forecaster(member_lists, n_sensors, n_features, config, seed,
                      pretrained_dae=pretrained_dae)


def cluster_target_blocks(windows: WindowSet, clusters: list[list[int]]) -> list[np.ndarray]:
    """Flattened clean target blocks per cluster for DAE pretraining."""
    return [windows.target_st[:, members, :].reshape(len(windows), -1)
            for members in clusters]


# -- training -------------------------------------------------------------------------


def minibatch_epochs(layer: nn.Layer, n: int, config: ForecasterConfig, epochs: int,
                     rng: np.random.Generator, batch_loss):
    """ADAM steps on minibatches of a fresh permutation of `n` samples per epoch.

    `batch_loss(idx)` is the scalar loss Tensor of the samples at `idx`.
    Yields, per epoch, the sample-weighted mean batch loss and the loss of its
    first batch, which is computed before that epoch's first step.
    """
    adam = nn.Adam(layer.parameters(), lr=config.learning_rate)
    batch = min(config.batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        total, seen, first = 0.0, 0, None
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            loss = batch_loss(idx)
            adam.zero_grad()
            loss.backward()
            adam.step()
            total += float(loss.data) * len(idx)
            seen += len(idx)
            if first is None:
                first = float(loss.data)
        yield total / seen, first


@dataclass
class TrainHistory:
    epochs: list[int]
    train_loss: list[float]
    val_loss: list[float]
    wall_ms: list[float]

    def write_log(self, path: str, notes: list[str], dae_curves: list[list[float]]) -> None:
        """The run log: one line per epoch, then the notes, then the DAE curves."""
        with publish(path) as fh:
            for e, tr, vl, ms in zip(self.epochs, self.train_loss, self.val_loss,
                                     self.wall_ms):
                fh.write(f"epoch={e} train_loss={tr:.9g} val_loss={vl:.9g} "
                         f"wall_ms={ms:.1f}\n")
            for note in notes:
                fh.write(f"note={note}\n")
            for j, losses in enumerate(dae_curves):
                for epoch, loss in enumerate(losses, 1):
                    fh.write(f"dae_cluster={j} epoch={epoch} loss={loss:.9g}\n")


def evaluate_mse(model: Forecaster, windows: WindowSet) -> float:
    pred = model.predict(windows)
    return float(np.mean((pred - windows.target_st) ** 2))


# The share of training windows, the last ones, held out for the validation
# curve, and the divergence guard: how many times the reference loss an epoch
# may reach, and for how many consecutive epochs.
VAL_FRACTION = 0.1
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 5


def train(model: Forecaster, windows: WindowSet, config: ForecasterConfig,
          seed: int) -> TrainHistory:
    """Minimize forecast MSE with ADAM over stride-1 window batches of the
    nonempty `windows` (`pipeline.fit` checks).

    The last `VAL_FRACTION` of the training windows is held out for the
    validation curve, the one `predict` pass of each epoch.  Training aborts
    with TrainingDivergence when the epoch loss exceeds `DIVERGENCE_FACTOR`
    times the reference loss for `DIVERGENCE_PATIENCE` consecutive epochs, or
    at once when it is not finite.  The reference is the loss of epoch 1's
    first batch, which the untrained model computes before the first ADAM
    step, so a first epoch that blows up cannot inflate it.
    """
    n = len(windows)
    n_val = int(n * VAL_FRACTION)
    train_set = windows.subset(np.arange(n - n_val)) if n_val else windows
    val_set = windows.subset(np.arange(n - n_val, n)) if n_val else None

    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    target = train_set.target_st.astype(model.dtype)

    def batch_loss(idx):
        out = model.forward(train_set.batch_dict(idx), training=True, rng=rng)
        return nn.mean(nn.square(out - Tensor(target[idx])))

    history = TrainHistory([], [], [], [])
    bad_epochs = 0
    started = time.perf_counter()
    epochs = minibatch_epochs(model, len(train_set), config, config.epochs, rng, batch_loss)
    for epoch, (train_loss, first_loss) in enumerate(epochs, 1):
        if epoch == 1:
            reference = max(first_loss, 1e-12)
        val_loss = evaluate_mse(model, val_set) if val_set is not None else float("nan")
        history.epochs.append(epoch)
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.wall_ms.append((time.perf_counter() - started) * 1000.0)
        started = time.perf_counter()
        if not np.isfinite(train_loss) or train_loss > DIVERGENCE_FACTOR * reference:
            bad_epochs += 1
            if bad_epochs >= DIVERGENCE_PATIENCE or not np.isfinite(train_loss):
                raise TrainingDivergence(
                    f"epoch {epoch}: loss {train_loss:.4g} vs reference {reference:.4g}")
        else:
            bad_epochs = 0
    return history
