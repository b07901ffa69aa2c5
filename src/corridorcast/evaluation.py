"""Metrics, regime analysis, missing-data protocol and the synthetic corridor.

The synthetic generator builds occupancy per sensor from a daily demand
curve, a weekday-dependent weekly trend, spatially propagating congestion
pulses and AR(1) noise, then derives flow and speed through the first-order
fundamental diagram

    flow(o) = min(free_speed * o, wave_speed * (max_density - o))

with speed = flow / o (free speed as o -> 0).  Pulses re-appear at each
downstream neighbor after a fixed delay, which is what gives neighboring
residuals their shared short-term structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .files import write_table
from .panel import (DATA_HEADER, FEATURES, META_HEADER, Panel, SensorKind, SensorMeta,
                    impute_forward)


# -- error metrics ------------------------------------------------------------


def mae(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.size == 0 or y.size != y_hat.size:
        raise DataError(f"mae needs equal nonempty inputs, got {y.size} and {y_hat.size}")
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.size == 0 or y.size != y_hat.size:
        raise DataError(f"rmse needs equal nonempty inputs, got {y.size} and {y_hat.size}")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def split_peak(p: Panel, occupancy_threshold: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
    """Partition timesteps into peak/off-peak by corridor-mean occupancy."""
    occ_idx = p.features.index("occupancy")
    mean_occ = p.values[:, :, occ_idx].mean(axis=0)
    peak = np.flatnonzero(mean_occ > occupancy_threshold)
    off = np.flatnonzero(mean_occ <= occupancy_threshold)
    return peak, off


# -- missing-data protocol -------------------------------------------------------


# The missing-data blocks: one per sensor per week, lasting Normal(mean, sd)
# hours clipped to the range.
BLOCKS_PER_SENSOR_WEEK = 1
DURATION_MEAN_HOURS = 2.0
DURATION_SD_HOURS = 0.5
DURATION_CLIP_HOURS = (0.5, 4.0)


def inject_missing(p: Panel, seed: int) -> tuple[Panel, np.ndarray]:
    """Mask random contiguous blocks per sensor per week and forward-fill them.

    Each sensor gets `BLOCKS_PER_SENSOR_WEEK` blocks in every full week.
    Durations are Normal(`DURATION_MEAN_HOURS`, `DURATION_SD_HOURS`) hours
    clipped to `DURATION_CLIP_HOURS` and rounded to whole steps; the start is
    uniform within the week so a block never crosses a week boundary.
    Returns the corrupted panel (masked cells forward-filled so models still
    see dense input) and the injected mask; callers keep the original panel
    as ground truth.
    """
    step_minutes = p.step_minutes
    week_steps = int(round(7 * 24 * 60 / step_minutes))
    n_weeks = p.n_steps // week_steps
    if n_weeks < 1:
        raise DataError("missing-data injection needs at least one full week of data")
    injected = np.zeros(p.values.shape, dtype=bool)
    rng = np.random.default_rng(seed)
    lo, hi = DURATION_CLIP_HOURS
    for si in range(p.n_sensors):
        for wk in range(n_weeks):
            for _ in range(BLOCKS_PER_SENSOR_WEEK):
                dur_h = float(np.clip(rng.normal(DURATION_MEAN_HOURS, DURATION_SD_HOURS),
                                      lo, hi))
                steps = max(1, int(round(dur_h * 60 / step_minutes)))
                steps = min(steps, week_steps)
                start = wk * week_steps + int(rng.integers(0, week_steps - steps + 1))
                injected[si, start:start + steps, :] = True
    corrupted = p.copy()
    corrupted.missing_mask = corrupted.missing_mask & ~injected
    filled = impute_forward(corrupted)
    return filled, injected


def expected_missing_fraction() -> float:
    """Analytic expectation of the fraction `inject_missing` masks."""
    mu, sd = DURATION_MEAN_HOURS, DURATION_SD_HOURS
    a, b = DURATION_CLIP_HOURS
    alpha, beta = (a - mu) / sd, (b - mu) / sd

    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def pdf(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    middle = mu * (cdf(beta) - cdf(alpha)) - sd * (pdf(beta) - pdf(alpha))
    expected_hours = a * cdf(alpha) + b * (1.0 - cdf(beta)) + middle
    return BLOCKS_PER_SENSOR_WEEK * expected_hours / (7.0 * 24.0)


# -- synthetic corridor ------------------------------------------------------------


@dataclass
class SynthConfig:
    """Physical and demand parameters of the synthetic corridor, set in code;
    the `synth` command generates from the defaults."""

    free_speed: float = 70.0       # mph
    wave_speed: float = 35.0       # mph
    max_density: float = 30.0      # occupancy units
    param_jitter: float = 0.05     # relative per-sensor variation of the above
    sensor_spacing_miles: float = 0.5
    step_minutes: float = 15.0
    demand_base: float = 3.0       # off-peak occupancy level
    demand_peak: float = 8.0       # added at the rush-hour peaks
    weekday_factors: tuple = (1.0, 1.02, 1.04, 1.06, 1.1, 0.78, 0.65)  # Mon..Sun
    slow_trend_amplitude: float = 0.35
    noise_sd: float = 0.35
    noise_ar: float = 0.6
    pulses_per_day: float = 3.0
    pulse_amplitude: float = 10.0
    pulse_duration_steps: int = 8
    pulse_reach: int = 12          # how many downstream sensors a pulse visits
    pulse_decay: float = 0.94      # amplitude factor per hop
    propagation_delay_steps: int = 4


def fundamental_flow(occupancy, free_speed, wave_speed, max_density):
    """First-order diagram: flow rises at free speed, falls at wave speed."""
    occupancy = np.asarray(occupancy, dtype=np.float64)
    return np.minimum(free_speed * occupancy, wave_speed * (max_density - occupancy))


def _daily_profile(steps_per_day: int) -> np.ndarray:
    """Bimodal rush-hour curve over one day, normalized to peak 1."""
    tod = np.arange(steps_per_day) / steps_per_day * 24.0
    morning = np.exp(-0.5 * ((tod - 8.0) / 1.6) ** 2)
    evening = np.exp(-0.5 * ((tod - 17.5) / 1.9) ** 2)
    profile = morning + 0.9 * evening
    return profile / profile.max()


def synth_generate(cfg: SynthConfig, sensors: int, days: int, seed: int) -> Panel:
    """Generate a dense (sensors, steps, 3) corridor panel from the config."""
    rng = np.random.default_rng(seed)
    steps_per_day = int(round(24 * 60 / cfg.step_minutes))
    t = days * steps_per_day
    n = sensors

    jit = cfg.param_jitter
    free = cfg.free_speed * (1.0 + jit * rng.uniform(-1, 1, n))
    wave = cfg.wave_speed * (1.0 + jit * rng.uniform(-1, 1, n))
    dens = cfg.max_density * (1.0 + jit * rng.uniform(-1, 1, n))

    day_curve = _daily_profile(steps_per_day)
    day_of_step = np.repeat(np.arange(days), steps_per_day)
    weekday = day_of_step % 7
    weekday_factor = np.asarray(cfg.weekday_factors)[weekday]
    slow = 1.0 + cfg.slow_trend_amplitude * np.sin(
        2.0 * np.pi * np.arange(t) / (steps_per_day * 28.0))
    demand = (cfg.demand_base + cfg.demand_peak * np.tile(day_curve, days)) \
        * weekday_factor * slow
    sensor_level = 1.0 + 0.1 * rng.uniform(-1, 1, n)
    occ = sensor_level[:, None] * demand[None, :]

    # congestion pulses propagating downstream sensor by sensor; pulse start
    # times follow the demand curve, so congestion concentrates in rush hours
    n_pulses = int(round(cfg.pulses_per_day * days))
    shape = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(cfg.pulse_duration_steps)
                                / cfg.pulse_duration_steps))
    tod_weights = day_curve / day_curve.sum()
    for _ in range(n_pulses):
        origin = int(rng.integers(0, n))
        day = int(rng.integers(0, days))
        tod = int(rng.choice(steps_per_day, p=tod_weights))
        start = day * steps_per_day + tod
        amp = cfg.pulse_amplitude * (0.7 + 0.6 * rng.random())
        for hop in range(cfg.pulse_reach):
            si = origin + hop
            if si >= n:
                break
            s0 = start + hop * cfg.propagation_delay_steps
            s1 = min(s0 + cfg.pulse_duration_steps, t)
            if s0 >= t:
                break
            occ[si, s0:s1] += amp * (cfg.pulse_decay ** hop) * shape[:s1 - s0]

    noise = np.zeros((n, t))
    eps = rng.normal(0.0, cfg.noise_sd, size=(n, t))
    for step in range(1, t):
        noise[:, step] = cfg.noise_ar * noise[:, step - 1] + eps[:, step]
    occ = np.clip(occ + noise, 0.0, 0.95 * dens[:, None])

    flow = fundamental_flow(occ, free[:, None], wave[:, None], dens[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.where(occ > 1e-9, flow / np.maximum(occ, 1e-9), free[:, None])

    values = np.stack([flow, occ, speed], axis=2)
    start = np.datetime64("2016-01-04T00:00:00", "s")  # a Monday
    time_index = start + (np.arange(t) * int(cfg.step_minutes * 60)).astype("timedelta64[s]")
    metas = tuple(SensorMeta(f"S{i:03d}", i * cfg.sensor_spacing_miles, SensorKind.MAINLINE)
                  for i in range(n))
    mask = np.ones(values.shape, dtype=bool)
    return Panel(values, time_index, FEATURES, mask, metas)


def panel_to_csv(p: Panel, data_path: str, meta_path: str) -> None:
    """Write a panel back out in the ingestion CSV formats: the data table as
    one block per sensor (its id repeated, the stamps of its fully observed
    steps, and one column per feature), so no row is built as a list."""
    sensors = p.sensors
    write_table(meta_path, META_HEADER, [([s.id for s in sensors], [s.position for s in sensors],
                                          [s.kind.value for s in sensors])])
    stamps = [str(ts.astype("datetime64[s]")) for ts in p.time_index]
    observed = map(np.flatnonzero, p.missing_mask.all(axis=2))
    write_table(data_path, DATA_HEADER, (
        ((s.id,) * len(steps), [stamps[ti] for ti in steps.tolist()], *values[steps].T.tolist())
        for s, steps, values in zip(p.sensors, observed, p.values)))


# -- reports -------------------------------------------------------------------


@dataclass
class EvalReport:
    """One model's report on one dataset: the header, then the
    `(metric, horizon, regime, value)` rows in the order they are written."""

    model_id: str
    seed: int
    config_hash: str
    rows: list[tuple[str, str, str, float]]

    def to_csv(self, path: str) -> None:
        write_table(path, ["model_id", "seed", "config_hash"],
                    [([self.model_id], [self.seed], [self.config_hash]),
                     (["metric"], ["horizon"], ["regime"], ["value"]),
                     tuple(zip(*self.rows))])

    def print_table(self, file=None) -> None:
        file = file or sys.stdout
        print(f"model={self.model_id} seed={self.seed} config={self.config_hash}", file=file)
        width = max([9] + [len(horizon) + 1 for _, horizon, _, _ in self.rows])
        print(f"{'metric':<16}{'horizon':<{width}}{'regime':<9}value", file=file)
        for metric, horizon, regime, value in self.rows:
            print(f"{metric:<16}{horizon:<{width}}{regime:<9}{value:.6g}", file=file)
