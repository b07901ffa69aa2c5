"""Data model and ingestion for corridor sensor panels.

A panel is a dense (sensors, steps, features) block on a time grid whose
fixed step divides a day, with a mask marking which cells were observed.
Sensors live on a 1-D corridor and are ordered by milepost, so geographic
neighborhoods are index-contiguous.
"""

from __future__ import annotations

import hashlib
from array import array
from contextlib import suppress
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

import numpy as np

from .errors import EmptyPanelError, EmptySeriesError, FormatError, UnknownSensorError
from .files import publish_arrays, read_arrays, read_table

FEATURES = ("flow", "occupancy", "speed")

DATA_HEADER = ["sensor_id", "timestamp", "flow", "occupancy", "speed"]
META_HEADER = ["sensor_id", "milepost", "kind"]

# `load_csv` keeps each parsed panel in `<data>` + PANEL_SUFFIX, keyed by the
# SHA-256 of PANEL_FORMAT and both input files; bump the tag when the parse
# or the file layout changes, so older files read as misses.
PANEL_SUFFIX = ".panel.npz"
PANEL_FORMAT = "corridorcast-panel-v1"


class SensorKind(str, Enum):
    MAINLINE = "mainline"
    ON_RAMP = "on_ramp"
    OFF_RAMP = "off_ramp"


@dataclass(frozen=True)
class SensorMeta:
    id: str
    position: float  # milepost, miles along the corridor
    kind: SensorKind = SensorKind.MAINLINE

    def __post_init__(self):
        if not np.isfinite(self.position):
            raise FormatError(f"sensor {self.id!r} has non-finite milepost")


@dataclass
class Panel:
    """Dense value block (n sensors, t steps, k features) plus observation mask."""

    values: np.ndarray
    time_index: np.ndarray  # datetime64[s], strictly increasing, fixed step
    features: tuple[str, ...]
    missing_mask: np.ndarray  # True where observed
    sensors: tuple[SensorMeta, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.values.shape != self.missing_mask.shape:
            raise FormatError("values and mask shapes disagree")
        n, t, k = self.values.shape
        if len(self.sensors) != n or len(self.time_index) != t or len(self.features) != k:
            raise FormatError("panel axis metadata disagrees with the value block")
        if t > 1:
            deltas = np.diff(self.time_index.astype("datetime64[s]").astype(np.int64))
            if np.any(deltas <= 0) or np.any(deltas != deltas[0]):
                raise FormatError("time index must be strictly increasing at a fixed step")
            if 86400 % deltas[0]:
                raise FormatError(f"a step of {deltas[0] / 60:g} minutes does not divide a day")

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def step_minutes(self) -> float:
        if len(self.time_index) < 2:
            raise FormatError("cannot infer a step from fewer than two timestamps")
        d = (self.time_index[1] - self.time_index[0]).astype("timedelta64[s]").astype(np.int64)
        return d / 60.0

    def observed_fraction(self) -> np.ndarray:
        """Per-sensor fraction of observed cells."""
        return self.missing_mask.reshape(self.n_sensors, -1).mean(axis=1)

    def copy(self) -> "Panel":
        return self.with_values(self.values.copy())

    def with_values(self, values: np.ndarray) -> "Panel":
        """A panel over `values` with its own copies of the time index and mask."""
        return Panel(values, self.time_index.copy(), self.features,
                     self.missing_mask.copy(), self.sensors)


@dataclass
class ScalingParams:
    """Per (sensor, feature) min/max taken from the training span.

    Degenerate series (max == min) map to constant zero and are flagged so
    callers can report them.
    """

    lo: np.ndarray  # (n, k)
    hi: np.ndarray  # (n, k)
    degenerate: np.ndarray = field(default=None)  # bool (n, k)

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if np.any(self.hi < self.lo):
            raise ValueError("scaling max must be >= min")
        if self.degenerate is None:
            self.degenerate = self.hi == self.lo
        self.degenerate = np.asarray(self.degenerate, dtype=bool)


def _parse_timestamp(text: str) -> np.datetime64:
    """`text`, an ISO 8601 date and time at a whole second, with no UTC offset."""
    try:
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is not None:
            raise ValueError("a UTC offset is not allowed")
        if stamp.microsecond:
            raise ValueError("a fraction of a second is not allowed")
        return np.datetime64(stamp, "s")
    except ValueError as exc:
        raise FormatError(f"bad timestamp {text!r}: {exc}") from None


def load_sensor_meta(meta_path: str) -> list[SensorMeta]:
    metas: list[SensorMeta] = []
    seen: set[str] = set()
    for _, row in read_table(meta_path, "metadata file", META_HEADER):
        sid, milepost, kind = row[0].strip(), row[1], row[2].strip()
        if sid in seen:
            raise FormatError(f"duplicate sensor id {sid!r} in metadata")
        seen.add(sid)
        try:
            metas.append(SensorMeta(sid, float(milepost), SensorKind(kind)))
        except ValueError as exc:
            raise FormatError(f"bad metadata row for {sid!r}: {exc}") from None
    return metas


def _digest(path: str, meta_path: str) -> str:
    """The hex SHA-256 of PANEL_FORMAT, the metadata file's bytes and the data
    file `path`'s bytes, read in pieces."""
    with open(meta_path, "rb") as fh:
        meta = fh.read()
    digest = hashlib.sha256(f"{PANEL_FORMAT}\n{len(meta)}\n".encode())
    digest.update(meta)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def load_csv(path: str, meta_path: str) -> Panel:
    """Read a long-format data CSV plus sensor metadata into a Panel.

    The data file has one row per (sensor, timestamp), in any sensor order,
    but each sensor's own rows must have strictly increasing timestamps.  The
    step is inferred from the smallest timestamp gap and every timestamp must
    sit on that grid.  Rows absent from the grid become mask=False cells.
    Sensors are ordered by milepost.

    The data file is read by `files.read_table`, so it follows the `csv`
    module's rules like every other table: lines end at `\\n`, `\\r\\n` or
    `\\r`, blank lines are skipped, a quoted field may hold commas, line
    breaks and doubled quotes, and every other row holds exactly five fields.
    Sensor ids and timestamps are stripped of surrounding whitespace, and a
    timestamp is ISO 8601 at a whole second with no UTC offset.  A bad file
    raises the error of its first bad row in file order; a row with the wrong
    field count is named by its physical line.

    Each file pair is parsed once.  One byte pass hashes PANEL_FORMAT and
    both files' bytes.  If the panel file `path + PANEL_SUFFIX` holds that
    digest, its values, mask and time index are returned, bit-identical to a
    parse, and the sensors come from the metadata as always.  Otherwise the
    file is parsed and the panel file written (temporary name, then rename);
    a failed write is ignored, and a file that does not parse is never
    written.  A panel file that is missing, unreadable, truncated or of
    another format or digest is re-parsed, so it is safe to delete at any
    time.
    """
    metas = sorted(load_sensor_meta(meta_path), key=lambda m: (m.position, m.id))
    digest = _digest(path, meta_path)
    panel_file = path + PANEL_SUFFIX
    arrays = _read_panel_file(panel_file, digest, len(metas))
    if arrays is None:
        arrays = _parse(path, metas)
        with suppress(OSError):  # the panel file only saves later parses
            publish_arrays(panel_file, {"format": np.array(PANEL_FORMAT),
                                        "digest": np.array(digest),
                                        **dict(zip(("values", "mask", "time_index"), arrays))})
    values, mask, time_index = arrays
    return Panel(values, time_index, FEATURES, mask, tuple(metas))


def _parse(path: str, metas: list[SensorMeta]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, mask and time index of the data file `path`; see `load_csv`.
    Each distinct raw sensor id and timestamp field is parsed once, through
    dicts.  Each row's sensor index and epoch seconds go to one typed array
    and its three readings to another, so no row outlives its own iteration."""
    known = {m.id: i for i, m in enumerate(metas)}
    sensor_of: dict[str, int] = {}  # raw field -> sensor index
    epoch_of: dict[str, int] = {}  # raw field -> epoch seconds
    keys, observed = array("q"), array("d")
    for _, row in read_table(path, "data", DATA_HEADER):
        raw_id, raw_time, flow, occupancy, speed = row
        si = sensor_of.get(raw_id)
        if si is None:
            sid = raw_id.strip()
            if sid not in known:
                raise UnknownSensorError(f"data references unknown sensor {sid!r}")
            si = sensor_of[raw_id] = known[sid]
        ts = epoch_of.get(raw_time)
        if ts is None:
            ts = epoch_of[raw_time] = int(_parse_timestamp(raw_time.strip()).astype(np.int64))
        try:
            observed.extend((float(flow), float(occupancy), float(speed)))
        except ValueError as exc:
            raise FormatError(f"bad numeric field in row {row!r}: {exc}") from None
        keys.extend((si, ts))

    sensor_idx, epoch_s = np.frombuffer(keys, dtype=np.int64).reshape(-1, 2).T
    readings = np.frombuffer(observed).reshape(-1, len(FEATURES))
    order = np.argsort(sensor_idx, kind="stable")  # file order within each sensor
    s_sorted, e_sorted = sensor_idx[order], epoch_s[order]
    regress = (s_sorted[1:] == s_sorted[:-1]) & (e_sorted[1:] <= e_sorted[:-1])
    if regress.any():
        sid = metas[s_sorted[1:][regress][0]].id
        raise FormatError(f"timestamps for sensor {sid!r} are not strictly increasing")
    if epoch_s.size == 0:
        raise EmptyPanelError("data file contains no rows")

    times = np.unique(epoch_s)
    lo, step = int(times[0]), 1
    if len(times) > 1:
        step = int(np.diff(times).min())
        if np.any((times - lo) % step != 0):
            raise FormatError("timestamps do not sit on a fixed-step grid")
    time_index = (lo + step * np.arange((int(times[-1]) - lo) // step + 1)).astype("datetime64[s]")

    shape = (len(metas), len(time_index), len(FEATURES))
    values = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    slots = (epoch_s - lo) // step
    values[sensor_idx, slots] = readings
    mask[sensor_idx, slots] = True
    if not np.all(np.isfinite(readings)):
        raise FormatError("observed values must be finite")
    return values, mask, time_index


def _read_panel_file(path: str, digest: str,
                     n_sensors: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Values, mask and time index kept in the panel file `path` if it holds
    `digest` and arrays of the panel's dtypes and shapes, else None.  The
    zip's CRC-32 of each array catches truncation and bit rot."""
    try:
        kept = read_arrays(path, "panel file")
        if str(kept["format"]) != PANEL_FORMAT or str(kept["digest"]) != digest:
            return None
        values, mask, time_index = kept["values"], kept["mask"], kept["time_index"]
    except (OSError, KeyError, FormatError):
        return None
    shape = (n_sensors, time_index.size, len(FEATURES))
    if ((values.dtype, mask.dtype, time_index.dtype) != (np.float64, bool, "datetime64[s]")
            or (values.shape, mask.shape, time_index.shape) != (shape, shape, shape[1:2])):
        return None
    return values, mask, time_index


def filter_complete(p: Panel, min_fraction: float) -> Panel:
    """Keep exactly the sensors whose observed fraction exceeds `min_fraction`;
    a panel that keeps them all is returned as it is, not copied."""
    if not 0.0 <= min_fraction <= 1.0:
        raise ValueError(f"min_fraction must lie in [0, 1], got {min_fraction}")
    keep = np.flatnonzero(p.observed_fraction() > min_fraction)
    if keep.size == 0:
        raise EmptyPanelError(f"no sensor exceeds completeness {min_fraction}")
    if keep.size == p.n_sensors:
        return p
    return Panel(p.values[keep], p.time_index, p.features, p.missing_mask[keep],
                 tuple(p.sensors[i] for i in keep))


def fit_scale(p: Panel, train_range: tuple[int, int]) -> ScalingParams:
    """Min/max per (sensor, feature) over observed cells of steps [start, stop)."""
    start, stop = train_range
    if not 0 <= start < stop <= p.n_steps:
        raise ValueError(f"train range {train_range} is empty or out of bounds")
    vals = p.values[:, start:stop, :]
    mask = p.missing_mask[:, start:stop, :]
    # unobserved cells read as +inf for the min and -inf for the max, so
    # reductions over observed cells only; a series with none gets 0
    seen = mask.any(axis=1)
    lo = np.where(seen, np.where(mask, vals, np.inf).min(axis=1), 0.0)
    hi = np.where(seen, np.where(mask, vals, -np.inf).max(axis=1), 0.0)
    return ScalingParams(lo=lo, hi=hi)


def apply_scale(p: Panel, s: ScalingParams) -> Panel:
    span = np.where(s.degenerate, 1.0, s.hi - s.lo)
    scaled = (p.values - s.lo[:, None, :]) / span[:, None, :]
    return p.with_values(np.where(s.degenerate[:, None, :], 0.0, scaled))


def impute_forward(p: Panel) -> Panel:
    """Fill unobserved cells with the last observed value of the same series.

    Leading gaps take the first observed value.  A series with no observed
    value at all is an error.  The whole panel is filled by one gather over
    the flat index `(sensor * steps + step) * features + feature`: each cell
    reads the latest observed cell of its series up to it, or the first one.
    """
    observed = p.missing_mask
    empty = ~observed.any(axis=1)
    if empty.any():
        si, fi = np.argwhere(empty)[0]
        raise EmptySeriesError(
            f"sensor {p.sensors[si].id!r} feature {p.features[fi]!r} has no observations")
    n, t, k = p.values.shape
    flat = (np.arange(n)[:, None, None] * t + np.arange(t)[:, None]) * k + np.arange(k)
    first = (np.arange(n)[:, None] * t + observed.argmax(axis=1)) * k + np.arange(k)
    np.copyto(flat, -1, where=~observed)
    np.maximum.accumulate(flat, axis=1, out=flat)
    np.maximum(flat, first[:, None, :], out=flat)
    return p.with_values(np.take(p.values, flat))


def neighbor_pairs(sensors, radius_miles: float = 2.0) -> list[tuple[int, int]]:
    """Index pairs of milepost-consecutive mainline sensors within `radius_miles`.

    Ramps are skipped (clustering runs on mainline sensors).  Gaps wider than
    the radius split the corridor, so clusters can never bridge them.
    """
    eligible = [i for i, m in enumerate(sensors) if m.kind == SensorKind.MAINLINE]
    pairs: list[tuple[int, int]] = []
    for a, b in zip(eligible, eligible[1:]):
        if abs(sensors[b].position - sensors[a].position) <= radius_miles:
            pairs.append((a, b))
    return pairs
