"""Exception types shared across the toolkit, and the configs' finiteness check.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, training divergence exits 4.
"""

import math
from dataclasses import fields


class CorridorcastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CorridorcastError):
    """Bad configuration: unknown keys, invalid parameter values, wiring mismatches."""


class FieldError(ConfigError):
    """A config check that rejects the value of the one field `field`.

    The message is `field` then `problem`, so a config reader can put where
    the key was read in front of it.
    """

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field


class DataError(CorridorcastError):
    """Bad input data."""


class FormatError(DataError):
    """Malformed input file (bad header, non-monotone timestamps, off-grid rows)."""


class UnknownSensorError(DataError):
    """Data references a sensor id absent from the metadata."""


class EmptyPanelError(DataError):
    """An operation produced or received a panel with no sensors."""


class EmptySeriesError(DataError):
    """A series has no observed values at all."""


class InsufficientDataError(DataError):
    """A series is too short for the requested operation."""


class TrainingDivergence(CorridorcastError):
    """Training loss blew up past the divergence guard."""


def require_finite(cfg) -> None:
    """Raise FieldError naming the first field of dataclass `cfg` that holds a
    non-finite float, alone or in a tuple."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise FieldError(f.name, f"must be finite, got {value}")
