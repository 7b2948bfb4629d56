"""Exception hierarchy shared across the package, and the numeric check of
the settings classes."""

import math


class CrowdGroupsError(Exception):
    """Base class for all errors raised by this package."""


class TrajectoryParseError(CrowdGroupsError):
    """A trajectory, ground-truth, homography or descriptor file could not be parsed."""


class DataError(CrowdGroupsError):
    """Input data violates a documented format or consistency rule."""


class DegenerateProjectionError(DataError):
    """The homogeneous coordinate vanished while projecting a point."""


class ConfigError(CrowdGroupsError):
    """A configuration value or combination of values is invalid."""


def _check_numbers(config, floats=(), ints=()) -> None:
    """Raise ConfigError unless the named float fields of the frozen dataclass
    `config` (every item of a tuple field) are finite and the named int fields
    are whole numbers, which are then stored as int."""
    for name in floats:
        value = getattr(config, name)
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name!r} must be finite, got {value!r}")
    for name in ints:
        value = getattr(config, name)
        if not float(value).is_integer():
            raise ConfigError(f"{name!r} must be a whole number, got {value!r}")
        object.__setattr__(config, name, int(value))
