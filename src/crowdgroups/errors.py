"""Exception hierarchy shared across the package, and the check of every
dataclass field against its annotation."""

import dataclasses
import math
from functools import cache
from numbers import Integral, Real
from typing import Literal, get_args, get_origin, get_type_hints


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


# The exact-type tests come first: they are much cheaper than the ABC checks.
def _is_finite_real(value) -> bool:
    real = type(value) is float or isinstance(value, Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


def _is_integer(value) -> bool:
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


@cache
def _field_hints(cls) -> tuple:
    """(name, resolved annotation, its typing origin) of every field of the dataclass `cls`."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], get_origin(hints[f.name])) for f in dataclasses.fields(cls))


def _check_fields(config) -> None:
    """Raise ConfigError naming the first field of the dataclass `config` whose
    value does not fit its annotation. A float is a finite real (an int is kept
    as given), a tuple[float, ...] a list or tuple of them (stored as a tuple of
    floats), an int an Integral (stored as int), none of them a bool; a Literal
    is one of its values and any other type an instance of it."""
    for name, hint, origin in _field_hints(type(config)):
        value = getattr(config, name)
        if hint is float:
            ok, expected = _is_finite_real(value), "a finite number"
        elif hint is int:
            ok, expected = _is_integer(value), "an integer"
            if ok:
                object.__setattr__(config, name, int(value))
        elif origin is tuple:
            ok = isinstance(value, (list, tuple)) and all(map(_is_finite_real, value))
            if ok:
                object.__setattr__(config, name, tuple(map(float, value)))
            expected = "a list of finite numbers"
        elif origin is Literal:
            ok = value in get_args(hint)
            expected = f"one of {list(get_args(hint))}"
        else:
            ok, expected = isinstance(value, hint), getattr(hint, "__name__", str(hint))
        if not ok:
            raise ConfigError(f"{name!r} must be {expected}, got {value!r}")
