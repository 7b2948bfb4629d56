"""Exception hierarchy shared across the package, the read-only array copy value
types store, and the one rule that checks every number the program takes: its
type and range are declared once, by an annotation such as PositiveFloat,
PositiveInt or NonNegativeInt; _check_fields applies it to every field of a
dataclass and _check_number to one argument or file value. Either raises
ConfigError (a ValueError): `'<name>' must be <type>, got <value>` or
`<name> must be <range>, got <value>`. SAMPLE_BOUND bounds every trajectory
sample, homography entry and number a model holds; with it, the ranges of the
feature settings and of C keep every kernel and every training step finite."""

import dataclasses
import math
from functools import cache
from numbers import Integral, Real
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np


class CrowdGroupsError(Exception):
    """Base class for all errors raised by this package."""


class TrajectoryParseError(CrowdGroupsError):
    """A trajectory, ground-truth, homography or descriptor file could not be parsed."""


class DataError(CrowdGroupsError):
    """Input data violates a documented format or consistency rule."""


class DegenerateProjectionError(DataError):
    """The homogeneous coordinate vanished while projecting a point."""


class ConfigError(CrowdGroupsError, ValueError):
    """A configuration value or combination of values is invalid."""


# The exact-type tests come first: they are much cheaper than the ABC checks.
def _is_finite_real(value) -> bool:
    real = type(value) is float or isinstance(value, Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


def _is_integer(value) -> bool:
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


# A number field's range (low, high, text), closed; ulp(0.0) is the least positive float.
PositiveFloat = Annotated[float, (math.ulp(0.0), math.inf, "positive")]
NonNegativeFloat = Annotated[float, (0.0, math.inf, "non-negative")]
NonNegativeInt = Annotated[int, (0, math.inf, "non-negative")]
PositiveInt = Annotated[int, (1, math.inf, "at least 1")]
# A trajectory sample has |t| <= SAMPLE_BOUND s and |x|, |y| <= SAMPLE_BOUND m, so
# two points lie at most 2√2e100 m apart, and two heat cell centres (edge <= 1e100 m)
# 3√2e100 m. Over a Length >= 1e-50 m, a Gaussian exponent of d_ph or d_he is then at
# most (3√2e100)² / 4e-100 = 4.5e300 < 1.8e308 and a cell index at most 1e150; a
# Rate <= 1e100 per second keeps k_r × dwell <= 2e200. Every kernel stays finite.
SAMPLE_BOUND = 1e100
Length = Annotated[float, (1e-50, 1e100, "between 1e-50 and 1e100")]
Rate = Annotated[float, (0.0, 1e100, "between 0 and 1e100")]
# A scene's (P, 4) float64 pair table gives P < 2^63 / 32 = 2.9e17 and |Psi| <= P. With
# C <= 1e60 every block, w and w_avg that training builds stays below about 1e80 (a
# block mixes 0 and C/k times planes). With a model's arrays and l within ±SAMPLE_BOUND
# and under 2^30 window members (n x n float64 affinities fit in numpy's 2^63 bytes),
# predict, the oracle and the line search form no product above about 1e181, and an
# online step from a model at the bound moves w by under half an ulp of 1e100.
Regularization = Annotated[float, (math.ulp(0.0), 1e60, "positive and at most 1e60")]
ModelNumber = Annotated[float, (-SAMPLE_BOUND, SAMPLE_BOUND, f"within ±{SAMPLE_BOUND:g}")]


@cache
def _field_hints(cls) -> tuple:
    """(name, resolved annotation, its typing origin, declared range or None)
    of every field of the dataclass `cls`; a tuple's range is its items'."""
    hints, extras = get_type_hints(cls), get_type_hints(cls, include_extras=True)
    out = []
    for f in dataclasses.fields(cls):
        hint, extra = hints[f.name], extras[f.name]
        item = get_args(extra)[0] if get_origin(hint) is tuple else extra
        out.append((f.name, hint, get_origin(hint), getattr(item, "__metadata__", (None,))[0]))
    return tuple(out)


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only, C-contiguous copy of `values` as `dtype`; the caller's array stays its own."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _check_value(name: str, value, hint, origin, limits):
    """`value` as a field `name` annotated `hint` stores it, or ConfigError. A
    float is a finite real (an int is kept as given), a tuple[float, ...] a list
    or tuple of them (stored as a tuple of floats), an int an Integral (stored as
    int), none of them a bool; a Literal is one of its values and any other type
    an instance of it. A number, or each item of a tuple, then lies in `limits`."""
    if hint is float:
        ok, expected = _is_finite_real(value), "a finite number"
    elif hint is int:
        ok, expected = _is_integer(value), "an integer"
    elif origin is tuple:
        ok = isinstance(value, (list, tuple)) and all(map(_is_finite_real, value))
        expected = "a list of finite numbers"
    elif origin is Literal:
        ok = value in get_args(hint)
        expected = f"one of {list(get_args(hint))}"
    else:
        ok, expected = isinstance(value, hint), getattr(hint, "__name__", str(hint))
    if not ok:
        raise ConfigError(f"{name!r} must be {expected}, got {value!r}")
    value = int(value) if hint is int else tuple(map(float, value)) if origin is tuple else value
    if limits is not None:
        low, high, text = limits
        for item in value if origin is tuple else (value,):
            if not low <= item <= high:
                raise ConfigError(f"{name} must be {text}, got {item!r}")
    return value


def _check_number(name: str, value, number):
    """`value` as a field `name` annotated by `number`, a number alias or a bare type, stores it."""
    hint, limits = get_args(number) or (number, None)
    return _check_value(name, value, hint, None, limits)


def _check_fields(config) -> None:
    """Store every field of the dataclass `config` as checked by its annotation."""
    for name, *rule in _field_hints(type(config)):
        object.__setattr__(config, name, _check_value(name, getattr(config, name), *rule))
