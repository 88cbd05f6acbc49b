"""Monotone-decreasing learning-rate and neighborhood-radius schedules.

A :class:`ScheduleSpec` names one of the implemented decay kinds together
with its start value, optional end value and horizon ``t_max``. Iterations
are zero-based; training evaluates schedules on ``t in [0, t_max)``, but
``t = t_max`` is accepted so endpoint values can be inspected.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cache
from typing import get_type_hints

import numpy as np

LEARNING_RATE_KINDS = ("inverse", "linear", "power", "exponential", "start-end")
RADIUS_KINDS = ("linear", "exponential", "start-end")

#: Lower bound on the neighborhood radius, keeps the kernel well-defined
#: when a linear schedule would otherwise reach zero.
RADIUS_FLOOR = 1e-6

# resolving a class's annotations takes about 0.1 ms; they do not change
_field_types = cache(get_type_hints)


def has_type(value, expected: type) -> bool:
    """Whether ``value`` is an ``expected``; an int counts as a float if it
    converts to one, a bool as neither."""
    kind = {float: numbers.Real, int: numbers.Integral}.get(expected, expected)
    if isinstance(value, bool) is not (expected is bool) or not isinstance(value, kind):
        return False
    # a JSON int past the float range would raise OverflowError in arithmetic
    return expected is not float or isinstance(value, float) or abs(value) <= sys.float_info.max


def check_fields(obj) -> None:
    """Raise ValueError unless each field of the dataclass ``obj`` is valid.

    A valid value has the field's annotated type (see :func:`has_type`) and
    is one of the ``choices`` that the field's metadata lists, if any.
    """
    types = _field_types(type(obj))
    for f in fields(obj):
        value, expected = getattr(obj, f.name), types[f.name]
        if not has_type(value, expected):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(
                f"unknown {f.name.replace('_', ' ')} {value!r}, expected one of {choices}"
            )


@dataclass(frozen=True)
class ScheduleSpec:
    """One decay schedule: kind, start/end values and iteration horizon."""

    kind: str = field(metadata={"choices": LEARNING_RATE_KINDS})
    start: float
    end: float = 0.0
    t_max: int = 1

    def __post_init__(self):
        check_fields(self)
        if not self.start > 0:  # NaN too
            raise ValueError(f"schedule start must be positive, got {self.start}")
        if self.kind == "start-end" and not 0 < self.end <= self.start:
            raise ValueError(
                f"start-end schedule needs 0 < end <= start, got end={self.end}, start={self.start}"
            )
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


def _check_iteration(t: int, spec: ScheduleSpec) -> None:
    if not 0 <= t <= spec.t_max:
        raise ValueError(f"iteration t={t} outside [0, {spec.t_max}]")


def _learning_rate_of(spec: ScheduleSpec):
    """alpha as a function of t for ``spec``: the kind is dispatched here,
    once, and t is not range-checked. Training maps it over its iterations."""
    a0, t_max = spec.start, spec.t_max
    if spec.kind == "inverse":
        return lambda t: a0 / max(t, 1)
    if spec.kind == "linear":
        return lambda t: a0 * (1.0 - t / t_max)
    if spec.kind == "power":
        return lambda t: a0 ** (t / t_max)
    if spec.kind == "exponential":
        return lambda t: a0 * float(np.exp(-(t / t_max)))
    ratio = spec.end / a0
    return lambda t: a0 * ratio ** (t / t_max)


def _radius_of(spec: ScheduleSpec):
    """sigma as a function of t for ``spec``, like :func:`_learning_rate_of`."""
    if spec.kind not in RADIUS_KINDS:
        raise ValueError(
            f"radius schedule kind must be one of {RADIUS_KINDS}, got {spec.kind!r}"
        )
    rate = _learning_rate_of(spec)
    return lambda t: max(rate(t), RADIUS_FLOOR)


def learning_rate(t: int, spec: ScheduleSpec) -> float:
    """Learning rate alpha(t) for the given schedule.

    Kinds: "inverse" start/t (evaluated at max(t, 1)); "linear"
    start*(1 - t/t_max); "power" start**(t/t_max); "exponential"
    start*exp(-t/t_max); "start-end" start*(end/start)**(t/t_max).
    """
    _check_iteration(t, spec)
    return _learning_rate_of(spec)(t)


def neighborhood_radius(t: int, spec: ScheduleSpec) -> float:
    """Neighborhood radius sigma(t), floored at :data:`RADIUS_FLOOR`.

    Kinds: "linear", "exponential" and "start-end", the functions that
    :func:`learning_rate` computes for them.
    """
    radius = _radius_of(spec)
    _check_iteration(t, spec)
    return radius(t)
