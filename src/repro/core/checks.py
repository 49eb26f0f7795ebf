"""Boundary checks for numeric configuration values.

A range check written as ``x <= 0`` or ``x < 0`` is false for NaN, so NaN
slips through it and surfaces later as a ``nan`` result (or, for a trace
duration of ``inf``, as a loop that never ends).  :func:`check_finite`
rejects non-finite values before it compares bounds, and raises
:class:`~repro.core.errors.ConfigError` so the CLI reports a clean error.
:func:`check_count` does the same for counts, which must be integers.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Optional

from .errors import ConfigError


def check_finite(
    value: float,
    label: str,
    *,
    above: Optional[float] = None,
    at_least: Optional[float] = None,
    below: Optional[float] = None,
    at_most: Optional[float] = None,
) -> None:
    """Check that ``value`` is a finite real number within the bounds.

    Args:
        value: The number to check.
        label: What it is, for the error message.
        above: Exclusive lower bound.
        at_least: Inclusive lower bound.
        below: Exclusive upper bound.
        at_most: Inclusive upper bound.

    Raises:
        ConfigError: ``value`` is not a real number, is NaN or infinite,
            or lies outside a given bound.

    >>> check_finite(0.5, "fraction", at_least=0, at_most=1)
    >>> check_finite(float("nan"), "fraction", at_least=0, at_most=1)
    Traceback (most recent call last):
    ...
    repro.core.errors.ConfigError: fraction must be finite and >= 0 and <= 1, got nan
    """
    given = [
        (bound, text, holds)
        for bound, text, holds in (
            (above, ">", operator.gt),
            (at_least, ">=", operator.ge),
            (below, "<", operator.lt),
            (at_most, "<=", operator.le),
        )
        if bound is not None
    ]
    if not (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and all(holds(value, bound) for bound, _, holds in given)
    ):
        wanted = " and ".join(
            ["finite"] + [f"{text} {bound:g}" for bound, text, _ in given]
        )
        raise ConfigError(f"{label} must be {wanted}, got {value!r}")


def check_count(value: int, label: str) -> None:
    """Check that ``value`` is a count: an integer >= 0.

    NumPy integers pass.  A float such as ``1.5``, ``nan`` or ``inf``
    fails even though ``< 0`` is false for it, and so does a ``bool``.

    Raises:
        ConfigError: ``value`` is not a non-negative integer.

    >>> check_count(3, "servers")
    >>> check_count(float("inf"), "servers")
    Traceback (most recent call last):
    ...
    repro.core.errors.ConfigError: servers must be an integer >= 0, got inf
    """
    if not (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 0
    ):
        raise ConfigError(f"{label} must be an integer >= 0, got {value!r}")
