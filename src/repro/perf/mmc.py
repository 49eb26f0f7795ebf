"""Analytic M/M/c queueing model (Erlang C) with response-time percentiles.

This is the reproduction's one latency model: every SLO, scaling factor
(Table III) and latency curve (Figs. 7 and 8) comes from it.  It answers
each evaluation in microseconds and is exact for exponential service.
The test suite cross-validates it against a discrete-event FCFS
simulator (``tests/oracles/queueing.py``).

For an M/M/c queue with arrival rate ``lam`` and per-core service rate
``mu`` (both per second):

- Erlang-C waiting probability ``P_w``,
- waiting time ``W``: an atom at 0 with mass ``1 - P_w`` plus an
  exponential tail with rate ``theta = c*mu - lam``,
- response time ``R = W + S`` with ``S ~ Exp(mu)`` independent, giving a
  closed-form ``P(R > t)`` that we invert numerically for percentiles.

:func:`erlang_c`, :func:`response_tail_probability`, and
:func:`response_percentile_ms` accept numpy arrays (broadcast together)
as well as scalars, so a whole (app × load × cores) grid evaluates in
one call.  The array paths run the same recurrences element-wise with
per-element bracket/bisection freezing, so they track the scalar path to
within an ULP of the underlying ``exp`` (numpy's vector ``exp`` and
``math.exp`` may legitimately differ in the last bit); scalar calls are
untouched and remain the reference.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..core.errors import SimulationError


def _erlang_c_array(cores: np.ndarray, offered_load: np.ndarray) -> np.ndarray:
    """Element-wise Erlang C over broadcast ``(cores, offered_load)``.

    Runs the same Erlang-B recurrence as the scalar path, freezing each
    element once ``k`` passes its core count — identical operations per
    element, so identical IEEE results.
    """
    cores_a = np.asarray(cores, dtype=np.int64)
    load_a = np.asarray(offered_load, dtype=np.float64)
    cores_a, load_a = np.broadcast_arrays(cores_a, load_a)
    if (cores_a < 1).any():
        raise SimulationError("cores must be >= 1")
    if (load_a >= cores_a).any():
        raise SimulationError(
            "offered load must be < cores at every grid point "
            "for a stable queue"
        )
    # Idle points (A <= 0) never wait; mask them with a safely stable
    # load so the shared recurrence stays finite, then zero them out.
    safe = np.where(load_a > 0, load_a, 0.5)
    b = np.ones(safe.shape)
    for k in range(1, int(cores_a.max()) + 1):
        nb = safe * b / (k + safe * b)
        b = np.where(k <= cores_a, nb, b)
    rho = safe / cores_a
    pc = b / (1.0 - rho + rho * b)
    return np.where(load_a > 0, pc, 0.0)


def erlang_c(cores, offered_load):
    """Erlang-C probability that an arrival must wait.

    Args:
        cores: Number of servers ``c`` — an int or an integer array.
        offered_load: ``A = lam/mu`` in Erlangs; must satisfy ``A < c``.
            Scalars and arrays broadcast together.

    Computed in a numerically stable recurrence (no factorials).
    """
    if np.ndim(cores) or np.ndim(offered_load):
        return _erlang_c_array(cores, offered_load)
    if cores < 1:
        raise SimulationError("cores must be >= 1")
    if offered_load <= 0:
        return 0.0
    if offered_load >= cores:
        raise SimulationError(
            f"offered load {offered_load} must be < cores {cores} "
            "for a stable queue"
        )
    # Erlang-B recurrence: B(0) = 1; B(k) = A*B(k-1) / (k + A*B(k-1)).
    b = 1.0
    for k in range(1, cores + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / cores
    return b / (1.0 - rho + rho * b)


def _tail_terms(
    lam: np.ndarray, mu_qps: np.ndarray, cores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hoist the t-independent pieces of the array tail probability.

    Returns ``(pw, mu_ms, theta_ms, degenerate, theta_safe)``; the
    percentile bisection reuses them across every evaluation.
    """
    pw = _erlang_c_array(cores, lam / mu_qps)
    mu_ms = mu_qps / 1000.0
    theta_ms = (cores * mu_qps - lam) / 1000.0
    degenerate = np.abs(theta_ms - mu_ms) < 1e-12 * mu_ms
    theta_safe = np.where(degenerate, mu_ms + 1.0, theta_ms)
    return pw, mu_ms, theta_ms, degenerate, theta_safe


def _tail_at(
    t: np.ndarray,
    pw: np.ndarray,
    mu_ms: np.ndarray,
    degenerate: np.ndarray,
    theta_safe: np.ndarray,
) -> np.ndarray:
    """``P(R > t)`` element-wise given the hoisted terms."""
    emt = np.exp(-mu_ms * t)
    no_wait = (1.0 - pw) * emt
    waited = np.where(
        degenerate,
        pw * emt * (1.0 + mu_ms * t),
        pw
        * (theta_safe * emt - mu_ms * np.exp(-theta_safe * t))
        / (theta_safe - mu_ms),
    )
    return no_wait + waited


def response_tail_probability(t_ms, lam_qps, mu_per_core_qps, cores):
    """``P(R > t)`` for the M/M/c response time ``R``.

    Args:
        t_ms: Threshold in milliseconds.
        lam_qps: Arrival rate, requests/second.
        mu_per_core_qps: Per-core service rate, requests/second.
        cores: Number of cores.

    All arguments may be numpy arrays (broadcast together).
    """
    if (
        np.ndim(t_ms)
        or np.ndim(lam_qps)
        or np.ndim(mu_per_core_qps)
        or np.ndim(cores)
    ):
        t, lam, mu, cores_a = np.broadcast_arrays(
            np.asarray(t_ms, dtype=np.float64),
            np.asarray(lam_qps, dtype=np.float64),
            np.asarray(mu_per_core_qps, dtype=np.float64),
            np.asarray(cores, dtype=np.int64),
        )
        pw, mu_ms, _theta, degenerate, theta_safe = _tail_terms(
            lam, mu, cores_a
        )
        tail = _tail_at(np.maximum(t, 0.0), pw, mu_ms, degenerate, theta_safe)
        return np.where(t < 0, 1.0, tail)
    if t_ms < 0:
        return 1.0
    a = lam_qps / mu_per_core_qps
    pw = erlang_c(cores, a)
    mu = mu_per_core_qps / 1000.0  # per millisecond
    theta = (cores * mu_per_core_qps - lam_qps) / 1000.0
    no_wait = (1.0 - pw) * math.exp(-mu * t_ms)
    if abs(theta - mu) < 1e-12 * mu:
        waited = pw * math.exp(-mu * t_ms) * (1.0 + mu * t_ms)
    else:
        waited = (
            pw
            * (theta * math.exp(-mu * t_ms) - mu * math.exp(-theta * t_ms))
            / (theta - mu)
        )
    return no_wait + waited


def _response_percentile_array(quantile, lam_qps, mu_per_core_qps, cores):
    """Masked element-wise inversion of the response-time tail.

    Each element runs the same bracket-doubling and 200-step bisection
    as the scalar path, freezing independently once converged; unstable
    points (``lam >= c*mu``) report ``inf`` without participating.
    """
    q, lam, mu, cores_a = np.broadcast_arrays(
        np.asarray(quantile, dtype=np.float64),
        np.asarray(lam_qps, dtype=np.float64),
        np.asarray(mu_per_core_qps, dtype=np.float64),
        np.asarray(cores, dtype=np.int64),
    )
    if ((q <= 0) | (q >= 1)).any():
        raise SimulationError("quantile must be in (0, 1)")
    shape = q.shape
    q, lam, mu, cores_a = (np.ravel(a) for a in (q, lam, mu, cores_a))
    out = np.full(q.shape, math.inf)
    stable = lam < cores_a * mu
    if not stable.any():
        return out.reshape(shape)
    q, lam, mu, cores_a = (
        a[stable] for a in (q, lam, mu, cores_a)
    )
    pw, mu_ms, _theta, degenerate, theta_safe = _tail_terms(lam, mu, cores_a)
    target = 1.0 - q
    # Bracket: mean response time scales the upper bound (same formula
    # as mean_response_ms, with the hoisted Erlang-C value).
    wait_ms = np.where(
        lam > 0, 1000.0 * pw / (cores_a * mu - lam), 0.0
    )
    mean_ms = wait_ms + 1000.0 / mu
    lo = np.zeros(q.shape)
    hi = np.maximum(10.0 * mean_ms, 1.0)
    need = _tail_at(hi, pw, mu_ms, degenerate, theta_safe) > target
    while need.any():
        hi = np.where(need, hi * 2.0, hi)
        if (need & (hi > 1e12)).any():
            raise SimulationError("percentile bisection failed to bracket")
        need &= _tail_at(hi, pw, mu_ms, degenerate, theta_safe) > target
    active = np.ones(q.shape, dtype=bool)
    for _ in range(200):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        go_lo = _tail_at(mid, pw, mu_ms, degenerate, theta_safe) > target
        lo = np.where(active & go_lo, mid, lo)
        hi = np.where(active & ~go_lo, mid, hi)
        active &= ~(hi - lo < 1e-9 * (1.0 + hi))
    out[stable] = 0.5 * (lo + hi)
    return out.reshape(shape)


def response_percentile_ms(quantile, lam_qps, mu_per_core_qps, cores):
    """The ``quantile`` (e.g. 0.95) of M/M/c response time, in ms.

    Inverted by bisection on the closed-form tail probability.  All
    arguments may be numpy arrays (broadcast together); unstable points
    (``lam >= c*mu``) report ``inf``.
    """
    if (
        np.ndim(quantile)
        or np.ndim(lam_qps)
        or np.ndim(mu_per_core_qps)
        or np.ndim(cores)
    ):
        return _response_percentile_array(
            quantile, lam_qps, mu_per_core_qps, cores
        )
    if not 0 < quantile < 1:
        raise SimulationError("quantile must be in (0, 1)")
    if lam_qps >= cores * mu_per_core_qps:
        return math.inf
    target = 1.0 - quantile
    # Bracket: mean response time scales the upper bound.
    mean_ms = mean_response_ms(lam_qps, mu_per_core_qps, cores)
    lo, hi = 0.0, max(10.0 * mean_ms, 1.0)
    while response_tail_probability(hi, lam_qps, mu_per_core_qps, cores) > target:
        hi *= 2.0
        if hi > 1e12:
            raise SimulationError("percentile bisection failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if response_tail_probability(mid, lam_qps, mu_per_core_qps, cores) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


def mean_wait_ms(
    lam_qps: float, mu_per_core_qps: float, cores: int
) -> float:
    """Mean queueing delay (excluding service), in milliseconds."""
    if lam_qps <= 0:
        return 0.0
    if lam_qps >= cores * mu_per_core_qps:
        return math.inf
    a = lam_qps / mu_per_core_qps
    pw = erlang_c(cores, a)
    return 1000.0 * pw / (cores * mu_per_core_qps - lam_qps)


def mean_response_ms(
    lam_qps: float, mu_per_core_qps: float, cores: int
) -> float:
    """Mean response time (wait plus service), in milliseconds."""
    wait = mean_wait_ms(lam_qps, mu_per_core_qps, cores)
    if math.isinf(wait):
        return math.inf
    return wait + 1000.0 / mu_per_core_qps
