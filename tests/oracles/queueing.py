"""Discrete-event FCFS queue, the oracle for the analytic latency model.

``repro.perf.mmc`` answers every latency question in closed form; it is
exact for exponential service.  This simulator checks it from outside:
an open M/G/c queue with Poisson arrivals at the offered QPS, ``c``
cores each serving one request at a time, FCFS dispatch.  With
``cv=1`` it samples the queue the analytic model describes; with other
service-time CVs it shows what the analytic model leaves out.

For an FCFS multi-server queue the full event calendar collapses to a
single min-heap of per-core free times: each arriving request is
assigned to the earliest-free core, starts at ``max(arrival,
core_free)``, and its response time is ``start + service - arrival``.
This is exact for FCFS.  Arrivals and services are drawn as whole blocks
from named :class:`~repro.core.rng.RngFactory` streams, so a run is a
pure function of its parameters and seed.

:func:`grid_digest` pins a grid of runs against
``benchmarks/golden_queueing_digests.json``; :func:`scaling_factor`
derives a Table III cell from simulated tails instead of the analytic
ones.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import SimulationError
from repro.core.rng import RngFactory
from repro.perf.apps import ApplicationProfile, platform_for_generation
from repro.perf.latency import SLO_LOAD_FRACTION, TAIL_QUANTILE, Slo, peak_qps
from repro.perf.scaling import BASELINE_CORES, CANDIDATE_CORES, ScalingResult


@dataclass(frozen=True)
class SimResult:
    """Latency statistics from one simulation run at one offered load.

    Attributes:
        offered_qps: Poisson arrival rate (requests/second).
        cores: Number of serving cores.
        mean_service_ms: Mean service time used.
        p50_ms, p95_ms, p99_ms: Response-time percentiles.
        mean_ms: Mean response time.
        utilization: Offered load over service capacity
            (``lambda * E[S] / c``); > 1 means the queue is unstable and
            latency is reported from a truncated, growing backlog.
        requests: Number of measured requests (after warmup).
        quantiles_ms: Extra response-time quantiles, in the order the
            ``quantiles=`` argument requested them (``None`` when none
            were requested).
    """

    offered_qps: float
    cores: int
    mean_service_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    utilization: float
    requests: int
    quantiles_ms: Optional[Tuple[float, ...]] = None

    @property
    def saturated(self) -> bool:
        """Whether the offered load exceeds service capacity."""
        return self.utilization >= 1.0


def sample_service_times(
    rng: np.random.Generator, n: int, mean_ms: float, cv: float = 1.0
) -> np.ndarray:
    """Draw ``n`` service times with the given mean and coefficient of
    variation.

    ``cv == 1`` draws exponential times (the M/M/c case); other values use
    a lognormal with matching first two moments, a standard stand-in for
    measured service-time distributions.
    """
    if mean_ms <= 0:
        raise SimulationError(f"mean service time must be > 0, got {mean_ms}")
    if cv <= 0:
        raise SimulationError(f"service-time CV must be > 0, got {cv}")
    if abs(cv - 1.0) < 1e-12:
        return rng.exponential(mean_ms, size=n)
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean_ms) - sigma2 / 2.0
    return rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)


def _request_stream(
    seed: int, offered_qps: float, mean_service_ms: float, cv: float, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Block-draw one simulation's (arrival, service) arrays."""
    rngs = RngFactory(seed)
    inter_ms = rngs.stream("arrivals").exponential(
        1000.0 / offered_qps, size=total
    )
    arrivals = np.cumsum(inter_ms)
    services = sample_service_times(
        rngs.stream("services"), total, mean_service_ms, cv
    )
    return arrivals, services


def _dispatch_scalar(
    arrivals: np.ndarray, services: np.ndarray, cores: int
) -> np.ndarray:
    """The FCFS dispatch recurrence for one simulation.

    Plain-float lists avoid per-element numpy scalar boxing.
    """
    arrival_list = arrivals.tolist()
    service_list = services.tolist()
    response_list: list = []
    append = response_list.append
    if cores == 1:
        # Single-core fast path: the "earliest-free core" is always the
        # previous request's completion time — no heap needed.
        done = 0.0
        for arrival, service in zip(arrival_list, service_list):
            done = (done if done > arrival else arrival) + service
            append(done - arrival)
    else:
        free_at = [0.0] * cores
        heapq.heapify(free_at)
        heappush, heappop = heapq.heappush, heapq.heappop
        for arrival, service in zip(arrival_list, service_list):
            core_free = heappop(free_at)
            done = (core_free if core_free > arrival else arrival) + service
            heappush(free_at, done)
            append(done - arrival)
    return np.asarray(response_list)


def _validated_quantiles(
    quantiles: Optional[Sequence[float]],
) -> Optional[Tuple[float, ...]]:
    """Normalize the extra-quantile request, rejecting values outside (0, 1)."""
    if quantiles is None:
        return None
    levels = tuple(float(q) for q in quantiles)
    for q in levels:
        if not 0.0 < q < 1.0:
            raise SimulationError(
                f"quantiles must be in (0, 1), got {q}"
            )
    return levels


def _measured_stats(
    measured: np.ndarray, levels: Optional[Tuple[float, ...]]
) -> Tuple[float, float, float, float, Optional[Tuple[float, ...]]]:
    """(p50, p95, p99, mean, extra quantiles) of one measured window."""
    p50, p95, p99 = np.percentile(measured, [50, 95, 99])
    extras = None
    if levels is not None:
        extras = tuple(
            float(v)
            for v in np.percentile(measured, [100.0 * q for q in levels])
        )
    return float(p50), float(p95), float(p99), float(measured.mean()), extras


def simulate_fcfs(
    offered_qps: float,
    cores: int,
    mean_service_ms: float,
    cv: float = 1.0,
    requests: int = 60_000,
    warmup: int = 5_000,
    seed: int = 0,
    quantiles: Optional[Sequence[float]] = None,
) -> SimResult:
    """Simulate an open FCFS M/G/c queue and report latency percentiles.

    Args:
        offered_qps: Poisson arrival rate, requests per second.
        cores: Number of cores (servers in the queueing sense).
        mean_service_ms: Mean per-request service time, milliseconds.
        cv: Service-time coefficient of variation (1.0 = exponential).
        requests: Measured requests after warmup.
        warmup: Requests discarded to let the queue reach steady state.
        seed: RNG seed; identical seeds give identical results.
        quantiles: Extra response-time quantiles (each in (0, 1)) to
            report in ``SimResult.quantiles_ms``, beyond the standard
            p50/p95/p99.
    """
    if offered_qps <= 0:
        raise SimulationError(f"offered QPS must be > 0, got {offered_qps}")
    if cores < 1:
        raise SimulationError(f"need at least 1 core, got {cores}")
    levels = _validated_quantiles(quantiles)
    total = requests + warmup
    arrivals, services = _request_stream(
        seed, offered_qps, mean_service_ms, cv, total
    )
    responses = _dispatch_scalar(arrivals, services, cores)
    measured = responses[warmup:]
    utilization = offered_qps * (mean_service_ms / 1000.0) / cores
    p50, p95, p99, mean, extras = _measured_stats(measured, levels)
    return SimResult(
        offered_qps=offered_qps,
        cores=cores,
        mean_service_ms=mean_service_ms,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_ms=mean,
        utilization=utilization,
        requests=requests,
        quantiles_ms=extras,
    )


def grid_digest(
    offered_qps,
    cores,
    mean_service_ms,
    cv=1.0,
    requests: int = 60_000,
    warmup: int = 5_000,
    seeds=0,
    quantiles: Optional[Sequence[float]] = None,
) -> str:
    """Content hash of one :func:`simulate_fcfs` run per grid point.

    Parameters broadcast against each other (numpy rules) and are
    flattened into grid points.  The hash covers a
    ``repro-simgrid/1:{requests}:{warmup}`` header, the parameter arrays
    (float64 loads, int64 cores, float64 service times and CVs, int64
    seeds), the float64 p50/p95/p99/mean/utilization arrays and, when
    extra quantiles are requested, their ``repr`` and the
    ``(points, quantiles)`` array — the layout the committed
    ``benchmarks/golden_queueing_digests.json`` values were written with.
    """
    params = [
        np.ravel(a)
        for a in np.broadcast_arrays(
            np.asarray(offered_qps, dtype=np.float64),
            np.asarray(cores, dtype=np.int64),
            np.asarray(mean_service_ms, dtype=np.float64),
            np.asarray(cv, dtype=np.float64),
            np.asarray(seeds, dtype=np.int64),
        )
    ]
    qps, cores_a, svc, cv_a, seed_a = params
    levels = _validated_quantiles(quantiles)
    rows = [
        simulate_fcfs(
            float(qps[i]),
            int(cores_a[i]),
            float(svc[i]),
            cv=float(cv_a[i]),
            requests=requests,
            warmup=warmup,
            seed=int(seed_a[i]),
            quantiles=levels,
        )
        for i in range(qps.size)
    ]
    stats = [
        np.array([getattr(row, name) for row in rows])
        for name in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "utilization")
    ]
    h = hashlib.sha256()
    h.update(f"repro-simgrid/1:{requests}:{warmup}".encode())
    for arr in params + stats:
        h.update(np.ascontiguousarray(arr).tobytes())
    if levels is not None:
        h.update(repr(levels).encode())
        h.update(np.array([row.quantiles_ms for row in rows]).tobytes())
    return h.hexdigest()


def tail_ms(
    offered_qps: float, cores: int, mean_service_ms: float, cv: float = 1.0
) -> float:
    """Simulated p95 of one seed-0 run; ``inf`` past saturation."""
    if offered_qps >= cores * (1000.0 / mean_service_ms):
        return math.inf
    result = simulate_fcfs(
        offered_qps, cores, mean_service_ms, cv=cv, seed=0,
        quantiles=(TAIL_QUANTILE,),
    )
    return result.quantiles_ms[0]


def scaling_factor(app: ApplicationProfile, generation: int) -> ScalingResult:
    """A Table III cell from simulated tails (``repro.perf.scaling``'s rule).

    The SLO is the simulated p95 at 90% of the 8-core baseline's peak;
    the factor is the first of 8/10/12 Bergamo cores whose simulated p95
    at that load meets it within the same ``1e-9`` relative tolerance.
    """
    platform = platform_for_generation(generation)
    base_peak = peak_qps(app, platform, BASELINE_CORES)
    slo_load = SLO_LOAD_FRACTION * base_peak
    slo = Slo(
        app_name=app.name,
        generation=generation,
        latency_ms=tail_ms(
            slo_load, BASELINE_CORES, app.service_ms_on(platform)
        ),
        load_qps=slo_load,
        baseline_peak_qps=base_peak,
    )
    bound = slo.latency_ms * (1.0 + 1e-9)
    for cores in CANDIDATE_CORES:
        if tail_ms(slo_load, cores, app.service_ms_on("bergamo")) <= bound:
            return ScalingResult(
                app.name, generation, cores / BASELINE_CORES, cores, slo
            )
    return ScalingResult(app.name, generation, math.inf, None, slo)
