"""Discrete-event simulation of a multi-core server as an FCFS queue.

The paper measures 95th-percentile tail latency versus offered load (QPS)
for latency-critical applications on real servers (Figs. 7 and 8).  We
reproduce those curves with an open M/G/c queue: Poisson arrivals at the
offered QPS, ``c`` cores each serving one request at a time, FCFS dispatch.

For an FCFS multi-server queue the full event calendar collapses to a
single min-heap of per-core free times: each arriving request is assigned
to the earliest-free core, starts at ``max(arrival, core_free)``, and its
response time is ``start + service - arrival``.  This is exact for FCFS.
Arrivals and services are always drawn as whole per-stream blocks from
named :class:`~repro.core.rng.RngFactory` streams, so every backend sees
the bit-identical request stream.

Two dispatch backends produce **bit-identical** :class:`SimResult` /
:class:`SimGrid` statistics:

- ``vectorized`` (default): :func:`simulate_fcfs_batch` runs a whole
  (app × load × platform × cores) grid in lockstep — one Python loop
  over the request index with numpy operating across the batch axis,
  so whole Table III / Fig. 7 grids evaluate in one call.  Only the
  popped *value* of the per-core free-time multiset matters for FCFS,
  so replacing the heap's pop-min/push with ``argmin``/assignment over
  a padded ``(batch, cores)`` array reproduces the scalar recurrence
  exactly.
- ``reference``: the per-simulation scalar dispatch loop (plain-float
  heap, single-core fast path) — the oracle behind the equivalence
  tests and CI golden digests.  :func:`simulate_fcfs` always uses it
  for single runs (for one simulation the scalar loop is also the
  fastest implementation: ~3 million requests/second multi-core, ~4.5
  million single-core on one 2026 container core).

Select the grid backend with the ``REPRO_QUEUEING`` env var, the CLI's
``--queueing`` flag, or the ``method=`` argument of
:func:`simulate_fcfs_batch` and the latency-grid evaluators built on it.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import telemetry
from ..core.errors import ConfigError, SimulationError
from ..core.rng import RngFactory

#: Grid-dispatch backends and the env var selecting the process default.
QUEUEING_BACKENDS = ("vectorized", "reference")
BACKEND_ENV = "REPRO_QUEUEING"

#: Process-default backend installed by the CLI's ``--queueing`` flag;
#: ``None`` defers to the env var.
_default_backend: Optional[str] = None


def set_default_backend(name: Optional[str]) -> None:
    """Install a process-default queueing backend (the CLI's ``--queueing``).

    ``None`` clears the default, deferring to ``REPRO_QUEUEING``.
    """
    global _default_backend
    if name is not None and name not in QUEUEING_BACKENDS:
        raise ConfigError(
            f"unknown queueing backend {name!r}; "
            f"choose from {QUEUEING_BACKENDS}"
        )
    _default_backend = name


def resolve_backend(method: Optional[str] = None) -> str:
    """The grid backend: explicit arg > CLI default > env > vectorized."""
    if method is None:
        method = _default_backend
    if method is None:
        method = os.environ.get(BACKEND_ENV) or "vectorized"
    if method not in QUEUEING_BACKENDS:
        raise ConfigError(
            f"unknown queueing backend {method!r}; "
            f"choose from {QUEUEING_BACKENDS}"
        )
    return method


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
    rng: np.random.Generator,
    n: int,
    mean_ms: float,
    cv: float = 1.0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw ``n`` service times with the given mean and coefficient of
    variation.

    ``cv == 1`` draws exponential times (the M/M/c case); other values use
    a lognormal with matching first two moments, a standard stand-in for
    measured service-time distributions.

    ``out`` lets the batch path draw straight into a stream-matrix row.
    ``scale * standard_exponential()`` produces bit-for-bit the same
    values as ``exponential(scale)`` (the generator applies the same
    scaling), so the two exponential branches are interchangeable; the
    lognormal path has no such out-form and falls back to a copy.
    """
    if mean_ms <= 0:
        raise SimulationError(f"mean service time must be > 0, got {mean_ms}")
    if cv <= 0:
        raise SimulationError(f"service-time CV must be > 0, got {cv}")
    if abs(cv - 1.0) < 1e-12:
        if out is None:
            return rng.exponential(mean_ms, size=n)
        rng.standard_exponential(out=out)
        out *= mean_ms
        return out
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean_ms) - sigma2 / 2.0
    values = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
    if out is None:
        return values
    out[:] = values
    return out


def _request_stream(
    seed: int,
    offered_qps: float,
    mean_service_ms: float,
    cv: float,
    total: int,
    arrivals_out: Optional[np.ndarray] = None,
    services_out: Optional[np.ndarray] = None,
    inter_scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Block-draw one simulation's (arrival, service) arrays.

    Both backends share this helper, so the request stream is
    bit-identical by construction.  The ``*_out``/``inter_scratch``
    buffers let the batch path draw straight into its stream-matrix
    rows instead of allocating (and page-faulting) fresh arrays per
    grid point; every out-form reproduces the allocating form bit for
    bit (same generator calls, same arithmetic).
    """
    rngs = RngFactory(seed)
    arrival_rng = rngs.stream("arrivals")
    if inter_scratch is None:
        inter_ms = arrival_rng.exponential(1000.0 / offered_qps, size=total)
    else:
        arrival_rng.standard_exponential(out=inter_scratch)
        inter_scratch *= 1000.0 / offered_qps
        inter_ms = inter_scratch
    arrivals = np.cumsum(inter_ms, out=arrivals_out)
    services = sample_service_times(
        rngs.stream("services"), total, mean_service_ms, cv,
        out=services_out,
    )
    return arrivals, services


def _dispatch_scalar(
    arrivals: np.ndarray, services: np.ndarray, cores: int
) -> np.ndarray:
    """The reference FCFS dispatch recurrence for one simulation.

    Plain-float lists avoid per-element numpy scalar boxing, and the
    arithmetic matches the lockstep batch recurrence bit for bit.
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
    """(p50, p95, p99, mean, extra quantiles) of one measured window.

    The scalar path's statistics arithmetic — one ``np.percentile`` call
    for the standard percentiles, one for the extras, a contiguous
    ``mean``.  The batch path applies the same reductions along
    contiguous rows of the transposed response matrix, which numpy
    evaluates with identical per-row arithmetic (bit-identical results;
    the equivalence suite enforces this).
    """
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

    This is the scalar oracle: single simulations always run the tight
    reference dispatch loop (for one run it is also the fastest path).
    Batched grids go through :func:`simulate_fcfs_batch`, which is
    bit-identical to calling this per point.

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
    tel = telemetry.active()
    if tel is not None:
        t_start = time.perf_counter()
    total = requests + warmup
    arrivals, services = _request_stream(
        seed, offered_qps, mean_service_ms, cv, total
    )
    responses = _dispatch_scalar(arrivals, services, cores)
    measured = responses[warmup:]
    utilization = offered_qps * (mean_service_ms / 1000.0) / cores
    p50, p95, p99, mean, extras = _measured_stats(measured, levels)
    if tel is not None:
        tel.count_many(
            {"queueing.runs": 1, "queueing.events_simulated": total}
        )
        tel.record_timer(
            "queueing.simulate_fcfs", time.perf_counter() - t_start
        )
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


@dataclass(frozen=True, eq=False)
class SimGrid:
    """SoA latency statistics for a batch of FCFS simulations.

    One entry per grid point; all arrays share the flattened broadcast
    shape of the parameters handed to :func:`simulate_fcfs_batch`.

    Attributes:
        offered_qps, cores, mean_service_ms, cv, seeds: The parameter
            arrays the grid was evaluated over (flattened).
        p50_ms, p95_ms, p99_ms, mean_ms, utilization: Per-point response
            statistics, bit-identical to per-point :func:`simulate_fcfs`.
        requests, warmup: The (uniform) per-point request counts.
        quantile_levels: Extra quantiles requested, or ``None``.
        quantiles_ms: ``(points, len(quantile_levels))`` array of the
            extra quantiles, or ``None``.
    """

    offered_qps: np.ndarray
    cores: np.ndarray
    mean_service_ms: np.ndarray
    cv: np.ndarray
    seeds: np.ndarray
    p50_ms: np.ndarray
    p95_ms: np.ndarray
    p99_ms: np.ndarray
    mean_ms: np.ndarray
    utilization: np.ndarray
    requests: int
    warmup: int
    quantile_levels: Optional[Tuple[float, ...]] = None
    quantiles_ms: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.offered_qps.size)

    def result(self, i: int) -> SimResult:
        """The ``i``-th grid point as a scalar :class:`SimResult`."""
        extras = None
        if self.quantiles_ms is not None:
            extras = tuple(float(v) for v in self.quantiles_ms[i])
        return SimResult(
            offered_qps=float(self.offered_qps[i]),
            cores=int(self.cores[i]),
            mean_service_ms=float(self.mean_service_ms[i]),
            p50_ms=float(self.p50_ms[i]),
            p95_ms=float(self.p95_ms[i]),
            p99_ms=float(self.p99_ms[i]),
            mean_ms=float(self.mean_ms[i]),
            utilization=float(self.utilization[i]),
            requests=self.requests,
            quantiles_ms=extras,
        )

    def results(self) -> List[SimResult]:
        """All grid points as scalar :class:`SimResult` rows."""
        return [self.result(i) for i in range(len(self))]

    def digest(self) -> str:
        """Content hash of parameters and statistics (the CI golden value)."""
        h = hashlib.sha256()
        h.update(f"repro-simgrid/1:{self.requests}:{self.warmup}".encode())
        for arr in (
            self.offered_qps, self.cores, self.mean_service_ms, self.cv,
            self.seeds, self.p50_ms, self.p95_ms, self.p99_ms,
            self.mean_ms, self.utilization,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.quantile_levels is not None:
            h.update(repr(self.quantile_levels).encode())
            h.update(np.ascontiguousarray(self.quantiles_ms).tobytes())
        return h.hexdigest()


def _batch_params(
    offered_qps, cores, mean_service_ms, cv, seeds
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Broadcast, flatten, and validate the SoA parameter arrays."""
    qps = np.asarray(offered_qps, dtype=np.float64)
    cores_a = np.asarray(cores, dtype=np.int64)
    svc = np.asarray(mean_service_ms, dtype=np.float64)
    cv_a = np.asarray(cv, dtype=np.float64)
    seed_a = np.asarray(seeds, dtype=np.int64)
    try:
        qps, cores_a, svc, cv_a, seed_a = (
            np.ravel(a)
            for a in np.broadcast_arrays(qps, cores_a, svc, cv_a, seed_a)
        )
    except ValueError as exc:
        raise SimulationError(
            f"batch parameter arrays do not broadcast: {exc}"
        ) from None
    if qps.size == 0:
        raise SimulationError("batch must contain at least one grid point")
    if (qps <= 0).any():
        raise SimulationError("offered QPS must be > 0 at every grid point")
    if (cores_a < 1).any():
        raise SimulationError("need at least 1 core at every grid point")
    if (svc <= 0).any():
        raise SimulationError("mean service time must be > 0 everywhere")
    if (cv_a <= 0).any():
        raise SimulationError("service-time CV must be > 0 everywhere")
    return qps, cores_a, svc, cv_a, seed_a


#: Requests per fused dispatch block — sized so the three scratch
#: buffers stay a few MB even on wide grids.
_DISPATCH_BLOCK = 512

#: Grid-point tile for the block transposes inside the dispatch loop.
_DISPATCH_TILE = 128

#: Widest core count the bubble-pool dispatch handles: its per-request
#: bubble pass costs ``cores.max() - 1`` row operations over *every*
#: point in the batch, so one wide SKU would tax the whole grid
#: linearly.  Points above the limit fall back to the scalar oracle
#: (bit-identical by contract) and tick
#: ``queueing.wide_core_fallback``.
WIDE_CORE_LIMIT = 16


def _dispatch_batch(
    arrivals_t: np.ndarray,
    services_t: np.ndarray,
    cores: np.ndarray,
    warmup: int,
) -> np.ndarray:
    """Lockstep FCFS dispatch fused with its layout changes.

    ``arrivals_t``/``services_t`` are ``(points, total)`` — one
    contiguous row per grid point, the layout the RNG streams land in;
    ``cores`` is ``(points,)``.  The request loop wants the transposed
    ``(total, points)`` layout and the percentile reductions afterwards
    want rows again, but reordering the full matrices costs two DRAM
    passes each (and a naive strided transpose misses the TLB on every
    element).  The loop therefore walks request blocks, tile-transposing
    each block into small reused scratch buffers on the way in and
    writing measured responses back transposed on the way out, so the
    full matrices never round-trip main memory in the wide layout.

    Each point's per-core free times live in an ascending-sorted pool
    of row buffers (inactive slots padded with ``inf``), so the
    earliest-free core is always ``rows[0]`` and re-inserting a
    completion is a single bubble pass of in-place min/max swaps — far
    cheaper than an argmin + scatter per request, and the buffers
    rotate so no pass allocates.  Only the popped *value* matters for
    FCFS, so this reproduces the reference heap bit for bit.

    Returns the ``(points, requests)`` post-warmup response matrix.
    """
    points, total = arrivals_t.shape
    measured = np.empty((points, total - warmup))
    cmax = int(cores.max())
    rows = [
        np.where(cores > k, 0.0, np.inf).astype(float)
        for k in range(cmax)
    ]
    spare = np.empty(points)
    block, tile = _DISPATCH_BLOCK, _DISPATCH_TILE
    arr_blk = np.empty((block, points))
    svc_blk = np.empty((block, points))
    resp_blk = np.empty((block, points))
    minimum, maximum, subtract = np.minimum, np.maximum, np.subtract
    for i0 in range(0, total, block):
        nb = min(block, total - i0)
        for j0 in range(0, points, tile):
            cols = slice(j0, j0 + tile)
            arr_blk[:nb, cols] = arrivals_t[cols, i0:i0 + nb].T
            svc_blk[:nb, cols] = services_t[cols, i0:i0 + nb].T
        for i in range(nb):
            arrival = arr_blk[i]
            done = spare
            maximum(rows[0], arrival, out=done)
            done += svc_blk[i]
            subtract(done, arrival, out=resp_blk[i])
            # The popped minimum's buffer becomes the new spare; the
            # completion bubbles up until the pool is sorted again.
            spare = rows[0]
            rows[0] = done
            for k in range(cmax - 1):
                lo, hi = rows[k], rows[k + 1]
                minimum(lo, hi, out=spare)
                maximum(lo, hi, out=hi)
                rows[k], spare = spare, lo
        first = max(i0, warmup)
        if first < i0 + nb:
            off = first - i0
            for j0 in range(0, points, tile):
                cols = slice(j0, j0 + tile)
                measured[cols, first - warmup:i0 + nb - warmup] = (
                    resp_blk[off:nb, cols].T
                )
    return measured


def _scalar_rows(qps, cores_a, svc, cv_a, seed_a, requests, warmup, levels):
    """Per-point oracle evaluation of a (sub)grid; returns result arrays."""
    rows = [
        simulate_fcfs(
            float(qps[b]),
            int(cores_a[b]),
            float(svc[b]),
            cv=float(cv_a[b]),
            requests=requests,
            warmup=warmup,
            seed=int(seed_a[b]),
            quantiles=levels,
        )
        for b in range(qps.size)
    ]
    return (
        np.array([r.p50_ms for r in rows]),
        np.array([r.p95_ms for r in rows]),
        np.array([r.p99_ms for r in rows]),
        np.array([r.mean_ms for r in rows]),
        np.array([r.utilization for r in rows]),
        np.array([r.quantiles_ms for r in rows])
        if levels is not None
        else None,
    )


def _vectorized_rows(
    qps, cores_a, svc, cv_a, seed_a, requests, warmup, levels
):
    """Batched evaluation of a (sub)grid; returns result arrays.

    Streams land as contiguous rows of the transposed matrices (a
    strided per-column write would miss the cache on every element);
    the fused dispatch transposes request blocks on the fly and hands
    back each point's measured window as a contiguous row.
    """
    points = qps.size
    total = requests + warmup
    arrivals_t = np.empty((points, total))
    services_t = np.empty((points, total))
    inter_scratch = np.empty(total)
    for b in range(points):
        _request_stream(
            int(seed_a[b]), float(qps[b]), float(svc[b]),
            float(cv_a[b]), total,
            arrivals_out=arrivals_t[b],
            services_out=services_t[b],
            inter_scratch=inter_scratch,
        )
    measured = _dispatch_batch(arrivals_t, services_t, cores_a, warmup)
    del arrivals_t, services_t
    # Axis reductions along the contiguous rows use the same
    # partition/pairwise-sum arithmetic as the scalar path's 1-D
    # calls (bit-identical).  The mean must come first — it is
    # order-sensitive (pairwise summation) and ``overwrite_input``
    # lets the percentiles partition the buffer in place
    # (order-insensitive: selection sees the same multiset).
    mean = measured.mean(axis=1)
    p50, p95, p99 = np.percentile(
        measured, [50, 95, 99], axis=1, overwrite_input=True
    )
    extras = (
        np.percentile(
            measured,
            [100.0 * q for q in levels],
            axis=1,
            overwrite_input=True,
        ).T.copy()
        if levels
        else None
    )
    # Same per-element expression and op order as the scalar path's
    # utilization, so the values are bit-identical.
    util = qps * (svc / 1000.0) / cores_a
    return p50, p95, p99, mean, util, extras


def simulate_fcfs_batch(
    offered_qps,
    cores,
    mean_service_ms,
    cv=1.0,
    requests: int = 60_000,
    warmup: int = 5_000,
    seeds=0,
    quantiles: Optional[Sequence[float]] = None,
    method: Optional[str] = None,
) -> SimGrid:
    """Simulate a whole grid of FCFS M/G/c queues in one call.

    Parameters broadcast against each other (numpy rules) and are
    flattened, so a full (app × load × platform × cores) grid evaluates
    in one call.  Every grid point draws its own named RNG streams from
    its own seed, so each point is bit-identical to
    ``simulate_fcfs(...)`` with the same scalar parameters — the
    ``reference`` backend *is* that per-point loop, kept as the oracle.

    Args:
        offered_qps, cores, mean_service_ms, cv, seeds: Scalars or
            arrays (broadcast together) describing each grid point.
        requests, warmup: Uniform per-point request counts.
        quantiles: Extra response-time quantiles reported per point.
        method: ``"vectorized"`` | ``"reference"``; default resolved by
            :func:`resolve_backend` (``REPRO_QUEUEING``).
    """
    backend = resolve_backend(method)
    qps, cores_a, svc, cv_a, seed_a = _batch_params(
        offered_qps, cores, mean_service_ms, cv, seeds
    )
    levels = _validated_quantiles(quantiles)
    points = qps.size
    total = requests + warmup
    tel = telemetry.active()
    if tel is not None:
        t_start = time.perf_counter()

    wide_points = 0
    if backend == "reference":
        p50, p95, p99, mean, util, extras = _scalar_rows(
            qps, cores_a, svc, cv_a, seed_a, requests, warmup, levels
        )
    else:
        wide = cores_a > WIDE_CORE_LIMIT
        wide_points = int(np.count_nonzero(wide))
        if wide_points:
            # Wide SKUs would make every point's dispatch pay the
            # widest pool's bubble pass; route them to the scalar
            # oracle (bit-identical by contract) and batch the rest.
            narrow_idx = np.flatnonzero(~wide)
            wide_idx = np.flatnonzero(wide)
            parts = [
                (
                    wide_idx,
                    _scalar_rows(
                        qps[wide_idx],
                        cores_a[wide_idx],
                        svc[wide_idx],
                        cv_a[wide_idx],
                        seed_a[wide_idx],
                        requests,
                        warmup,
                        levels,
                    ),
                )
            ]
            if narrow_idx.size:
                parts.append(
                    (
                        narrow_idx,
                        _vectorized_rows(
                            qps[narrow_idx],
                            cores_a[narrow_idx],
                            svc[narrow_idx],
                            cv_a[narrow_idx],
                            seed_a[narrow_idx],
                            requests,
                            warmup,
                            levels,
                        ),
                    )
                )
            p50, p95, p99, mean, util = (
                np.empty(points) for _ in range(5)
            )
            extras = (
                np.empty((points, len(levels))) if levels else None
            )
            for idx, part in parts:
                for full, sub in zip(
                    (p50, p95, p99, mean, util, extras), part
                ):
                    if full is not None:
                        full[idx] = sub
        else:
            p50, p95, p99, mean, util, extras = _vectorized_rows(
                qps, cores_a, svc, cv_a, seed_a, requests, warmup, levels
            )

    if tel is not None:
        counts = {"queueing.batches": 1, "queueing.grid_points": points}
        if backend != "reference":
            # Scalar-routed points (the reference backend, and wide
            # fallbacks) already counted per-run in simulate_fcfs.
            counts["queueing.runs"] = points - wide_points
            counts["queueing.events_simulated"] = (
                (points - wide_points) * total
            )
            if wide_points:
                counts["queueing.wide_core_fallback"] = wide_points
        tel.count_many(counts)
        tel.record_timer(
            "queueing.simulate_fcfs_batch", time.perf_counter() - t_start
        )
    return SimGrid(
        offered_qps=qps,
        cores=cores_a,
        mean_service_ms=svc,
        cv=cv_a,
        seeds=seed_a,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_ms=mean,
        utilization=util,
        requests=requests,
        warmup=warmup,
        quantile_levels=levels,
        quantiles_ms=extras,
    )


def saturation_qps(cores: int, mean_service_ms: float) -> float:
    """The queue's capacity: the arrival rate at 100% utilization.

    >>> saturation_qps(8, 1.0)
    8000.0
    """
    if cores < 1 or mean_service_ms <= 0:
        raise SimulationError("cores must be >= 1 and service time > 0")
    return cores * 1000.0 / mean_service_ms


def load_points(
    cores: int,
    mean_service_ms: float,
    fractions: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """QPS values at the given fractions of saturation (for load sweeps)."""
    if fractions is None:
        fractions = np.arange(0.1, 1.0, 0.1)
    peak = saturation_qps(cores, mean_service_ms)
    return np.asarray([f * peak for f in fractions])
