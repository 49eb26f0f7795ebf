"""Cluster simulation: replay a VM trace against a cluster of servers.

This is GSF's VM allocation component.  Given a trace of VM
arrivals/departures, a cluster configuration (how many baseline SKUs and
GreenSKUs), and the adoption component's per-application decisions, the
simulator replays the trace under the production scheduler's rules and
reports:

- whether the cluster hosts the workload without rejecting any VM,
- packing densities of cores and memory on non-empty servers (Fig. 9),
- the mean per-server maximum memory utilization (Fig. 10), used to
  validate that untouched memory can be backed by CXL-attached DRAM.

VMs whose application adopted the GreenSKU are scaled by the application's
scaling factor and prefer GreenSKU capacity but may *fungibly* fall back
to baseline SKUs (the paper's growth-buffer workaround); non-adopters and
full-node VMs run only on baseline SKUs.

Every replay runs on one placement engine and one replay loop:

- the indexed :class:`~repro.allocation.index.PlacementEngine` answers
  each placement query from an incrementally maintained server index
  and each snapshot from exact aggregate sums, settled at the snapshot
  for just the servers changed since the last one;
- :func:`_replay_events` streams a precomputed lexsorted
  arrival/departure event stream drawn directly from
  :class:`~repro.allocation.columnar.ColumnarTrace` arrays, in
  cache-sized chunks, never materializing ``VmRequest`` rows.  It needs
  a trace sorted by arrival time; every trace source sorts.

The reference implementation — a scan of every server per query, a walk
of every server per snapshot, and a row loop with a departure heap —
lives in ``tests/oracles/allocation.py``; ``tests/allocation/`` holds
this module to bit-identical :class:`SimOutcome` values against it (same
server for every VM, same exact snapshot sums).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import telemetry
from ..core.checks import check_count, check_finite
from ..core.errors import CapacityError, ConfigError
from ..hardware.sku import ServerSKU
from ..perf.apps import APP_BY_NAME
from ..perf.pond import cxl_share
from .index import METRICS, SCALE_SHIFT, KindAggregate, PlacementEngine
from .scheduler import Server
from .traces import VmTrace

#: An adoption policy maps (app_name, generation) to a scaling factor, or
#: None when the application must stay on baseline SKUs.  It must be a
#: pure function: a replay asks once per pair and reuses the answer.
AdoptionPolicy = Callable[[str, int], Optional[float]]

#: Default number of merged arrival/departure events the streaming
#: replay gathers per chunk: large enough to amortize the
#: fancy-index + ``tolist`` per chunk, small enough that a chunk's
#: Python-scalar lists stay cache-resident.
DEFAULT_CHUNK_EVENTS = 4096

#: Marks an (app, generation) pair the replay has not asked its adoption
#: policy about yet (``None`` is a resolved "stay on baseline").
_UNRESOLVED = object()


def adopt_nothing(app_name: str, generation: int) -> Optional[float]:
    """Policy for baseline-only clusters: no VM adopts the GreenSKU."""
    return None


def adopt_everything(app_name: str, generation: int) -> Optional[float]:
    """Naive policy (ablation): every VM adopts, unscaled."""
    return 1.0


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster configuration: counted SKUs.

    The paper's clusters are logical units of hundreds of servers mixing
    baseline SKUs and GreenSKUs.
    """

    skus: Tuple[Tuple[ServerSKU, int], ...]

    def __post_init__(self) -> None:
        if not self.skus:
            raise ConfigError("a cluster needs at least one SKU entry")
        for _sku, count in self.skus:
            check_count(count, "server count")

    @classmethod
    def of(cls, *pairs: Tuple[ServerSKU, int]) -> "ClusterSpec":
        return cls(skus=tuple(pairs))

    @property
    def total_servers(self) -> int:
        return sum(count for _s, count in self.skus)

    @property
    def baseline_servers(self) -> int:
        return sum(c for s, c in self.skus if s.generation != 0)

    @property
    def green_servers(self) -> int:
        return sum(c for s, c in self.skus if s.generation == 0)

    def build_servers(self) -> List[Server]:
        """Instantiate mutable server state for a simulation run."""
        servers: List[Server] = []
        for sku, count in self.skus:
            first = len(servers)
            servers.extend(Server.pool(sku, range(first, first + count)))
        return servers


def _new_cum() -> Dict[str, Dict[float, int]]:
    return {metric: {} for metric in METRICS}


@dataclass
class SnapshotStats:
    """Accumulated per-snapshot, per-server statistics.

    Sums are kept *exactly*: each observed ratio contributes its float
    numerator converted losslessly to a 2**-1080 fixed-point integer,
    bucketed by the (per-SKU) capacity denominator.  Integer addition is
    associative, so per-server accumulation (the reference snapshot walk
    of ``tests/oracles/allocation.py``) and pre-aggregated merges (the
    engine's per-kind sums, merged once per snapshot) produce
    bit-identical state regardless of grouping.  Means divide exactly
    (via ``Fraction``) and round to float once at the end.
    """

    samples: int = 0
    _cum: Dict[str, Dict[float, int]] = field(
        default_factory=_new_cum, repr=False
    )

    def _add(self, metric: str, denominator: float, value: int) -> None:
        if not value:
            return
        bucket = self._cum[metric]
        cum = bucket.get(denominator, 0) + value
        if cum:
            bucket[denominator] = cum
        else:
            del bucket[denominator]

    def merge_aggregate(self, aggregate: KindAggregate) -> None:
        """Fold an engine's current per-kind sums in as one snapshot."""
        for metric, sums in aggregate.sums.items():
            for denominator, value in sums.items():
                self._add(metric, denominator, value)
        self.samples += aggregate.count

    def merge(self, other: "SnapshotStats") -> None:
        """Fold another stats accumulator in, exactly.

        Integer addition over the fixed-point buckets is associative, so
        merging per-cluster accumulators (the fleet driver's aggregate)
        equals accumulating every snapshot into one — the reconciliation
        the fleet outcome is checked against.
        """
        for metric, bucket in other._cum.items():
            for denominator, value in bucket.items():
                self._add(metric, denominator, value)
        self.samples += other.samples

    def _sum(self, metric: str) -> float:
        total = Fraction(0)
        for denominator, cum in self._cum[metric].items():
            total += Fraction(cum) / Fraction(denominator)
        return float(total / (1 << SCALE_SHIFT))

    def _mean(self, metric: str) -> float:
        if not self.samples:
            return 0.0
        total = Fraction(0)
        for denominator, cum in self._cum[metric].items():
            total += Fraction(cum) / Fraction(denominator)
        return float(total / (self.samples << SCALE_SHIFT))

    @property
    def core_density_sum(self) -> float:
        return self._sum("core")

    @property
    def memory_density_sum(self) -> float:
        return self._sum("mem")

    @property
    def touched_memory_sum(self) -> float:
        return self._sum("touched")

    @property
    def cxl_utilization_sum(self) -> float:
        return self._sum("cxl")

    @property
    def mean_core_density(self) -> float:
        return self._mean("core")

    @property
    def mean_memory_density(self) -> float:
        return self._mean("mem")

    @property
    def mean_touched_memory(self) -> float:
        return self._mean("touched")

    @property
    def mean_cxl_utilization(self) -> float:
        """Mean CXL-pool usage (Pond tiering) on the observed servers."""
        return self._mean("cxl")

    def canonical(self) -> Tuple:
        """Order-independent digest-friendly view of the exact state."""
        return (
            self.samples,
            tuple(
                (
                    metric,
                    tuple(
                        sorted(
                            (repr(denominator), value)
                            for denominator, value in bucket.items()
                        )
                    ),
                )
                for metric, bucket in sorted(self._cum.items())
            ),
        )


@dataclass
class SimOutcome:
    """Result of replaying one trace against one cluster.

    Attributes:
        cluster: The configuration simulated.
        placed_vms: Successfully hosted VMs.
        rejected_vms: VMs no server could host (empty = feasible).
        green_placements: VMs that landed on GreenSKU servers.
        fallback_placements: Adopting VMs that fungibly fell back to a
            baseline server for lack of GreenSKU capacity.
        baseline_stats / green_stats: Snapshot statistics on non-empty
            servers, split by server kind.
    """

    cluster: ClusterSpec
    placed_vms: int = 0
    rejected_vms: List[int] = field(default_factory=list)
    green_placements: int = 0
    fallback_placements: int = 0
    baseline_stats: SnapshotStats = field(default_factory=SnapshotStats)
    green_stats: SnapshotStats = field(default_factory=SnapshotStats)

    @property
    def feasible(self) -> bool:
        """No VM was rejected."""
        return not self.rejected_vms


def outcome_digest(outcome: SimOutcome) -> str:
    """A stable sha256 digest of everything behavioral in an outcome.

    Covers placements, rejections, routing counters, and the exact
    snapshot sums — the fields the equivalence guarantee against the
    reference oracle (and the CI golden checks) are stated over.
    """
    parts = (
        outcome.placed_vms,
        tuple(outcome.rejected_vms),
        outcome.green_placements,
        outcome.fallback_placements,
        outcome.baseline_stats.canonical(),
        outcome.green_stats.canonical(),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


class _VmView:
    """Flyweight VM record for the streaming replay.

    Carries exactly the attributes the placement engine and
    ``Server.place`` read from a ``VmRequest``; one instance is reused
    per event (the engine never retains it), so arrival processing
    touches plain Python scalars without ever building dataclass rows.
    """

    __slots__ = ("vm_id", "generation", "max_memory_fraction", "full_node")


def _merged_events(
    columns, end: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute the lexsorted arrival/departure event stream.

    Returns ``(times, kinds, rows)`` where kind 1 is an arrival of trace
    row ``rows[i]`` and kind 0 the departure of that row's VM.  The
    order reproduces a departure heap's semantics exactly (the row loop
    of ``tests/oracles/allocation.py``): a departure is processed
    immediately before the first arrival at-or-after it that follows the
    VM's own placement (heap-ordered by ``(time, vm_id)`` among
    departures released together), and departures beyond the last
    arrival drain only up to the trace window ``end``.

    Raises :class:`ConfigError` before any event is replayed when the
    columns could not have come from valid rows
    (:meth:`~repro.allocation.columnar.ColumnarTrace.validate`) or the
    arrivals are not sorted.
    """
    columns.validate()
    arrivals = columns.arrival_hours
    n = columns.n
    if n and np.any(np.diff(arrivals) < 0):
        raise ConfigError("replay requires a trace sorted by arrival time")
    departures = arrivals + columns.lifetime_hours
    row_index = np.arange(n, dtype=np.int64)
    # The arrival a departure heap would pop this departure in front of:
    # first arrival at-or-after the departure time, but never before the
    # VM's own placement (ties between a VM's arrival and its departure
    # resolve to "placed first").
    release = np.maximum(
        np.searchsorted(arrivals, departures, side="left"), row_index + 1
    )
    keep = np.isfinite(departures) & ((release < n) | (departures <= end))
    dep_rows = np.flatnonzero(keep)
    times = np.concatenate([arrivals, departures[dep_rows]])
    order_seq = np.concatenate([row_index, release[dep_rows]])
    kinds = np.concatenate(
        [
            np.ones(n, dtype=np.int8),
            np.zeros(dep_rows.size, dtype=np.int8),
        ]
    )
    rows = np.concatenate([row_index, dep_rows])
    ties = np.concatenate([row_index, columns.vm_id[dep_rows]])
    order = np.lexsort((ties, kinds, order_seq, times))
    return times[order], kinds[order], rows[order]


def _trace_events(
    trace: VmTrace, end: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace's :func:`_merged_events` stream, merged once per trace.

    A sizing search replays one trace several times against different
    clusters, and the stream depends only on the columns (immutable) and
    the window end, so the first replay keeps it on the trace, keyed by
    ``end``, and later replays reuse it read-only.
    """
    cached = trace._events
    if cached is None or cached[0] != end:
        events = _merged_events(trace.columns, end)
        for array in events:
            array.flags.writeable = False
        cached = trace._events = (end, events)
    return cached[1]


def _replay_events(
    trace: VmTrace,
    cluster: ClusterSpec,
    engine: PlacementEngine,
    adoption: AdoptionPolicy,
    snapshot_hours: float,
    raise_on_reject: bool,
    chunk_events: int,
) -> SimOutcome:
    """Streaming replay over chunked columnar event arrays.

    Driven by the trace's event stream (:func:`_trace_events`): per
    chunk, the needed column slices are gathered with one fancy index
    and converted to plain Python scalars via ``tolist``, so the hot
    loop never boxes numpy scalars and never materializes ``VmRequest``
    rows.  Telemetry snapshots the engine's cumulative counters up
    front and folds the deltas (plus per-replay event tallies kept as
    plain local ints, which the ``finally`` also writes to the outcome)
    once at the end, even when a probe replay aborts on its first
    rejection (``raise_on_reject``).

    The loop does only the per-placement work its caller can observe:

    - The adoption policy is a pure function of ``(app, generation)``;
      it is consulted once per pair the replay reaches, on first use,
      and never for a full-node VM.  Pairs are keyed by one vectorized
      ``app_index * 4 + generation`` column (generations are 1-3), and
      a cluster with GreenSKUs checks each factor once, when its pair
      resolves, so a bad factor raises at the first VM that asks.
    - Snapshots are tested inline against the next grid time and taken
      only when an event reaches it.
    - Pond tiering runs only when ``engine.track_stats`` is on.  Its
      ``cxl_gb`` is bookkeeping inside a placement's ``memory_gb``: no
      feasibility check or index key reads it, only the ``cxl``
      snapshot aggregate does, and an engine that keeps no aggregates
      contributes nothing to any snapshot.  Skipping it there changes
      no placement and no outcome field.  Where it runs, the VM's CXL
      share comes from :func:`~repro.perf.pond.cxl_share`, the split
      :func:`~repro.perf.pond.plan_tiering` makes, without building a
      plan.
    """
    if chunk_events <= 0:
        raise ConfigError("chunk_events must be > 0")
    columns = trace.columns
    outcome = SimOutcome(cluster=cluster)
    has_green = engine.has_green()
    tiering = engine.track_stats
    factors: Dict[int, Optional[float]] = {}

    tel = telemetry.active()
    if tel is not None:
        counters_before = engine.telemetry_counters()
        t_start = time.perf_counter()
    n_placed = 0
    n_green = 0
    n_fallback = 0
    n_departures = 0
    n_snapshots = 0
    n_chunks = 0

    start = columns.start_hours()
    end = start + trace.duration_hours
    ev_times, ev_kinds, ev_rows = _trace_events(trace, end)
    next_snapshot = start + snapshot_hours

    def take_snapshots_until(now: float) -> None:
        nonlocal next_snapshot, n_snapshots
        while next_snapshot <= now:
            engine.snapshot(outcome)
            n_snapshots += 1
            next_snapshot += snapshot_hours

    app_names = columns.app_names
    vm_id_col = columns.vm_id
    cores_col = columns.cores
    mem_col = columns.memory_gb
    gen_col = columns.generation
    pair_col = columns.app_index * 4 + gen_col
    mmf_col = columns.max_memory_fraction
    full_col = columns.full_node
    active: Dict[int, Server] = {}  # vm_id -> server
    view = _VmView()
    try:
        for start in range(0, ev_times.size, chunk_events):
            n_chunks += 1
            rows = ev_rows[start:start + chunk_events]
            times = ev_times[start:start + chunk_events].tolist()
            kinds = ev_kinds[start:start + chunk_events].tolist()
            vm_ids = vm_id_col[rows].tolist()
            cores_l = cores_col[rows].tolist()
            mems = mem_col[rows].tolist()
            gens = gen_col[rows].tolist()
            pairs = pair_col[rows].tolist()
            mmfs = mmf_col[rows].tolist()
            fulls = full_col[rows].tolist()
            for j in range(len(times)):
                vm_id = vm_ids[j]
                if not kinds[j]:
                    # Departure; VMs that were rejected at arrival have
                    # no active placement to release.
                    server = active.pop(vm_id, None)
                    if server is None:
                        continue
                    now = times[j]
                    if now >= next_snapshot:
                        take_snapshots_until(now)
                    engine.remove(server, vm_id)
                    n_departures += 1
                    continue
                now = times[j]
                if now >= next_snapshot:
                    take_snapshots_until(now)
                full_node = fulls[j]
                cores = cores_l[j]
                memory_gb = mems[j]
                if full_node:
                    factor = None
                else:
                    pair = pairs[j]
                    factor = factors.get(pair, _UNRESOLVED)
                    if factor is _UNRESOLVED:
                        factor = factors[pair] = adoption(
                            app_names[pair >> 2], pair & 3
                        )
                        # VmRequest.scaled's check, once per pair.
                        if (
                            factor is not None
                            and has_green
                            and (factor < 1.0 or not math.isfinite(factor))
                        ):
                            raise ConfigError(
                                f"scaling factor must be a finite value "
                                f">= 1, got {factor}"
                            )
                view.vm_id = vm_id
                view.generation = gens[j]
                view.max_memory_fraction = mmfs[j]
                view.full_node = full_node
                placed_server = None
                if factor is not None and has_green:
                    # Inline of VmRequest.scaled: the same ceil/multiply
                    # arithmetic on the same floats.
                    if factor == 1.0:
                        scaled_cores, scaled_mem = cores, memory_gb
                    else:
                        scaled_cores = int(math.ceil(cores * factor))
                        scaled_mem = memory_gb * factor
                    placed_server = engine.choose_green(
                        view, scaled_cores, scaled_mem
                    )
                    if placed_server is not None:
                        cores, memory_gb = scaled_cores, scaled_mem
                if placed_server is None:
                    placed_server = engine.choose_baseline(
                        view, cores, memory_gb
                    )
                    if placed_server is None:
                        if raise_on_reject:
                            raise CapacityError(
                                f"VM {vm_id} rejected by cluster "
                                f"({cluster.total_servers} servers)"
                            )
                        outcome.rejected_vms.append(vm_id)
                        continue
                    if factor is not None:
                        n_fallback += 1
                cxl_gb = 0.0
                if (
                    tiering
                    and placed_server.is_green
                    and placed_server.total_cxl_gb > 0
                    and not full_node
                ):
                    app = APP_BY_NAME.get(app_names[pairs[j] >> 2])
                    if app is not None:
                        cxl_gb = min(
                            memory_gb
                            * cxl_share(
                                app,
                                view.max_memory_fraction,
                                placed_server.cxl_fraction,
                            ),
                            placed_server.free_cxl_gb,
                        )
                engine.place(placed_server, view, cores, memory_gb, cxl_gb)
                n_placed += 1
                if placed_server.is_green:
                    n_green += 1
                active[vm_id] = placed_server
        take_snapshots_until(end)
    finally:
        outcome.placed_vms = n_placed
        outcome.green_placements = n_green
        outcome.fallback_placements = n_fallback
        if tel is not None:
            deltas = {
                key: value - counters_before.get(key, 0)
                for key, value in engine.telemetry_counters().items()
            }
            deltas["alloc.replays"] = 1
            deltas["alloc.event_chunks"] = n_chunks
            deltas["alloc.placements"] = n_placed
            deltas["alloc.rejections"] = len(outcome.rejected_vms)
            deltas["alloc.green_placements"] = n_green
            deltas["alloc.fallback_placements"] = n_fallback
            deltas["alloc.departures"] = n_departures
            deltas["alloc.snapshots"] = n_snapshots
            tel.count_many(deltas)
            tel.record_timer("alloc.replay", time.perf_counter() - t_start)
    return outcome


def replay_on_engine(
    trace: VmTrace,
    cluster: ClusterSpec,
    engine: PlacementEngine,
    adoption: AdoptionPolicy = adopt_nothing,
    snapshot_hours: float = 1e9,
    raise_on_reject: bool = False,
) -> SimOutcome:
    """Replay a trace against a caller-prepared :class:`PlacementEngine`.

    This is the probe-reuse entry point for sizing searches: the caller
    owns the engine, adjusts its server set between probes, and calls
    its ``reset`` before each replay.  ``cluster`` only describes the
    configuration for the outcome record; the servers actually used are
    the engine's.  The replay plans Pond tiering only when the engine
    keeps snapshot aggregates (``track_stats``).
    """
    check_finite(snapshot_hours, "snapshot interval", above=0)
    return _replay_events(
        trace,
        cluster,
        engine,
        adoption,
        snapshot_hours,
        raise_on_reject,
        DEFAULT_CHUNK_EVENTS,
    )


def _wants_stats(trace: VmTrace, snapshot_hours: float) -> bool:
    """Whether any snapshot can fire during this replay.

    Snapshots trigger at event times, which are bounded by the trace
    window end and the last arrival; sizing probes pass a sentinel
    interval (1e9 h) beyond both, letting the indexed engine skip
    aggregate maintenance entirely in the hot path.  The grid anchors at
    the window start, so the horizon is measured relative to it (a
    mid-day-starting real trace has the same horizon as its rebased
    twin).
    """
    start = trace.start_hours
    horizon = max(
        trace.duration_hours, trace.last_arrival_hours - start
    )
    return snapshot_hours <= horizon


def simulate(
    trace: VmTrace,
    cluster: ClusterSpec,
    adoption: AdoptionPolicy = adopt_nothing,
    snapshot_hours: float = 6.0,
    raise_on_reject: bool = False,
    policy: str = "best-fit",
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> SimOutcome:
    """Replay ``trace`` against ``cluster`` under ``adoption``.

    Args:
        trace: VM arrivals/departures, sorted by arrival time
            (:class:`ConfigError` otherwise).
        cluster: Cluster configuration to test.
        adoption: Adoption policy; maps (app, generation) to a scaling
            factor or None.
        snapshot_hours: Interval between packing-density snapshots.
        raise_on_reject: Raise :class:`CapacityError` at the first
            rejection instead of recording it (used by sizing searches to
            exit early).
        policy: Placement heuristic, one of
            :data:`~repro.allocation.scheduler.PLACEMENT_POLICIES`:
            ``"best-fit"`` (the production rules) or ``"first-fit"`` /
            ``"worst-fit"`` for ablations (:class:`ConfigError`
            otherwise).
        chunk_events: How many merged arrival/departure events the
            streaming loop gathers per fancy-index batch (memory
            ~O(chunk), independent of trace size).  Outcomes do not
            depend on it.
    """
    check_finite(snapshot_hours, "snapshot interval", above=0)
    engine = PlacementEngine(
        cluster.build_servers(),
        policy=policy,
        track_stats=_wants_stats(trace, snapshot_hours),
    )
    return _replay_events(
        trace,
        cluster,
        engine,
        adoption,
        snapshot_hours,
        raise_on_reject,
        chunk_events,
    )
