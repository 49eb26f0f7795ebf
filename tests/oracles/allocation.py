"""Reference allocation replay, the oracle for ``repro.allocation.cluster``.

Production replays stream a precomputed event array through the indexed
:class:`~repro.allocation.index.PlacementEngine`.  This module keeps the
original implementation: every placement query scans every server of its
pool with :func:`choose`, which states the placement rules one server at
a time, every snapshot walks every server, and the replay is a row loop
over ``trace.vms`` with a heap of pending departures.  Carbon-aware
placement consults one such scan per carbon tier, lowest tier first.  It
is slow (O(servers) per query), so tests run it on small traces.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.allocation.cluster import (
    AdoptionPolicy,
    ClusterSpec,
    SimOutcome,
    SnapshotStats,
    adopt_nothing,
    resolve_placement,
)
from repro.allocation.index import scaled_int
from repro.allocation.scheduler import MEM_EPS, PLACEMENT_POLICIES, Server
from repro.allocation.traces import VmTrace
from repro.core.errors import CapacityError, ConfigError
from repro.perf.apps import APP_BY_NAME
from repro.perf.pond import plan_tiering


def _rank_key(
    policy: str, server: Server, cores: int, memory_gb: float
) -> Tuple:
    if policy == "best-fit":
        if server.is_empty:
            # Prefer non-empty (rule 2).  An empty server ranks by its
            # SKU shape: place/remove cycles can leave float dust in
            # its free memory, and dust must not reorder empty servers.
            return (
                1,
                server.total_cores - cores,
                server.total_memory_gb - memory_gb,
            )
        return (
            0,
            server.free_cores - cores,  # best fit by cores (rule 1)
            server.free_memory_gb - memory_gb,  # tie-break by memory
        )
    if policy == "first-fit":
        return (server.server_id,)
    # worst-fit: most remaining cores first.
    return (-(server.free_cores - cores), server.server_id)


def choose(
    policy: str,
    vm,
    servers: Iterable[Server],
    cores: int,
    memory_gb: float,
) -> Optional[Server]:
    """Pick a server for a request under ``policy``, or None when none fits.

    ``"best-fit"`` is the production rule set: best fit by remaining
    cores, tie-broken by memory, non-empty servers first.
    ``"first-fit"`` takes the lowest server id that fits, ``"worst-fit"``
    the most remaining cores.  Full-node VMs always require an entirely
    empty, non-GreenSKU server (a hard production constraint, kept under
    every policy).  Ties go to the first server in ``servers`` order.
    """
    if cores <= 0 or memory_gb <= 0:
        raise ConfigError("placement request must be positive")
    best: Optional[Server] = None
    best_key: Optional[Tuple] = None
    for server in servers:
        if vm.full_node:
            if server.is_green or not server.is_empty:
                continue
            if (
                cores > server.total_cores
                or server.total_memory_gb < memory_gb - MEM_EPS
            ):
                continue
        elif not server.fits(cores, memory_gb):
            continue
        key = _rank_key(policy, server, cores, memory_gb)
        if best_key is None or key < best_key:
            best, best_key = server, key
    return best


def observe(stats: SnapshotStats, server: Server) -> None:
    """Accumulate one non-empty server's densities for one snapshot."""
    stats._add("core", server.total_cores, scaled_int(server.allocated_cores))
    stats._add(
        "mem", server.total_memory_gb, scaled_int(server.allocated_memory_gb)
    )
    stats._add(
        "touched",
        server.total_memory_gb,
        scaled_int(server._touched_memory_gb),
    )
    if server.total_cxl_gb:
        stats._add(
            "cxl", server.total_cxl_gb, scaled_int(server._cxl_used_gb)
        )
    stats.samples += 1


class _ReferenceBackend:
    """The O(n_servers) scan/walk over one or more carbon tiers.

    Each tier holds its GreenSKU pool, its baseline pool, and the
    baseline pool split by generation.  When a tier's baselines span
    more than one generation, a VM's baseline placements go to its own
    generation's pool (old VM images run on their own hardware
    generation).
    """

    def __init__(self, tiers: List[List[Server]], policy: str):
        if policy not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement policy {policy!r}; "
                f"known: {PLACEMENT_POLICIES}"
            )
        self.policy = policy
        self.servers = [server for tier in tiers for server in tier]
        self.tiers = []
        for servers in tiers:
            base = [s for s in servers if not s.is_green]
            by_gen: Dict[int, List[Server]] = {}
            for server in base:
                by_gen.setdefault(server.sku.generation, []).append(server)
            green = [s for s in servers if s.is_green]
            self.tiers.append((green, base, by_gen))

    def has_green(self) -> bool:
        return any(green for green, _base, _by_gen in self.tiers)

    def choose_green(self, vm, cores: int, memory_gb: float):
        for green, _base, _by_gen in self.tiers:
            server = choose(self.policy, vm, green, cores, memory_gb)
            if server is not None:
                return server
        return None

    def choose_baseline(self, vm, cores: int, memory_gb: float):
        for _green, base, by_gen in self.tiers:
            pool = base
            if len(by_gen) > 1 and vm.generation in by_gen:
                pool = by_gen[vm.generation]
            server = choose(self.policy, vm, pool, cores, memory_gb)
            if server is not None:
                return server
        return None

    def snapshot(self, outcome: SimOutcome) -> None:
        for server in self.servers:
            if server.is_empty:
                continue
            stats = (
                outcome.green_stats
                if server.is_green
                else outcome.baseline_stats
            )
            observe(stats, server)


def _tiers(servers: List[Server], placement) -> List[List[Server]]:
    """One tier for blind placement; carbon-key groups, lowest first."""
    if placement is None:
        return [servers]
    keyed: Dict[float, List[Server]] = {}
    for server in servers:
        key = float(placement.carbon_key(server.sku))
        keyed.setdefault(key, []).append(server)
    return [keyed[key] for key in sorted(keyed)]


def simulate(
    trace: VmTrace,
    cluster: ClusterSpec,
    adoption: AdoptionPolicy = adopt_nothing,
    snapshot_hours: float = 6.0,
    raise_on_reject: bool = False,
    policy: str = "best-fit",
    placement=None,
    accountant=None,
) -> SimOutcome:
    """Reference replay of ``trace`` against ``cluster``.

    Takes the arguments of :func:`repro.allocation.cluster.simulate`
    (less ``chunk_events``) and must return an equal :class:`SimOutcome`.
    """
    if snapshot_hours <= 0:
        raise ConfigError("snapshot interval must be > 0")
    backend = _ReferenceBackend(
        _tiers(cluster.build_servers(), resolve_placement(placement)),
        policy,
    )
    outcome = SimOutcome(cluster=cluster)
    has_green = backend.has_green()

    # Departures as a heap of (time, vm_id, server, cores); the trailing
    # cores element is never compared — (time, vm_id) is unique — it
    # just rides along for the carbon accountant.  Arrivals in order.
    # The snapshot grid anchors at the window start (first arrival).
    departures: List[Tuple[float, int, Server, int]] = []
    rows = trace.vms
    start = rows[0].arrival_hours if rows else 0.0
    next_snapshot = start + snapshot_hours

    def take_snapshots_until(now: float) -> None:
        nonlocal next_snapshot
        while next_snapshot <= now:
            backend.snapshot(outcome)
            next_snapshot += snapshot_hours

    def release(dep_time: float, vm_id: int, server: Server, cores: int):
        take_snapshots_until(dep_time)
        server.remove(vm_id)
        if accountant is not None:
            accountant.on_remove(dep_time, server.sku, cores)

    for vm in rows:
        # Release departures and take snapshots up to this arrival.
        while departures and departures[0][0] <= vm.arrival_hours:
            release(*heapq.heappop(departures))
        take_snapshots_until(vm.arrival_hours)

        factor = None if vm.full_node else adoption(vm.app_name, vm.generation)
        placed: Optional[Server] = None
        cores, memory_gb = vm.cores, vm.memory_gb
        if factor is not None and has_green:
            scaled = vm.scaled(factor)
            placed = backend.choose_green(vm, scaled.cores, scaled.memory_gb)
            if placed is not None:
                cores, memory_gb = scaled.cores, scaled.memory_gb
        if placed is None:
            # Non-adopters, full-node VMs, and fungible fallback.
            placed = backend.choose_baseline(vm, cores, memory_gb)
            if placed is not None and factor is not None:
                outcome.fallback_placements += 1
        if placed is None:
            if raise_on_reject:
                raise CapacityError(
                    f"VM {vm.vm_id} rejected by cluster "
                    f"({cluster.total_servers} servers)"
                )
            outcome.rejected_vms.append(vm.vm_id)
            continue

        # Pond tiering: on CXL-equipped servers, place the VM's
        # predicted-untouched memory (or, for tolerant apps, everything)
        # on the CXL pool, bounded by the pool's remaining capacity.
        cxl_gb = 0.0
        if placed.is_green and placed.total_cxl_gb > 0 and not vm.full_node:
            app = APP_BY_NAME.get(vm.app_name)
            if app is not None:
                plan = plan_tiering(
                    app,
                    memory_gb,
                    vm.max_memory_fraction,
                    server_cxl_fraction=placed.sku.cxl_fraction,
                )
                cxl_gb = min(plan.cxl_gb, placed.free_cxl_gb)
        placed.place(vm, cores, memory_gb, cxl_gb=cxl_gb)
        outcome.placed_vms += 1
        if placed.is_green:
            outcome.green_placements += 1
        if accountant is not None:
            accountant.on_place(vm.arrival_hours, placed.sku, cores)
        if math.isfinite(vm.departure_hours):
            heapq.heappush(
                departures, (vm.departure_hours, vm.vm_id, placed, cores)
            )

    # Drain remaining departures within the trace window for final
    # snapshots.
    end = start + trace.duration_hours
    while departures and departures[0][0] <= end:
        release(*heapq.heappop(departures))
    take_snapshots_until(end)
    if accountant is not None:
        outcome.operational = accountant.finalize(end)
    return outcome
