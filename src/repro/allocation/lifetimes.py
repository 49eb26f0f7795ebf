"""Lifetime-aware VM placement (Barbalho et al., cited by the paper).

Azure's allocator augments Protean with *lifetime predictions*: separating
predicted-long-lived VMs from churny short-lived ones reduces the
fragmentation that stranded long-lived VMs cause (a server holding one
month-old VM cannot be emptied; interleaving it with short-lived VMs
leaves slivers of capacity that only whole-server workloads miss).

This module provides:

- a simple lifetime predictor standing in for the production ML model
  (thresholding on trace-supplied lifetimes with a configurable accuracy,
  so prediction *errors* are part of the study),
- a segregated placement policy: long-lived VMs prefer "anchor" servers,
  short-lived VMs prefer the churn pool,
- an A/B harness measuring what segregation buys in right-size terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..core.rng import RngFactory
from ..hardware.sku import ServerSKU, baseline_gen3
from .cluster import ClusterSpec
from .scheduler import BestFitScheduler, Server
from .traces import VmTrace
from .vm import VmRequest

#: VMs predicted to live at least this long count as long-lived.
DEFAULT_LONG_LIVED_THRESHOLD_HOURS = 24.0 * 7


@dataclass(frozen=True)
class LifetimePredictor:
    """A noisy oracle over the trace's true lifetimes.

    Attributes:
        threshold_hours: Boundary between short- and long-lived.
        accuracy: Probability the prediction matches the truth (the
            production model's precision/recall folded into one knob).
        seed: RNG seed for the error draws.
    """

    threshold_hours: float = DEFAULT_LONG_LIVED_THRESHOLD_HOURS
    accuracy: float = 0.9
    seed: int = 23

    def __post_init__(self) -> None:
        if self.threshold_hours <= 0:
            raise ConfigError("threshold must be > 0")
        if not 0.5 <= self.accuracy <= 1.0:
            raise ConfigError(
                "accuracy must be in [0.5, 1] (below 0.5 the predictor "
                "is worse than inverting itself)"
            )

    def predict_long_lived(self, vm: VmRequest) -> bool:
        """Predict whether ``vm`` will outlive the threshold."""
        truth = vm.lifetime_hours >= self.threshold_hours
        rng = RngFactory(self.seed).stream(f"vm-{vm.vm_id}")
        if rng.random() < self.accuracy:
            return truth
        return not truth


@dataclass(frozen=True)
class SegregationOutcome:
    """A/B result: interleaved vs lifetime-segregated placement."""

    interleaved_servers: int
    segregated_servers: int
    anchor_servers: int
    churn_servers: int

    @property
    def servers_saved(self) -> int:
        """Right-size improvement from segregation (>= 0 when it helps)."""
        return self.interleaved_servers - self.segregated_servers


def _min_servers_segregated(
    trace: VmTrace,
    sku: ServerSKU,
    predictor: LifetimePredictor,
) -> Tuple[int, int]:
    """(anchor, churn) right-sizes when the two populations are split."""
    long_vms, short_vms = [], []
    for vm in trace.vms:
        (long_vms if predictor.predict_long_lived(vm) else short_vms).append(
            vm
        )

    from ..gsf.sizing import right_size

    def right_size_subset(vms: List[VmRequest]) -> int:
        sub = VmTrace(name="sub", params=trace.params, vms=tuple(vms))
        return right_size(sub, sku)

    return right_size_subset(long_vms), right_size_subset(short_vms)


def segregation_study(
    trace: VmTrace,
    sku: Optional[ServerSKU] = None,
    predictor: Optional[LifetimePredictor] = None,
) -> SegregationOutcome:
    """Compare interleaved vs lifetime-segregated right-sizes.

    Segregation's benefit is workload-dependent: it wins when long-lived
    VMs would otherwise strand capacity across many servers; on highly
    churny traces it can cost a server of headroom instead (each pool
    pays its own peak).  The harness reports both so the tradeoff is
    measurable rather than assumed.
    """
    sku = sku or baseline_gen3()
    predictor = predictor or LifetimePredictor()
    from ..gsf.sizing import right_size

    interleaved = right_size(trace, sku)
    anchor, churn = _min_servers_segregated(trace, sku, predictor)
    return SegregationOutcome(
        interleaved_servers=interleaved,
        segregated_servers=anchor + churn,
        anchor_servers=anchor,
        churn_servers=churn,
    )


def stranded_capacity_fraction(
    trace: VmTrace,
    sku: Optional[ServerSKU] = None,
    snapshot_hours: float = 12.0,
    min_servers: Optional[int] = None,
) -> float:
    """Mean free capacity stranded on servers pinned by long-lived VMs.

    A server is *pinned* when it hosts at least one VM older than the
    long-lived threshold; its free cores cannot be reclaimed by draining.
    This is the fragmentation signal lifetime-aware placement targets.
    """
    sku = sku or baseline_gen3()
    from ..gsf.sizing import right_size

    n = min_servers if min_servers is not None else right_size(trace, sku)
    spec = ClusterSpec.of((sku, n))
    # Replay manually to inspect per-server VM ages at snapshots.
    servers = spec.build_servers()
    scheduler = BestFitScheduler()
    placements: Dict[int, Tuple[Server, float]] = {}
    events: List[Tuple[float, int, int]] = []  # (time, kind 0=arr/1=dep, idx)
    stranded_samples: List[float] = []
    start = trace.start_hours
    snapshot_at = start + snapshot_hours

    import heapq

    departures: List[Tuple[float, int, Server]] = []

    def snapshot(now: float) -> None:
        nonlocal snapshot_at
        while snapshot_at <= now:
            pinned_free = 0
            total = 0
            for server in servers:
                total += server.total_cores
                if server.is_empty:
                    continue
                oldest = min(
                    placements[vm_id][1]
                    for vm_id in list(placements)
                    if placements[vm_id][0] is server
                )
                if snapshot_at - oldest >= DEFAULT_LONG_LIVED_THRESHOLD_HOURS:
                    pinned_free += server.free_cores
            stranded_samples.append(pinned_free / total if total else 0.0)
            snapshot_at += snapshot_hours

    for vm in trace.vms:
        while departures and departures[0][0] <= vm.arrival_hours:
            dep_time, vm_id, server = heapq.heappop(departures)
            snapshot(dep_time)
            server.remove(vm_id)
            placements.pop(vm_id, None)
        snapshot(vm.arrival_hours)
        chosen = scheduler.choose(vm, servers, vm.cores, vm.memory_gb)
        if chosen is None:
            continue
        chosen.place(vm, vm.cores, vm.memory_gb)
        placements[vm.vm_id] = (chosen, vm.arrival_hours)
        if math.isfinite(vm.departure_hours):
            heapq.heappush(departures, (vm.departure_hours, vm.vm_id, chosen))
    snapshot(trace.end_hours)
    return float(np.mean(stranded_samples)) if stranded_samples else 0.0
