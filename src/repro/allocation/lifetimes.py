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
- an A/B harness measuring what segregation buys in right-size terms:
  it right-sizes the whole trace as one pool, then the predicted
  long-lived VMs ("anchor" pool) and the rest ("churn" pool) as two
  separate pools, each under the production best-fit rules,
- a stranded-capacity measurement: the trace replays on the production
  placement engine, and each snapshot counts the free cores on servers
  pinned by a long-lived VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..core.rng import RngFactory
from ..hardware.sku import ServerSKU, baseline_gen3
from .cluster import ClusterSpec, adopt_everything, replay_on_engine
from .index import PlacementEngine
from .scheduler import Server
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
        return self._predict(vm.vm_id, vm.lifetime_hours)

    def _predict(self, vm_id: int, lifetime_hours: float) -> bool:
        truth = lifetime_hours >= self.threshold_hours
        rng = RngFactory(self.seed).stream(f"vm-{vm_id}")
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


def _long_lived_mask(
    trace: VmTrace, predictor: LifetimePredictor
) -> np.ndarray:
    """Which rows ``predictor`` calls long-lived, as a boolean column mask."""
    columns = trace.columns
    return np.array(
        [
            predictor._predict(vm_id, lifetime)
            for vm_id, lifetime in zip(
                columns.vm_id.tolist(), columns.lifetime_hours.tolist()
            )
        ],
        dtype=bool,
    )


def _min_servers_segregated(
    trace: VmTrace,
    sku: ServerSKU,
    predictor: LifetimePredictor,
) -> Tuple[int, int]:
    """(anchor, churn) right-sizes when the two populations are split."""
    from ..gsf.sizing import right_size

    long_lived = _long_lived_mask(trace, predictor)
    return (
        right_size(trace.filter(long_lived), sku),
        right_size(trace.filter(~long_lived), sku),
    )


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


class _PinnedCapacityEngine(PlacementEngine):
    """A best-fit engine whose snapshots sample pinned free capacity.

    Each snapshot records the free cores on servers whose oldest VM is
    at least the long-lived threshold old, over all cores.  The replay
    loop fires snapshots on its grid, ``start + h`` then every ``h``;
    the engine steps its own copy of that grid to date them.
    """

    def __init__(
        self,
        servers: List[Server],
        arrivals: Dict[int, float],
        start: float,
        snapshot_hours: float,
    ):
        super().__init__(servers)
        self._arrivals = arrivals
        self._snapshot_hours = snapshot_hours
        self._snapshot_at = start + snapshot_hours
        self.samples: List[float] = []

    def snapshot(self, outcome) -> None:
        pinned_free = 0
        total = 0
        arrivals = self._arrivals
        now = self._snapshot_at
        for server in self.servers.values():
            total += server.total_cores
            if server.is_empty:
                continue
            oldest = min(arrivals[vm_id] for vm_id in server.vm_ids)
            if now - oldest >= DEFAULT_LONG_LIVED_THRESHOLD_HOURS:
                pinned_free += server.free_cores
        self.samples.append(pinned_free / total if total else 0.0)
        self._snapshot_at += self._snapshot_hours


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
    The trace replays under the production rules on ``min_servers``
    servers of ``sku`` (default: the right-size), with every VM placed
    unscaled, so a GreenSKU pool hosts it too.
    """
    sku = sku or baseline_gen3()
    from ..gsf.sizing import right_size

    n = min_servers if min_servers is not None else right_size(trace, sku)
    cluster = ClusterSpec.of((sku, n))
    columns = trace.columns
    engine = _PinnedCapacityEngine(
        cluster.build_servers(),
        dict(zip(columns.vm_id.tolist(), columns.arrival_hours.tolist())),
        trace.start_hours,
        snapshot_hours,
    )
    replay_on_engine(
        trace,
        cluster,
        engine,
        adoption=adopt_everything,
        snapshot_hours=snapshot_hours,
    )
    return float(np.mean(engine.samples)) if engine.samples else 0.0
