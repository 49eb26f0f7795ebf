"""Sharded multi-cluster fleet driver.

The paper's cluster results replay one trace against one cluster; the
ROADMAP north star is a *fleet* — 10^6–10^7 VMs across hundreds of
simulated clusters.  This module partitions a fleet spec across worker
processes via :func:`repro.core.resilience.resilient_map` (inheriting
checkpoint/resume, retries, and fault injection), runs each cluster
through the streaming columnar replay, and merges the per-cluster
:class:`~repro.allocation.cluster.SimOutcome` records into one
:class:`FleetOutcome` whose aggregates reconcile *exactly* against the
shard results (integer fixed-point snapshot sums are associative, so
merge order cannot change a single bit).

Cache/journal keys cover the generation inputs, the adoption policy's
qualified name, and the snapshot interval — **not** the chunk size,
because every chunking is bit-identical by contract (the equivalence
suite pins this), so a journal written with one chunk size resumes
correctly under another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core import settings, telemetry
from ..core.checks import check_finite
from ..core.errors import ConfigError, SimulationError
from ..core.resilience import ResiliencePolicy, TaskFailure, resilient_map
from ..core.runner import DiskCache, content_key
from .cluster import (
    AdoptionPolicy,
    ClusterSpec,
    DEFAULT_CHUNK_EVENTS,
    SimOutcome,
    SnapshotStats,
    adopt_nothing,
    outcome_digest,
    simulate,
)
from .traces import TraceParams, VmTrace, generate_trace

#: Part of every fleet cache/journal key; bump when the worker's
#: behavior changes in a result-affecting way.  v3: placement policy and
#: grid signal left the job identity.
FLEET_KEY_VERSION = "fleet-v3"


@dataclass(frozen=True)
class ClusterTask:
    """One shard of a fleet: a (trace, cluster) pair to replay.

    Attributes:
        name: Unique label within the fleet (journal entries, digests,
            and failure records are reported under it).
        seed: Trace-generation seed.
        params: Trace-generation knobs.
        cluster: The cluster configuration this shard replays against.
    """

    name: str
    seed: int
    params: TraceParams
    cluster: ClusterSpec

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("cluster task needs a non-empty name")


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet: uniquely named cluster tasks."""

    clusters: Tuple[ClusterTask, ...]

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigError("a fleet needs at least one cluster")
        names = [task.name for task in self.clusters]
        if len(set(names)) != len(names):
            raise ConfigError("fleet cluster names must be unique")

    @classmethod
    def of(cls, *tasks: ClusterTask) -> "FleetSpec":
        """Build a spec from cluster tasks given as arguments."""
        return cls(clusters=tuple(tasks))

    @property
    def total_clusters(self) -> int:
        """Number of clusters in the fleet."""
        return len(self.clusters)

    @property
    def total_servers(self) -> int:
        """Sum of server counts over every cluster."""
        return sum(task.cluster.total_servers for task in self.clusters)


@dataclass
class FleetOutcome:
    """Merged result of a fleet replay.

    ``outcomes`` holds the per-cluster records in spec order (with
    ``None`` holes where a shard failed under a degraded
    ``on_failure="record"`` run); the aggregate fields are exact merges
    over the successful shards, and :meth:`reconcile` re-derives them
    from scratch to prove it.
    """

    spec: FleetSpec
    outcomes: List[Optional[SimOutcome]]
    failures: List[TaskFailure] = field(default_factory=list)
    placed_vms: int = 0
    rejected_vms: int = 0
    green_placements: int = 0
    fallback_placements: int = 0
    baseline_stats: SnapshotStats = field(default_factory=SnapshotStats)
    green_stats: SnapshotStats = field(default_factory=SnapshotStats)

    @property
    def feasible(self) -> bool:
        """Every shard completed and no VM anywhere was rejected."""
        return not self.failures and self.rejected_vms == 0

    @property
    def completed_clusters(self) -> int:
        """Number of shards that produced an outcome (holes excluded)."""
        return sum(1 for outcome in self.outcomes if outcome is not None)

    def cluster_digests(self) -> Tuple[Tuple[str, Optional[str]], ...]:
        """(name, outcome digest) per shard, spec order; None = failed."""
        return tuple(
            (
                task.name,
                outcome_digest(outcome) if outcome is not None else None,
            )
            for task, outcome in zip(self.spec.clusters, self.outcomes)
        )

    def digest(self) -> str:
        """sha256 over the ordered per-cluster outcome digests.

        The fleet-level identity the golden CI checks pin: it changes
        exactly when any shard's behavioral outcome changes (or a shard
        fails), independent of chunking, worker count, and resume
        history.
        """
        h = hashlib.sha256()
        for name, digest in self.cluster_digests():
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            h.update((digest or "failed").encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def reconcile(self) -> None:
        """Re-derive every aggregate from the shard outcomes; must match.

        Raises :class:`SimulationError` on any discrepancy — this is the
        exact-aggregation guarantee, not a tolerance check.
        """
        fresh_baseline, fresh_green = SnapshotStats(), SnapshotStats()
        counts = {
            "placed_vms": 0,
            "rejected_vms": 0,
            "green_placements": 0,
            "fallback_placements": 0,
        }
        for outcome in self.outcomes:
            if outcome is None:
                continue
            counts["placed_vms"] += outcome.placed_vms
            counts["rejected_vms"] += len(outcome.rejected_vms)
            counts["green_placements"] += outcome.green_placements
            counts["fallback_placements"] += outcome.fallback_placements
            fresh_baseline.merge(outcome.baseline_stats)
            fresh_green.merge(outcome.green_stats)
        for name, value in counts.items():
            if getattr(self, name) != value:
                raise SimulationError(
                    f"fleet aggregate {name} diverged: merged "
                    f"{getattr(self, name)}, re-derived {value}"
                )
        if fresh_baseline.canonical() != self.baseline_stats.canonical():
            raise SimulationError("fleet baseline stats diverged on merge")
        if fresh_green.canonical() != self.green_stats.canonical():
            raise SimulationError("fleet green stats diverged on merge")


def _adoption_key(adoption: AdoptionPolicy) -> str:
    """A stable identity for an adoption policy.

    Functions repr with their memory address, which would bust the cache
    every process; their qualified name is the stable part.  Policy
    *objects* (e.g. ``AdoptionModel``) key on their repr, which for the
    frozen dataclasses is a pure function of their fields.
    """
    qualname = getattr(adoption, "__qualname__", None)
    if qualname is not None:
        module = getattr(adoption, "__module__", "")
        return f"{module}.{qualname}"
    return repr(adoption)


@dataclass(frozen=True)
class _ClusterJob:
    """The picklable unit of work a fleet worker executes."""

    task: ClusterTask
    adoption: AdoptionPolicy
    chunk_events: int
    snapshot_hours: float
    mmap: bool


def _job_key(job: _ClusterJob) -> str:
    """Chunk-independent cache key (outcomes are bit-identical)."""
    return content_key(
        FLEET_KEY_VERSION,
        job.task.name,
        job.task.seed,
        job.task.params,
        job.task.cluster,
        _adoption_key(job.adoption),
        job.snapshot_hours,
    )


def _load_trace(job: _ClusterJob) -> VmTrace:
    """The shard's trace: store columns when enabled, else generated.

    Store hits with ``mmap=True`` stream columns from disk, so a worker
    holds at most its chunk window plus active-VM state in memory —
    full-fleet rows are never materialized.
    """
    from .store import TraceStore

    task = job.task
    if settings.current().use_trace_store:
        store = TraceStore()
        trace = store.get(task.seed, task.params, task.name, mmap=job.mmap)
        if trace is not None:
            return trace
        trace = generate_trace(task.seed, task.params, name=task.name)
        store.put(task.seed, task.params, trace.columns)
        return trace
    return generate_trace(task.seed, task.params, name=task.name)


def _run_cluster(job: _ClusterJob) -> SimOutcome:
    """Replay one shard through the streaming replay."""
    return simulate(
        _load_trace(job),
        job.task.cluster,
        job.adoption,
        snapshot_hours=job.snapshot_hours,
        chunk_events=job.chunk_events,
    )


def simulate_fleet(
    spec: FleetSpec,
    adoption: AdoptionPolicy = adopt_nothing,
    snapshot_hours: float = 6.0,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    mmap: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> FleetOutcome:
    """Replay every cluster of ``spec`` and merge the outcomes exactly.

    Shards fan out through :func:`resilient_map`, so fleet runs inherit
    the PR 5 substrate wholesale: checkpoint/resume via the settings'
    journal, retries with per-attempt timeouts, deterministic fault
    injection, and degraded completion under ``on_failure="record"``
    (failed shards surface in ``FleetOutcome.failures`` and leave
    ``None`` holes in ``outcomes`` — the aggregates then cover the
    survivors only, and ``feasible`` is False).

    With no ``policy``, here or in the run settings, each shard gets one
    attempt and a failure raises.  ``cache=None`` consults the opt-in
    disk cache (``--cache`` / ``REPRO_CACHE``) like every other fan-out.

    ``adoption`` must be picklable (a module-level function or a policy
    object) so workers can receive it.  ``chunk_events`` is deliberately
    *excluded* from the cache key — outcomes are bit-identical across
    chunk sizes by contract, so resumed journals stay valid when it
    changes.

    The merged aggregates are reconciled against the shard outcomes
    before returning (raises :class:`SimulationError` on any bit of
    divergence).
    """
    check_finite(snapshot_hours, "snapshot interval", above=0)
    task_jobs = [
        _ClusterJob(
            task=task,
            adoption=adoption,
            chunk_events=chunk_events,
            snapshot_hours=snapshot_hours,
            mmap=mmap,
        )
        for task in spec.clusters
    ]
    with telemetry.timer("fleet.simulate"):
        results = resilient_map(
            _run_cluster,
            task_jobs,
            key_fn=_job_key,
            jobs=jobs,
            cache=cache,
            policy=policy,
        )
    outcome = FleetOutcome(spec=spec, outcomes=[None] * len(task_jobs))
    for slot, result in enumerate(results):
        if isinstance(result, TaskFailure):
            outcome.failures.append(result)
            telemetry.count("fleet.failed_clusters")
            continue
        outcome.outcomes[slot] = result
        outcome.placed_vms += result.placed_vms
        outcome.rejected_vms += len(result.rejected_vms)
        outcome.green_placements += result.green_placements
        outcome.fallback_placements += result.fallback_placements
        outcome.baseline_stats.merge(result.baseline_stats)
        outcome.green_stats.merge(result.green_stats)
    telemetry.count("fleet.clusters", outcome.completed_clusters)
    telemetry.count("fleet.placed_vms", outcome.placed_vms)
    outcome.reconcile()
    return outcome
