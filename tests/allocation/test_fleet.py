"""Sharded fleet driver: exact merges, resilience, journal invariance."""

import pytest

from repro.allocation.cluster import ClusterSpec, adopt_everything, outcome_digest
from repro.allocation.fleet import (
    ClusterTask,
    FleetOutcome,
    FleetSpec,
    simulate_fleet,
)
from repro.allocation.traces import TraceParams, generate_trace
from repro.core import settings, telemetry
from repro.core.errors import ConfigError, SimulationError
from repro.core.faults import FaultPlan
from repro.core.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.hardware.sku import baseline_gen3, greensku_full
from tests.oracles import allocation as oracle

PARAMS = TraceParams(duration_days=1.5, mean_concurrent_vms=80)

CLUSTERS = 6


def _fast_retry(max_retries=2):
    return RetryPolicy(
        max_retries=max_retries, backoff_base_s=0.0, sleep=lambda _s: None
    )


def _spec(clusters=CLUSTERS):
    tasks = []
    for i in range(clusters):
        cluster = ClusterSpec.of(
            (baseline_gen3(), 6 + i % 3), (greensku_full(), 4)
        )
        tasks.append(
            ClusterTask(
                name=f"cluster-{i:03d}",
                seed=500 + i,
                params=PARAMS,
                cluster=cluster,
            )
        )
    return FleetSpec.of(*tasks)


class TestFleetSpec:
    def test_requires_clusters(self):
        with pytest.raises(ConfigError, match="at least one cluster"):
            FleetSpec.of()

    def test_requires_unique_names(self):
        task = _spec(1).clusters[0]
        with pytest.raises(ConfigError, match="unique"):
            FleetSpec.of(task, task)

    @pytest.mark.parametrize("hours", [0.0, float("nan"), float("inf")])
    def test_bad_snapshot_interval_rejected(self, hours):
        with pytest.raises(ConfigError, match="snapshot interval"):
            simulate_fleet(_spec(1), snapshot_hours=hours)

    def test_requires_named_tasks(self):
        task = _spec(1).clusters[0]
        with pytest.raises(ConfigError, match="non-empty name"):
            ClusterTask(
                name="", seed=task.seed, params=task.params,
                cluster=task.cluster,
            )

    def test_totals(self):
        spec = _spec(3)
        assert spec.total_clusters == 3
        assert spec.total_servers == sum(
            t.cluster.total_servers for t in spec.clusters
        )


class TestFleetAggregation:
    def test_matches_per_cluster_simulate(self):
        """Fleet aggregates == exact sums of standalone oracle replays."""
        spec = _spec()
        fleet = simulate_fleet(spec, adopt_everything, snapshot_hours=4.0)
        singles = [
            oracle.simulate(
                generate_trace(t.seed, t.params, name=t.name),
                t.cluster,
                adopt_everything,
                snapshot_hours=4.0,
            )
            for t in spec.clusters
        ]
        assert fleet.completed_clusters == CLUSTERS
        assert fleet.placed_vms == sum(s.placed_vms for s in singles)
        assert fleet.rejected_vms == sum(
            len(s.rejected_vms) for s in singles
        )
        assert fleet.green_placements == sum(
            s.green_placements for s in singles
        )
        assert [outcome_digest(o) for o in fleet.outcomes] == [
            outcome_digest(s) for s in singles
        ]

    def test_serial_equals_parallel(self):
        spec = _spec()
        serial = simulate_fleet(
            spec, adopt_everything, snapshot_hours=4.0, jobs=1
        )
        parallel = simulate_fleet(
            spec, adopt_everything, snapshot_hours=4.0, jobs=2
        )
        assert serial.digest() == parallel.digest()
        assert (
            serial.baseline_stats.canonical()
            == parallel.baseline_stats.canonical()
        )
        assert (
            serial.green_stats.canonical()
            == parallel.green_stats.canonical()
        )

    def test_reconcile_detects_tampering(self):
        fleet = simulate_fleet(_spec(2), adopt_everything)
        fleet.placed_vms += 1
        with pytest.raises(SimulationError, match="placed_vms diverged"):
            fleet.reconcile()

    def test_telemetry_counters(self):
        spec = _spec(2)
        with telemetry.capture() as tel:
            fleet = simulate_fleet(spec, adopt_everything)
        assert tel.counters["fleet.clusters"] == 2
        assert tel.counters["fleet.placed_vms"] == fleet.placed_vms
        assert "fleet.simulate" in tel.timers


class TestFleetResilience:
    def test_flaky_kills_retry_to_clean_digest(self, tmp_path):
        """First-attempt kills on some shards recover to the clean run."""
        spec = _spec()
        clean = simulate_fleet(spec, adopt_everything)
        policy = ResiliencePolicy(
            journal=CheckpointJournal(tmp_path / "journal"),
            retry=_fast_retry(max_retries=2),
            faults=FaultPlan(kill_indices=(1, 4), kill_attempts=1),
            on_failure="record",
        )
        with telemetry.capture() as tel:
            with settings.using(policy=policy):
                flaky = simulate_fleet(spec, adopt_everything)
        assert tel.counters["resilience.retries"] >= 2
        assert not flaky.failures
        assert flaky.digest() == clean.digest()

    def test_doomed_shards_degrade_then_resume_bit_identical(self, tmp_path):
        """Mid-fleet kills leave holes; a journal resume restores them."""
        spec = _spec()
        clean = simulate_fleet(spec, adopt_everything)
        journal = CheckpointJournal(tmp_path / "journal")
        doomed = (2, 5)
        doomed_policy = ResiliencePolicy(
            journal=journal,
            retry=_fast_retry(max_retries=2),
            faults=FaultPlan(kill_indices=doomed, kill_attempts=3),
            on_failure="record",
        )
        with telemetry.capture() as tel:
            with settings.using(policy=doomed_policy):
                degraded = simulate_fleet(spec, adopt_everything)
        assert tel.counters["resilience.failures"] == len(doomed)
        assert tel.counters["fleet.failed_clusters"] == len(doomed)
        assert len(degraded.failures) == len(doomed)
        assert degraded.completed_clusters == CLUSTERS - len(doomed)
        assert not degraded.feasible
        assert [
            i for i, o in enumerate(degraded.outcomes) if o is None
        ] == list(doomed)
        # The degraded aggregates still reconcile over the survivors.
        degraded.reconcile()
        assert degraded.digest() != clean.digest()

        # Resume with faults cleared: only the holes recompute.
        with telemetry.capture() as tel:
            with settings.using(policy=ResiliencePolicy(journal=journal)):
                resumed = simulate_fleet(spec, adopt_everything)
        counters = tel.counters
        assert counters["resilience.resumed"] == CLUSTERS - len(doomed)
        assert counters["resilience.checkpointed"] == len(doomed)
        assert resumed.digest() == clean.digest()
        assert (
            resumed.baseline_stats.canonical()
            == clean.baseline_stats.canonical()
        )

    def test_journal_survives_chunking_switch(self, tmp_path):
        """Chunk size is excluded from the key: a journal written at one
        chunk size resumes at another without recomputing a shard."""
        spec = _spec(3)
        journal = CheckpointJournal(tmp_path / "journal")
        with settings.using(policy=ResiliencePolicy(journal=journal)):
            first = simulate_fleet(spec, adopt_everything, chunk_events=64)
        with telemetry.capture() as tel:
            with settings.using(policy=ResiliencePolicy(journal=journal)):
                second = simulate_fleet(
                    spec, adopt_everything, chunk_events=4096
                )
        assert tel.counters["resilience.resumed"] == 3
        assert "resilience.checkpointed" not in tel.counters
        assert second.digest() == first.digest()


class TestFleetOutcomeDigest:
    def test_failed_shards_change_digest(self):
        fleet = simulate_fleet(_spec(2), adopt_everything)
        whole = fleet.digest()
        fleet.outcomes[1] = None
        assert fleet.digest() != whole
        assert fleet.cluster_digests()[1][1] is None
