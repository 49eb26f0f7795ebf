"""Cluster simulation tests."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.allocation import cluster as cluster_module
from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    simulate,
)
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core import telemetry
from repro.core.errors import CapacityError, ConfigError
from repro.hardware.sku import baseline_gen3, greensku_full
from tests.oracles import allocation as oracle


def tiny_trace(vms):
    return VmTrace(name="tiny", params=TraceParams(duration_days=1), vms=tuple(vms))


def make_vm(vm_id, arrival=0.0, lifetime=5.0, cores=8, memory=32.0, **kw):
    base = dict(
        vm_id=vm_id,
        arrival_hours=arrival,
        lifetime_hours=lifetime,
        cores=cores,
        memory_gb=memory,
        generation=3,
        app_name="Redis",
    )
    base.update(kw)
    return VmRequest(**base)


class TestClusterSpec:
    def test_counts(self):
        spec = ClusterSpec.of((baseline_gen3(), 3), (greensku_full(), 2))
        assert spec.total_servers == 5
        assert spec.baseline_servers == 3
        assert spec.green_servers == 2

    def test_build_servers_unique_ids(self):
        spec = ClusterSpec.of((baseline_gen3(), 3), (greensku_full(), 2))
        ids = [s.server_id for s in spec.build_servers()]
        assert len(set(ids)) == 5

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec(skus=())

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            ClusterSpec.of((baseline_gen3(), -1))

    def test_negative_count_rejected_in_any_position(self):
        with pytest.raises(ConfigError):
            ClusterSpec.of((baseline_gen3(), 3), (greensku_full(), -2))

    @pytest.mark.parametrize("count", [float("nan"), 1.5, float("inf")])
    def test_non_integer_count_rejected(self, count):
        # ``< 0`` is false for each of these, and ``simulate`` used to
        # fail later with a TypeError building the servers.
        with pytest.raises(ConfigError, match="server count must be an"):
            ClusterSpec.of((baseline_gen3(), count))

    def test_numpy_integer_count_accepted(self):
        spec = ClusterSpec.of((baseline_gen3(), np.int64(3)))
        assert spec.total_servers == 3


class TestSimulateBasics:
    def test_all_placed_when_capacity_suffices(self):
        trace = tiny_trace([make_vm(i) for i in range(5)])
        out = simulate(trace, ClusterSpec.of((baseline_gen3(), 2)))
        assert out.placed_vms == 5
        assert out.feasible

    def test_rejection_recorded(self):
        # 11 concurrent 8-core VMs need 88 cores; one 80-core server
        # rejects at least one.
        trace = tiny_trace([make_vm(i, lifetime=24.0) for i in range(11)])
        out = simulate(trace, ClusterSpec.of((baseline_gen3(), 1)))
        assert not out.feasible
        assert len(out.rejected_vms) == 1

    def test_raise_on_reject(self):
        trace = tiny_trace([make_vm(i, lifetime=24.0) for i in range(11)])
        with pytest.raises(CapacityError):
            simulate(
                trace,
                ClusterSpec.of((baseline_gen3(), 1)),
                raise_on_reject=True,
            )

    def test_departures_free_capacity(self):
        # Sequential VMs that never overlap all fit one server.
        vms = [
            make_vm(i, arrival=float(i), lifetime=0.5, cores=80, memory=768.0)
            for i in range(5)
        ]
        out = simulate(tiny_trace(vms), ClusterSpec.of((baseline_gen3(), 1)))
        assert out.feasible

    def test_invalid_snapshot_interval(self):
        trace = tiny_trace([make_vm(1)])
        with pytest.raises(ConfigError):
            simulate(trace, ClusterSpec.of((baseline_gen3(), 1)),
                     snapshot_hours=0)


class TestAdoptionRouting:
    def test_adopt_nothing_keeps_greens_empty(self):
        trace = tiny_trace([make_vm(i) for i in range(4)])
        spec = ClusterSpec.of((baseline_gen3(), 1), (greensku_full(), 1))
        out = simulate(trace, spec, adoption=adopt_nothing)
        assert out.green_placements == 0

    def test_adopt_everything_prefers_green(self):
        trace = tiny_trace([make_vm(i) for i in range(4)])
        spec = ClusterSpec.of((baseline_gen3(), 1), (greensku_full(), 1))
        out = simulate(trace, spec, adoption=adopt_everything)
        assert out.green_placements == 4

    def test_fungible_fallback_to_baseline(self):
        # Green capacity for 16 cores only; the rest overflow to baseline.
        vms = [make_vm(i, cores=64, memory=256.0, lifetime=24.0)
               for i in range(3)]
        spec = ClusterSpec.of((baseline_gen3(), 2), (greensku_full(), 1))
        out = simulate(tiny_trace(vms), spec, adoption=adopt_everything)
        assert out.feasible
        assert out.fallback_placements >= 1

    def test_scaling_applied_on_green(self):
        # A VM scaled 1.5x (12 cores) fills a 12-core gap differently.
        def adoption(app, gen):
            return 1.5

        vms = [make_vm(i, cores=80, memory=320.0, lifetime=24.0)
               for i in range(1)]
        spec = ClusterSpec.of((greensku_full(), 1))
        out = simulate(tiny_trace(vms), spec, adoption=adoption)
        assert out.feasible
        # 80 * 1.5 = 120 cores on the 128-core GreenSKU.
        assert out.green_placements == 1

    def test_full_node_vm_only_on_baseline(self):
        vm = make_vm(1, cores=80, memory=768.0, lifetime=24.0, full_node=True)
        spec = ClusterSpec.of((greensku_full(), 2))
        out = simulate(tiny_trace([vm]), spec, adoption=adopt_everything)
        assert not out.feasible


class TestAdoptionFactorCheck:
    """A factor below 1 is checked once, when its pair first resolves."""

    #: Five Redis VMs, then the first of three Xapian VMs (all Gen3).
    TRACE = tiny_trace(
        [make_vm(i, arrival=float(i), lifetime=24.0) for i in range(5)]
        + [
            make_vm(i, arrival=float(i), lifetime=24.0, app_name="Xapian")
            for i in range(5, 8)
        ]
    )

    @staticmethod
    def policy(calls):
        def halve_xapian(app, generation):
            calls.append((app, generation))
            return 0.5 if app == "Xapian" else 1.0

        return halve_xapian

    def test_raises_at_first_arrival_of_its_pair(self):
        calls = []
        spec = ClusterSpec.of((baseline_gen3(), 2), (greensku_full(), 2))
        match = "scaling factor must be a finite value >= 1, got 0.5"
        with telemetry.capture() as tel:
            with pytest.raises(ConfigError, match=match):
                simulate(self.TRACE, spec, self.policy(calls))
        assert calls == [("Redis", 3), ("Xapian", 3)]
        # The five Redis VMs before it were placed, and nothing after.
        assert tel.counters["alloc.placements"] == 5
        with pytest.raises(ConfigError, match=match):
            oracle.simulate(self.TRACE, spec, self.policy([]))

    def test_baseline_only_cluster_replays_normally(self):
        # With no GreenSKU the factor is never applied, so it is never
        # checked: every VM that has one counts as a fallback.
        calls = []
        spec = ClusterSpec.of((baseline_gen3(), 2))
        out = simulate(self.TRACE, spec, self.policy(calls))
        assert calls == [("Redis", 3), ("Xapian", 3)]
        assert out.placed_vms == out.fallback_placements == 8
        assert outcome_digest(out) == outcome_digest(
            oracle.simulate(self.TRACE, spec, self.policy([]))
        )


class TestEventStreamCache:
    """A trace merges its event stream once per window end."""

    @pytest.fixture()
    def merges(self, monkeypatch):
        ends = []
        real_merge = cluster_module._merged_events

        def counting_merge(columns, end):
            ends.append(end)
            return real_merge(columns, end)

        monkeypatch.setattr(cluster_module, "_merged_events", counting_merge)
        return ends

    def test_replays_share_one_merge(self, merges):
        trace = generate_trace(
            seed=3, params=TraceParams(duration_days=2, mean_concurrent_vms=40)
        )
        spec = ClusterSpec.of((baseline_gen3(), 12))
        first = simulate(trace, spec, snapshot_hours=4.0)
        simulate(trace, ClusterSpec.of((baseline_gen3(), 4)))
        again = simulate(trace, spec, snapshot_hours=4.0)
        assert merges == [trace.end_hours]
        assert outcome_digest(again) == outcome_digest(first)
        assert all(not a.flags.writeable for a in trace._events[1])
        # The stream is never pickled: a copy merges its own.
        twin = pickle.loads(pickle.dumps(trace))
        assert twin._events is None
        assert outcome_digest(
            simulate(twin, spec, snapshot_hours=4.0)
        ) == outcome_digest(first)
        assert len(merges) == 2

    def test_new_window_end_merges_again(self, merges):
        # A longer window drains departures after the last arrival up to
        # its own end, so the stream merged for the old end must not
        # answer it.
        trace = generate_trace(
            seed=3, params=TraceParams(duration_days=2, mean_concurrent_vms=40)
        )
        spec = ClusterSpec.of((baseline_gen3(), 12))
        simulate(trace, spec, snapshot_hours=4.0)
        trace.params = dataclasses.replace(trace.params, duration_days=3)
        longer = simulate(trace, spec, snapshot_hours=4.0)
        assert len(merges) == 2 and merges[1] == trace.end_hours
        assert outcome_digest(longer) == outcome_digest(
            oracle.simulate(trace, spec, snapshot_hours=4.0)
        )


class TestSnapshots:
    def test_snapshot_stats_populated(self):
        trace = generate_trace(
            seed=2, params=TraceParams(duration_days=2, mean_concurrent_vms=40)
        )
        spec = ClusterSpec.of((baseline_gen3(), 10))
        out = simulate(trace, spec, snapshot_hours=4.0)
        assert out.baseline_stats.samples > 0
        assert 0 < out.baseline_stats.mean_core_density <= 1

    def test_green_and_baseline_stats_split(self):
        trace = generate_trace(
            seed=2, params=TraceParams(duration_days=2, mean_concurrent_vms=40)
        )
        spec = ClusterSpec.of((baseline_gen3(), 6), (greensku_full(), 4))
        out = simulate(trace, spec, adoption=adopt_everything,
                       snapshot_hours=4.0)
        assert out.green_stats.samples > 0

    def test_densities_bounded(self):
        trace = generate_trace(
            seed=3, params=TraceParams(duration_days=2, mean_concurrent_vms=40)
        )
        out = simulate(trace, ClusterSpec.of((baseline_gen3(), 12)),
                       snapshot_hours=2.0)
        stats = out.baseline_stats
        assert 0 <= stats.mean_memory_density <= 1
        assert 0 <= stats.mean_touched_memory <= 1
