"""Cluster simulation tests."""

import numpy as np
import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    adopt_nothing,
    simulate,
)
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core.errors import CapacityError, ConfigError
from repro.hardware.sku import baseline_gen3, greensku_full


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
