"""Property-based fuzzing of the allocation substrate.

Hypothesis drives random placement/removal sequences and random traces
against the invariants the simulator must never violate: capacity
conservation, non-negative free resources, and idempotent accounting.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.cluster import ClusterSpec, adopt_everything, simulate
from repro.allocation.index import PlacementEngine
from repro.allocation.scheduler import Server
from repro.allocation.traces import TraceParams, VmTrace
from repro.allocation.vm import VmRequest
from repro.core import telemetry
from repro.hardware.sku import baseline_gen3, greensku_cxl


def make_vm(vm_id, cores, memory_gb, touch=0.5):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=0.0,
        lifetime_hours=1.0,
        cores=cores,
        memory_gb=memory_gb,
        generation=3,
        app_name="Redis",
        max_memory_fraction=touch,
    )


vm_shapes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=16),  # cores
        st.floats(min_value=1.0, max_value=128.0),  # memory
        st.floats(min_value=0.0, max_value=1.0),  # touch fraction
    ),
    min_size=1,
    max_size=40,
)


class TestServerInvariants:
    @given(shapes=vm_shapes)
    @settings(deadline=None, max_examples=60)
    def test_place_remove_conserves_capacity(self, shapes):
        server = Server(0, baseline_gen3())
        placed = []
        for i, (cores, memory, touch) in enumerate(shapes):
            vm = make_vm(i, cores, memory, touch)
            if server.fits(cores, memory):
                server.place(vm, cores, memory)
                placed.append(vm)
            # Invariants hold after every operation.
            assert 0 <= server.free_cores <= server.total_cores
            assert -1e-9 <= server.free_memory_gb <= server.total_memory_gb
            assert server.allocated_cores == sum(v.cores for v in placed)
        for vm in placed:
            server.remove(vm.vm_id)
        assert server.is_empty
        assert server.free_cores == server.total_cores
        assert server.free_memory_gb == pytest.approx(
            server.total_memory_gb
        )
        assert server.touched_memory_fraction == pytest.approx(0.0)

    @given(shapes=vm_shapes)
    @settings(deadline=None, max_examples=30)
    def test_cxl_pool_conserved(self, shapes):
        server = Server(0, greensku_cxl())
        placed = []
        for i, (cores, memory, touch) in enumerate(shapes):
            vm = make_vm(i, cores, memory, touch)
            cxl = min(memory * 0.25, server.free_cxl_gb)
            if server.fits(cores, memory):
                server.place(vm, cores, memory, cxl_gb=cxl)
                placed.append(vm.vm_id)
            assert -1e-9 <= server.cxl_used_gb <= server.total_cxl_gb + 1e-9
            assert 0 <= server.cxl_utilization <= 1 + 1e-9
        for vm_id in placed:
            server.remove(vm_id)
        assert server.cxl_used_gb == pytest.approx(0.0)


class TestSchedulerInvariants:
    @given(
        shapes=vm_shapes,
        policy=st.sampled_from(["best-fit", "first-fit", "worst-fit"]),
    )
    @settings(deadline=None, max_examples=40)
    def test_chosen_server_always_fits(self, shapes, policy):
        servers = [Server(i, baseline_gen3()) for i in range(3)]
        engine = PlacementEngine(servers, policy=policy)
        for i, (cores, memory, touch) in enumerate(shapes):
            vm = make_vm(i, cores, memory, touch)
            chosen = engine.choose_baseline(vm, cores, memory)
            if chosen is not None:
                assert chosen.fits(cores, memory)
                engine.place(chosen, vm, cores, memory)


class TestSimulationInvariants:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=10)
    def test_placed_plus_rejected_equals_arrivals(self, seed):
        from repro.allocation.traces import generate_trace

        trace = generate_trace(
            seed=seed,
            params=TraceParams(duration_days=2, mean_concurrent_vms=40),
        )
        spec = ClusterSpec.of((baseline_gen3(), 5))
        outcome = simulate(trace, spec)
        assert outcome.placed_vms + len(outcome.rejected_vms) == len(
            trace.vms
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=8)
    def test_more_servers_never_more_rejections(self, seed):
        from repro.allocation.traces import generate_trace

        trace = generate_trace(
            seed=seed,
            params=TraceParams(duration_days=2, mean_concurrent_vms=40),
        )
        small = simulate(trace, ClusterSpec.of((baseline_gen3(), 4)))
        large = simulate(trace, ClusterSpec.of((baseline_gen3(), 8)))
        assert len(large.rejected_vms) <= len(small.rejected_vms)


class TestTelemetryCounterGroundTruth:
    """Telemetry counters cross-checked against truth recomputed from
    the event log: for any trace and cluster, the counted placements,
    rejections, and departures must equal what the trace itself implies.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        servers=st.integers(min_value=3, max_value=12),
    )
    @settings(deadline=None, max_examples=10)
    def test_counters_match_event_log(self, seed, servers):
        from repro.allocation.traces import generate_trace

        trace = generate_trace(
            seed=seed,
            params=TraceParams(duration_days=2, mean_concurrent_vms=40),
        )
        spec = ClusterSpec.of((baseline_gen3(), servers))
        with telemetry.capture() as tel:
            outcome = simulate(trace, spec, snapshot_hours=6.0)
        c = tel.counters

        # Ground truth from the trace + the outcome's rejected list.
        rejected = set(outcome.rejected_vms)
        placed = [vm for vm in trace.vms if vm.vm_id not in rejected]
        end = trace.duration_hours
        departed = sum(
            1
            for vm in placed
            if math.isfinite(vm.departure_hours)
            and vm.departure_hours <= end
        )

        assert c["alloc.replays"] == 1
        assert c["alloc.placements"] == len(placed) == outcome.placed_vms
        assert c["alloc.rejections"] == len(rejected)
        assert (
            c["alloc.placements"] + c["alloc.rejections"] == len(trace.vms)
        )
        assert c["alloc.departures"] == departed
        # Conservation: what was placed either departed or is still live.
        live = sum(
            1
            for vm in placed
            if not (
                math.isfinite(vm.departure_hours)
                and vm.departure_hours <= end
            )
        )
        assert c["alloc.placements"] == c["alloc.departures"] + live
        # Engine mutation counters agree with the replay loop's tallies
        # (two independently maintained counts of the same events).
        assert c["engine.places"] == c["alloc.placements"]
        assert c["engine.removes"] == c["alloc.departures"]
        assert c["alloc.snapshots"] == c["engine.snapshot_merges"]
        # Baseline-only, no adoption: exactly one engine query per VM.
        assert c["engine.queries"] == len(trace.vms)
        # No greens in the cluster -> no green or fallback placements.
        assert c["alloc.green_placements"] == 0
        assert c["alloc.fallback_placements"] == 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=8)
    def test_green_counters_partition_placements(self, seed):
        from repro.allocation.traces import generate_trace

        trace = generate_trace(
            seed=seed,
            params=TraceParams(duration_days=2, mean_concurrent_vms=40),
        )
        spec = ClusterSpec.of((baseline_gen3(), 4), (greensku_cxl(), 4))
        with telemetry.capture() as tel:
            outcome = simulate(
                trace,
                spec,
                adoption=adopt_everything,
                snapshot_hours=6.0,
            )
        c = tel.counters
        assert c["alloc.green_placements"] == outcome.green_placements
        assert c["alloc.fallback_placements"] == outcome.fallback_placements
        assert c["alloc.green_placements"] <= c["alloc.placements"]
        # Fallbacks are adopters that landed on baseline: disjoint from
        # green placements, bounded by total placements.
        assert (
            c["alloc.green_placements"] + c["alloc.fallback_placements"]
            <= c["alloc.placements"]
        )
        # Bucket probes only happen inside queries.
        assert c["engine.bucket_probes"] >= 0
        assert c["engine.queries"] >= c["alloc.placements"]
