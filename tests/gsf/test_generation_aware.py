"""Generation-aware sizing and evaluation tests."""

import pytest

from repro.allocation.cluster import ClusterSpec, adopt_nothing, simulate
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.gsf.framework import Gsf
from repro.gsf.sizing import size_generation_aware
from repro.hardware.sku import (
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_full,
)
from tests.oracles import sizing as oracle


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        seed=17, params=TraceParams(duration_days=5, mean_concurrent_vms=150)
    )


@pytest.fixture(scope="module")
def baselines():
    return {1: baseline_gen1(), 2: baseline_gen2(), 3: baseline_gen3()}


@pytest.fixture(scope="module")
def sizing(trace, baselines, gsf):
    policy = gsf.adoption_model(greensku_full()).policy()
    return size_generation_aware(trace, baselines, greensku_full(), policy)


class TestGenerationRouting:
    def test_vms_route_to_own_generation(self, trace, baselines):
        """In a multi-generation cluster, every placement lands on the
        VM's own generation."""
        spec = ClusterSpec.of(
            (baselines[1], 10), (baselines[2], 20), (baselines[3], 30)
        )
        outcome = simulate(trace, spec, adoption=adopt_nothing)
        assert outcome.feasible

    def test_single_generation_cluster_takes_everything(self, trace):
        """A Gen3-only cluster still hosts Gen1/Gen2 VMs (old images run
        under-clocked on new hardware, per the paper)."""
        spec = ClusterSpec.of((baseline_gen3(), 40))
        outcome = simulate(trace, spec, adoption=adopt_nothing)
        assert outcome.feasible


class TestGenerationAwareSizing:
    def test_reference_covers_all_generations(self, sizing, trace):
        generations = {vm.generation for vm in trace.vms}
        for gen in generations:
            assert sizing.reference_by_gen[gen] > 0

    def test_mixed_smaller_than_reference(self, sizing):
        assert (
            sizing.mixed_baseline_total + sizing.mixed_green_servers
            <= sizing.reference_total + sizing.mixed_green_servers
        )
        assert sizing.mixed_baseline_total < sizing.reference_total

    def test_generation_without_a_baseline_rejected(self, gsf):
        # 64 of this trace's 399 VMs are Gen-1.  With no Gen-1 SKU the
        # reference used to drop them while the mixed replay hosted
        # them, so the savings compared different workloads.
        trace = generate_trace(
            1, TraceParams(duration_days=3, mean_concurrent_vms=200)
        )
        policy = gsf.adoption_model(greensku_full()).policy()
        with pytest.raises(ConfigError, match=r"generation\(s\) \[1\]"):
            size_generation_aware(
                trace,
                {2: baseline_gen2(), 3: baseline_gen3()},
                greensku_full(),
                policy,
            )

    def test_mixed_cluster_feasible(self, sizing, trace, baselines, gsf):
        policy = gsf.adoption_model(greensku_full()).policy()
        pairs = [
            (baselines[gen], count)
            for gen, count in sizing.mixed_baselines_by_gen.items()
            if count > 0
        ]
        pairs.append((greensku_full(), sizing.mixed_green_servers))
        outcome = simulate(
            trace, ClusterSpec.of(*pairs), adoption=policy
        )
        assert outcome.feasible


class TestOwnPoolRule:
    """A generation with baseline-bound VMs keeps a pool of its own."""

    def test_seed_one_keeps_a_gen1_server(self, gsf):
        # Without the rule the trim emptied Gen 1 (Gen1 0, Gen2 1, Gen3 7,
        # 15 GreenSKUs), so its 16 non-adopting VMs ran on Gen-2 and
        # Gen-3 servers while the reference gave Gen 1 eight of its own.
        trace = generate_trace(
            1, TraceParams(duration_days=7, mean_concurrent_vms=400)
        )
        policy = gsf.adoption_model(greensku_full()).policy()
        sizing = size_generation_aware(
            trace, gsf.baselines, greensku_full(), policy
        )
        assert sizing.mixed_baselines_by_gen == {1: 1, 2: 1, 3: 7}
        assert sizing.mixed_green_servers == 15
        assert sizing.reference_by_gen == {1: 8, 2: 12, 3: 17}

    def test_fully_adopting_generation_keeps_no_pool(self, baselines):
        # Every Gen-1 VM adopts, so Gen 1 has no baseline-bound VM and no
        # pool; the Gen-2 and Gen-3 VMs adopt nothing.
        vms = [
            VmRequest(
                vm_id=i,
                arrival_hours=float(i),
                lifetime_hours=48.0,
                cores=16,
                memory_gb=64.0,
                generation=1 + i % 3,
                app_name="Redis",
            )
            for i in range(12)
        ]
        trace = VmTrace(
            name="gen1-adopts",
            params=TraceParams(duration_days=2),
            vms=tuple(vms),
        )
        sizing = size_generation_aware(
            trace,
            baselines,
            greensku_full(),
            lambda app, gen: 1.0 if gen == 1 else None,
        )
        assert sizing.reference_by_gen[1] >= 1
        assert sizing.mixed_baselines_by_gen[1] == 0
        assert sizing.mixed_baselines_by_gen[2] >= 1
        assert sizing.mixed_baselines_by_gen[3] >= 1
        assert sizing.mixed_green_servers >= 1


#: (arrival h, lifetime h, cores, memory GB, generation) of a trace whose
#: Gen-3 VMs all adopt, so only Gen 1 and Gen 2 keep pools and a Gen-3
#: fallback picks between their shapes.
CROSSING_ROWS = (
    (0.0, 9.0, 40, 330.0, 3),
    (1.0, 7.0, 32, 150.0, 1),
    (2.0, 2.0, 40, 200.0, 3),
    (3.0, 7.0, 32, 30.0, 3),
    (5.0, 10.0, 24, 140.0, 1),
    (6.0, 11.0, 32, 50.0, 1),
    (9.0, 2.0, 64, 130.0, 1),
    (10.0, 9.0, 40, 110.0, 3),
    (10.0, 8.0, 42, 20.0, 1),
    (12.0, 4.0, 64, 220.0, 3),
    (13.0, 10.0, 40, 90.0, 3),
    (14.0, 1.0, 48, 130.0, 3),
    (15.0, 10.0, 56, 30.0, 2),
)


def crossing_trace():
    return VmTrace(
        name="crossing",
        params=TraceParams(duration_days=1),
        vms=tuple(
            VmRequest(
                vm_id=i,
                arrival_hours=arrival,
                lifetime_hours=lifetime,
                cores=cores,
                memory_gb=memory_gb,
                generation=gen,
                app_name="Redis",
            )
            for i, (arrival, lifetime, cores, memory_gb, gen) in enumerate(
                CROSSING_ROWS
            )
        ),
    )


def gen3_adopts(app, gen):
    return 1.15 if gen == 3 else None


class TestFallbackAcrossPoolShapes:
    def test_probes_find_the_smaller_pool(self, baselines):
        # Beside one GreenSKU a Gen-3 fallback opens a fourth Gen-1
        # server, the smallest empty shape.  With three it takes the
        # empty Gen-2 server and the trace still fits, so the high-water
        # need of four is not the fewest and the probes trim to three.
        trace = crossing_trace()
        sizing = size_generation_aware(
            trace, baselines, greensku_full(), gen3_adopts
        )
        assert sizing == oracle.size_generation_aware(
            trace, baselines, greensku_full(), gen3_adopts
        )
        assert sizing.mixed_baselines_by_gen == {1: 3, 2: 1, 3: 0}
        assert sizing.mixed_green_servers == 1
        spec = ClusterSpec.of(
            (baselines[1], 3), (baselines[2], 1), (greensku_full(), 1)
        )
        assert simulate(trace, spec, adoption=gen3_adopts).feasible


class TestSearchEfficiency:
    def test_generation_aware_sizing_never_resimulates(
        self, trace, baselines, gsf, simulate_counter
    ):
        policy = gsf.adoption_model(greensku_full()).policy()
        with telemetry.capture() as tel:
            size_generation_aware(trace, baselines, greensku_full(), policy)
        counters = tel.counters
        assert max(simulate_counter.values()) == 1
        assert counters["sizing.simulate_calls"] == sum(
            simulate_counter.values()
        )
        # Right-sizes: each generation's sub-trace and rest partition,
        # and the adopters.  Trim probes: the full trace against the
        # generations' pools and the GreenSKUs, the pools probed at more
        # than one size.
        probes = [
            skus for name, skus in simulate_counter if name == trace.name
        ]
        right_sizes = counters["sizing.searches"]
        assert right_sizes == 7
        assert len({skus[:-1] for skus in probes}) > 1
        assert counters["sizing.simulate_calls"] == right_sizes + len(probes)


class TestGenerationAwareEvaluation:
    def test_positive_savings(self, gsf, trace):
        ev = gsf.evaluate_generation_aware(greensku_full(), trace)
        assert ev.cluster_savings > 0

    def test_emissions_consistent(self, gsf, trace):
        ev = gsf.evaluate_generation_aware(greensku_full(), trace)
        assert ev.mixed_kg < ev.reference_kg
        assert ev.cluster_savings == pytest.approx(
            1 - ev.mixed_kg / ev.reference_kg
        )

    def test_comparable_to_default_mode(self, gsf, trace):
        """The two accounting modes agree within a few points — the
        Gen3-only reference is not a major distortion for this fleet."""
        aware = gsf.evaluate_generation_aware(greensku_full(), trace)
        default = gsf.evaluate(greensku_full(), trace)
        assert abs(
            aware.cluster_savings - default.cluster_savings
        ) < 0.08
