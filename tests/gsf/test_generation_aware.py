"""Generation-aware sizing and evaluation tests."""

import pytest

from repro.allocation.cluster import ClusterSpec, adopt_nothing, simulate
from repro.allocation.traces import TraceParams, generate_trace
from repro.core.errors import ConfigError
from repro.gsf.framework import Gsf
from repro.gsf.sizing import size_generation_aware
from repro.hardware.sku import (
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_full,
)


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
