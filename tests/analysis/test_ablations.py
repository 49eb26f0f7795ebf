"""Ablation study tests."""

import math

import pytest

from repro.analysis.ablations import (
    adoption_policy,
    adoption_rule_ablation,
    buffer_policy_ablation,
    cxl_fraction_sweep,
    fip_sweep,
    placement_policy_ablation,
)
from repro.allocation.cluster import ClusterSpec, simulate
from repro.carbon.grid import carbon_aware_policy, diurnal_signal
from repro.core import settings, telemetry
from repro.core.errors import ConfigError
from repro.core.faults import FaultPlan
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.gsf.framework import Gsf, GsfConfig
from repro.hardware.sku import baseline_gen3, greensku_full
from repro.perf.apps import APPLICATIONS


class TestPlacementAblation:
    @pytest.fixture(scope="class")
    def results(self, small_trace):
        return {
            r.policy: r for r in placement_policy_ablation(small_trace)
        }

    def test_three_policies(self, results):
        assert set(results) == {"best-fit", "first-fit", "worst-fit"}

    def test_best_fit_never_worse_than_worst_fit(self, results):
        assert (
            results["best-fit"].servers_needed
            <= results["worst-fit"].servers_needed
        )

    def test_density_ordering(self, results):
        assert (
            results["best-fit"].mean_core_density
            >= results["worst-fit"].mean_core_density
        )

    def test_retries_under_the_active_policy(self, small_trace, results):
        # The ablation's fan-out inherits the CLI's resilience flags.
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            faults=FaultPlan(kill_indices=(0,), kill_attempts=1),
        )
        with settings.using(policy=policy), telemetry.capture() as tel:
            rows = placement_policy_ablation(small_trace, jobs=2)
        assert rows == list(results.values())
        assert tel.counters["resilience.retries"] == 1

    def test_keep_going_drops_the_failed_policy(self, small_trace, results):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=0),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
            on_failure="record",
        )
        with settings.using(policy=policy), telemetry.capture() as tel:
            rows = placement_policy_ablation(small_trace, jobs=2)
        assert rows == [results["best-fit"], results["worst-fit"]]
        assert tel.counters["resilience.degraded_dropped"] == 1

    def test_unknown_policy_rejected(self, small_trace):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            simulate(
                small_trace,
                ClusterSpec.of((baseline_gen3(), 1)),
                policy="random-fit",
            )

    def test_unknown_policy_rejected_without_servers(self, small_trace):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            simulate(
                small_trace,
                ClusterSpec.of((baseline_gen3(), 0)),
                policy="random-fit",
                placement=carbon_aware_policy(diurnal_signal()),
            )


class TestFipSweep:
    def test_paper_point(self):
        results = {r.effectiveness: r for r in fip_sweep()}
        assert results[0.75].baseline_repair_rate == pytest.approx(3.0)
        assert results[0.75].greensku_repair_rate == pytest.approx(3.6)

    def test_overhead_shrinks_with_effectiveness(self):
        results = fip_sweep()
        overheads = [r.greensku_overhead for r in results]
        assert overheads == sorted(overheads, reverse=True)

    def test_perfect_fip_equalizes(self):
        perfect = fip_sweep(effectiveness_levels=[1.0])[0]
        assert perfect.greensku_overhead == pytest.approx(0.0)


class TestAdoptionAblation:
    @pytest.fixture(scope="class")
    def results(self, small_trace):
        return {r.rule: r for r in adoption_rule_ablation(small_trace)}

    def test_three_rules(self, results):
        assert set(results) == {"carbon-aware", "performance-only", "always"}

    def test_carbon_aware_positive(self, results):
        assert results["carbon-aware"].cluster_savings > 0

    def test_always_uses_most_greens(self, results):
        assert (
            results["always"].green_servers
            >= results["carbon-aware"].green_servers
        )

    def test_carbon_aware_at_least_performance_only(self, results):
        # Dropping carbon-negative adopters can only help savings.
        assert (
            results["carbon-aware"].cluster_savings
            >= results["performance-only"].cluster_savings - 1e-9
        )


class TestPerformanceOnlyRule:
    @pytest.mark.parametrize("cxl_scaling", [False, True])
    def test_rule_reads_the_models_factors(self, cxl_scaling):
        # The rule adopts wherever the performance component, under the
        # config's CXL setting, meets the SLO, at that component's factor.
        gsf = Gsf(GsfConfig(cxl_scaling=cxl_scaling))
        rule = adoption_policy("performance-only", gsf, greensku_full())
        model = gsf.adoption_model(greensku_full())
        for app in APPLICATIONS:
            for gen in (1, 2, 3):
                factor = model.decide(app.name, gen).scaling_factor
                expected = factor if math.isfinite(factor) else None
                assert rule(app.name, gen) == expected, (app.name, gen)


class TestBufferAblation:
    def test_single_buffer_costs_more(self):
        single, dual = buffer_policy_ablation(20, 20)
        assert single.buffer_carbon_kg >= dual.buffer_carbon_kg

    def test_single_buffer_is_baseline_only(self):
        single, _dual = buffer_policy_ablation(20, 20)
        assert single.green_buffer_servers == 0


class TestCxlSweep:
    def test_savings_grow_with_reuse(self):
        results = cxl_fraction_sweep()
        savings = [r.savings_vs_baseline for r in results]
        assert savings == sorted(savings)

    def test_greensku_cxl_point(self):
        # 8 DIMMs = 25% of memory behind CXL, matching GreenSKU-CXL.
        point = next(r for r in cxl_fraction_sweep() if r.cxl_dimms == 8)
        assert point.cxl_fraction == pytest.approx(0.25)

    def test_odd_dimm_count_rejected(self):
        with pytest.raises(ConfigError):
            cxl_fraction_sweep(dimm_counts=[3])
