"""End-to-end GSF framework tests."""

import pytest

from repro.catalog.results import payload_digest
from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.gsf.framework import Gsf, GsfConfig
from repro.hardware.datacenter import DataCenterConfig
from repro.hardware.sku import (
    all_greenskus,
    greensku_efficient,
    greensku_full,
)


@pytest.fixture(scope="module")
def evaluation(gsf, full_sku, medium_trace):
    return gsf.evaluate(full_sku, medium_trace)


class TestEvaluation:
    def test_positive_cluster_savings(self, evaluation):
        # Fig. 11: GreenSKU clusters save carbon vs all-baseline clusters.
        assert evaluation.cluster_savings > 0

    def test_dc_savings_scaled_by_compute_share(self, gsf, evaluation):
        assert gsf.dc_savings(evaluation) == pytest.approx(
            evaluation.cluster_savings * 0.5
        )

    def test_mixed_deploys_greens(self, evaluation):
        assert evaluation.sizing.mixed_green_servers > 0

    def test_reference_is_all_baseline(self, evaluation):
        assert evaluation.reference.green_servers == 0
        assert evaluation.reference.green_kg == 0

    def test_emissions_consistent_with_servers(self, evaluation):
        ref = evaluation.reference
        per_server = evaluation.baseline_assessment.per_server_total_kg
        assert ref.baseline_kg == pytest.approx(
            ref.baseline_servers * per_server
        )

    def test_buffer_is_baseline_only(self, evaluation):
        assert evaluation.buffer.green_buffer_servers == 0
        assert evaluation.buffer.baseline_buffer_servers > 0

    def test_oos_overheads_positive(self, evaluation):
        assert evaluation.sizing.oos_overhead_baseline > 0
        assert evaluation.sizing.oos_overhead_green > 0
        # GreenSKU-Full has a higher repair rate (3.6 vs 3.0).
        assert (
            evaluation.sizing.oos_overhead_green
            > evaluation.sizing.oos_overhead_baseline
        )

    def test_adopted_share_reported(self, evaluation):
        assert 0.5 < evaluation.adopted_core_hour_share < 1.0

    def test_sizing_reuse(self, gsf, full_sku, medium_trace, evaluation):
        again = gsf.evaluate(full_sku, medium_trace,
                             sizing=evaluation.sizing)
        assert again.cluster_savings == pytest.approx(
            evaluation.cluster_savings
        )


class TestStageSpans:
    def test_captured_evaluate_spans_every_stage(
        self, gsf, full_sku, small_trace
    ):
        plain = gsf.evaluate(full_sku, small_trace).to_payload()
        with telemetry.capture() as tel:
            captured = gsf.evaluate(full_sku, small_trace).to_payload()
        stages = [node["name"] for node in tel.manifest()["spans"]]
        assert sorted(stages) == [
            "gsf.adoption",
            "gsf.buffer",
            "gsf.carbon",
            "gsf.maintenance",
            "gsf.sizing",
        ]
        assert tel.counters["sizing.searches"] == 3
        assert payload_digest(captured) == payload_digest(plain)


class TestMaintenanceHook:
    def test_oos_fraction_matches_reliability_model(self, gsf, full_sku):
        from repro.reliability.afr import server_afr
        from repro.reliability.maintenance import out_of_service_fraction

        expected = out_of_service_fraction(
            server_afr(full_sku).repair_rate(gsf.config.fip_effectiveness),
            gsf.config.repair_time_days,
        )
        assert gsf.oos_fraction(full_sku) == pytest.approx(expected)


class TestIntensitySweep:
    @pytest.fixture(scope="class")
    def sweep(self, gsf, medium_trace):
        return gsf.intensity_sweep(
            medium_trace, [0.0, 0.1, 0.3], greenskus=all_greenskus()
        )

    def test_point_per_intensity(self, sweep):
        assert [p.carbon_intensity for p in sweep] == [0.0, 0.1, 0.3]

    def test_all_skus_present(self, sweep):
        for point in sweep:
            assert set(point.savings_by_sku) == {
                "GreenSKU-Efficient",
                "GreenSKU-CXL",
                "GreenSKU-Full",
            }

    def test_full_wins_on_clean_grid(self, sweep):
        # Fig. 11: reuse-heavy designs win where embodied dominates.
        assert sweep[0].best_sku()[0] == "GreenSKU-Full"

    def test_full_advantage_shrinks_with_ci(self, sweep):
        full = [p.savings_by_sku["GreenSKU-Full"] for p in sweep]
        assert full[0] > full[-1]

    def test_efficient_catches_up_at_high_ci(self, sweep):
        gap_clean = (
            sweep[0].savings_by_sku["GreenSKU-Full"]
            - sweep[0].savings_by_sku["GreenSKU-Efficient"]
        )
        gap_dirty = (
            sweep[-1].savings_by_sku["GreenSKU-Full"]
            - sweep[-1].savings_by_sku["GreenSKU-Efficient"]
        )
        assert gap_dirty < gap_clean


class TestConfigPlumbing:
    def test_at_intensity_copies_config(self, gsf):
        other = gsf.at_intensity(0.3)
        assert other.config.datacenter.carbon_intensity_kg_per_kwh == 0.3
        assert gsf.config.datacenter.carbon_intensity_kg_per_kwh == 0.1

    def test_custom_config(self):
        config = GsfConfig(
            datacenter=DataCenterConfig(pue=1.3), buffer_fraction=0.2
        )
        gsf = Gsf(config)
        assert gsf.carbon_model.datacenter.pue == 1.3

    def test_nan_repair_time_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            GsfConfig(repair_time_days=float("nan"))

    def test_nan_intensity_rejected(self, gsf):
        with pytest.raises(ConfigError, match="finite"):
            gsf.at_intensity(float("nan"))
