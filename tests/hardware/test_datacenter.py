"""Data-center configuration tests."""

import pytest

from repro.core.errors import ConfigError
from repro.hardware.datacenter import (
    AZURE_REGION_CI,
    DataCenterConfig,
    appendix_config,
    region_config,
)


class TestDefaults:
    def test_table_vi_parameters(self):
        dc = DataCenterConfig()
        assert dc.lifetime_years == 6.0
        assert dc.carbon_intensity_kg_per_kwh == 0.1
        assert dc.derate_factor == 0.44

    def test_lifetime_hours(self):
        assert DataCenterConfig().lifetime_hours == 52_560.0

    def test_with_carbon_intensity(self):
        dc = DataCenterConfig().with_carbon_intensity(0.3)
        assert dc.carbon_intensity_kg_per_kwh == 0.3
        # Original unchanged (frozen dataclass).
        assert DataCenterConfig().carbon_intensity_kg_per_kwh == 0.1

    def test_with_lifetime(self):
        assert DataCenterConfig().with_lifetime(13).lifetime_years == 13


class TestValidation:
    def test_zero_lifetime_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(lifetime_years=0)

    def test_negative_ci_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(carbon_intensity_kg_per_kwh=-0.1)

    def test_pue_below_one_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(pue=0.9)

    def test_derate_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(derate_factor=1.5)

    def test_compute_share_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(compute_share_of_dc=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "lifetime_years",
            "carbon_intensity_kg_per_kwh",
            "pue",
            "dc_embodied_per_rack_kg",
        ],
    )
    def test_nan_rejected(self, field):
        # ``x <= 0`` / ``x < 0`` checks are false for NaN.
        with pytest.raises(ConfigError, match="finite"):
            DataCenterConfig(**{field: float("nan")})

    def test_negative_dc_embodied_rejected(self):
        with pytest.raises(ConfigError):
            DataCenterConfig(dc_embodied_per_rack_kg=-1)


class TestAppendixConfig:
    def test_no_pue_or_dc_overhead(self):
        # The worked example computes raw rack emissions.
        dc = appendix_config()
        assert dc.pue == 1.0
        assert dc.dc_embodied_per_rack_kg == 0.0


class TestRegions:
    def test_three_regions(self):
        assert len(AZURE_REGION_CI) == 3

    def test_region_ordering(self):
        # Fig. 11: us-south is the cleanest grid, europe-north dirtiest.
        assert (
            AZURE_REGION_CI["Azure-us-south"]
            < AZURE_REGION_CI["Azure-us-central"]
            < AZURE_REGION_CI["Azure-europe-north"]
        )

    def test_region_config(self):
        dc = region_config("Azure-us-south")
        assert dc.carbon_intensity_kg_per_kwh == AZURE_REGION_CI[
            "Azure-us-south"
        ]

    def test_unknown_region_rejected(self):
        with pytest.raises(ConfigError):
            region_config("Azure-moon-base")
