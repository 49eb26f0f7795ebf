"""Data-center-level parameters and Azure-like regions.

The carbon model needs a handful of facility-scale inputs: the server
lifetime over which operational emissions accrue, the grid carbon intensity,
PUE (cooling and power-distribution overhead on IT power), and the embodied
carbon of the building and non-IT equipment amortized over the compute
racks.  The paper evaluates across a spectrum of carbon intensities and
annotates three Azure regions (Fig. 11 / Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..core.checks import check_finite
from ..core.errors import ConfigError


@dataclass(frozen=True)
class DataCenterConfig:
    """Facility parameters for the carbon model.

    Attributes:
        lifetime_years: Server deployment lifetime (Table VI: 6 years,
            i.e. 52,560 hours).
        carbon_intensity_kg_per_kwh: Grid carbon intensity of consumed
            energy (Table VI: 0.1 kgCO2e/kWh averaged across major Azure
            regions).
        pue: Power usage effectiveness; multiplies IT power to account for
            cooling and power distribution.  Calibrated at 1.18, a typical
            hyperscale value consistent with Fig. 1's small non-IT share.
        dc_embodied_per_rack_kg: Building and non-IT-equipment embodied
            carbon amortized per compute rack over the server lifetime.
            Not in the paper's open data; calibrated so the efficient
            SKU's denser racks yield Table VIII's 14% embodied savings for
            GreenSKU-Efficient (whose *server-level* embodied carbon is
            slightly higher than the baseline's).
        derate_factor: Fraction of component TDP drawn on average
            (Table VI: 0.44, the derating at 40% of max SPEC rate).
        compute_share_of_dc: Share of total data-center emissions caused
            by compute clusters; scales cluster savings to net DC savings
            (the artifact reports 14% cluster -> 7% DC, i.e. 0.5).
    """

    lifetime_years: float = 6.0
    carbon_intensity_kg_per_kwh: float = 0.1
    pue: float = 1.18
    dc_embodied_per_rack_kg: float = 8000.0
    derate_factor: float = 0.44
    compute_share_of_dc: float = 0.5

    def __post_init__(self) -> None:
        check_finite(self.lifetime_years, "lifetime (years)", above=0)
        check_finite(
            self.carbon_intensity_kg_per_kwh, "carbon intensity", at_least=0
        )
        check_finite(self.pue, "PUE", at_least=1.0)
        check_finite(
            self.dc_embodied_per_rack_kg, "DC embodied per rack", at_least=0
        )
        check_finite(self.derate_factor, "derate factor", above=0, at_most=1)
        check_finite(
            self.compute_share_of_dc, "compute share", above=0, at_most=1
        )

    def with_carbon_intensity(self, ci: float) -> "DataCenterConfig":
        """A copy of this config at a different grid carbon intensity."""
        return replace(self, carbon_intensity_kg_per_kwh=ci)

    def with_lifetime(self, years: float) -> "DataCenterConfig":
        """A copy of this config with a different server lifetime."""
        return replace(self, lifetime_years=years)

    @property
    def lifetime_hours(self) -> float:
        """Lifetime in hours (6 years = 52,560 h)."""
        return self.lifetime_years * 8760.0


def appendix_config() -> DataCenterConfig:
    """The exact parameterization of the Section V worked example.

    The worked example computes *raw* rack emissions with no PUE uplift and
    no data-center embodied overhead; this config reproduces its numbers
    (P_s = 403 W, E_r = 63,351 kgCO2e, ~31 kgCO2e/core).
    """
    return DataCenterConfig(
        lifetime_years=6.0,
        carbon_intensity_kg_per_kwh=0.1,
        pue=1.0,
        dc_embodied_per_rack_kg=0.0,
        derate_factor=0.44,
    )


#: Estimated grid carbon intensities (kgCO2e/kWh) for the three Azure
#: regions annotated on Fig. 11 / Fig. 12.  The paper does not publish the
#: exact values; these are ordered as the figure shows them — us-south
#: lowest (embodied-dominated, GreenSKU-Full wins), europe-north highest
#: (operational-dominated, GreenSKU-Efficient competitive).
AZURE_REGION_CI: Dict[str, float] = {
    "Azure-us-south": 0.04,
    "Azure-us-central": 0.10,
    "Azure-europe-north": 0.24,
}


def region_config(region: str) -> DataCenterConfig:
    """Default config at the named Azure region's carbon intensity."""
    try:
        ci = AZURE_REGION_CI[region]
    except KeyError:
        raise ConfigError(
            f"unknown region {region!r}; known: {sorted(AZURE_REGION_CI)}"
        ) from None
    return DataCenterConfig().with_carbon_intensity(ci)
