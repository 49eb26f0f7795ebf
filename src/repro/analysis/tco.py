"""Section VII-A: Total Cost of Ownership analysis.

GSF's structure is metric-agnostic: replacing the carbon model's
kgCO2e-per-part data with dollars-per-part yields a TCO model, which the
paper uses to find that a cost-efficient SKU is only ~5% cheaper than the
carbon-efficient GreenSKU.  Azure's real cost data is sensitive; the
defaults here are list-price-order estimates that reproduce the paper's
high-level conclusion (reused parts are nearly free, so carbon-efficient
designs are close to cost-efficient ones).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..core.checks import check_finite
from ..core.units import energy_kwh, years_to_hours
from ..hardware.components import Category, CpuSpec, DramSpec, SsdSpec
from ..hardware.datacenter import DataCenterConfig
from ..hardware.sku import ServerSKU


@dataclass(frozen=True)
class CostData:
    """Dollar-cost parameters for the TCO model.

    Attributes:
        cpu_usd_per_core: New CPU cost per core.
        dram_usd_per_gb: New DRAM cost per GB.
        ssd_usd_per_tb: New SSD cost per TB.
        cxl_controller_usd: Cost of one CXL controller card (controller
            silicon plus the carrier board holding four DIMMs).
        nic_usd / platform_usd: Platform part costs.
        reused_part_discount: Fraction of new cost charged for a reused
            part.  Calibrated at 0.65: salvage is cheap but
            requalification, harvest labor, adapters, and 3D-printed
            carriers are not — which is why reuse is a *carbon* win far
            more than a cost win, and why the cost-efficient SKU ends up
            only ~5% cheaper than the carbon-efficient GreenSKU
            (Section VII-A).
        electricity_usd_per_kwh: Energy price for opex.
        maintenance_usd_per_repair: Cost per repair action.
    """

    cpu_usd_per_core: float = 55.0
    dram_usd_per_gb: float = 4.0
    ssd_usd_per_tb: float = 90.0
    cxl_controller_usd: float = 700.0
    nic_usd: float = 350.0
    platform_usd: float = 1400.0
    reused_part_discount: float = 0.65
    electricity_usd_per_kwh: float = 0.08
    maintenance_usd_per_repair: float = 600.0

    def __post_init__(self) -> None:
        for item in fields(self):
            check_finite(getattr(self, item.name), item.name, at_least=0)
        check_finite(
            self.reused_part_discount, "reused_part_discount", at_most=1
        )


@dataclass(frozen=True)
class TcoAssessment:
    """Lifetime TCO of one server, split into capex and opex."""

    sku_name: str
    capex_usd: float
    opex_usd: float
    cores: int

    @property
    def total_usd(self) -> float:
        return self.capex_usd + self.opex_usd

    @property
    def usd_per_core(self) -> float:
        return self.total_usd / self.cores


class TcoModel:
    """Prices SKUs in dollars the way the carbon model prices them in CO2e."""

    def __init__(
        self,
        costs: Optional[CostData] = None,
        datacenter: Optional[DataCenterConfig] = None,
    ):
        self.costs = costs or CostData()
        self.datacenter = datacenter or DataCenterConfig()

    def part_capex(self, spec, count: int) -> float:
        """Purchase cost of ``count`` parts, honoring reuse discounts."""
        costs = self.costs
        if isinstance(spec, CpuSpec):
            unit = costs.cpu_usd_per_core * spec.cores
        elif isinstance(spec, DramSpec):
            unit = costs.dram_usd_per_gb * spec.capacity_gb
        elif isinstance(spec, SsdSpec):
            unit = costs.ssd_usd_per_tb * spec.capacity_tb
        elif spec.category == Category.CXL:
            unit = costs.cxl_controller_usd
        elif spec.category == Category.NIC:
            unit = costs.nic_usd
        else:
            unit = costs.platform_usd
        if spec.reused:
            unit *= costs.reused_part_discount
        return unit * count

    def assess(self, sku: ServerSKU) -> TcoAssessment:
        """Lifetime TCO of one server (capex + energy + repairs)."""
        dc = self.datacenter
        capex = sum(
            self.part_capex(spec, count) for spec, count in sku.iter_parts()
        )
        power = sum(
            spec.powered_watts(dc.derate_factor) * count
            for spec, count in sku.iter_parts()
        )
        energy = energy_kwh(
            power * dc.pue, years_to_hours(dc.lifetime_years)
        )
        opex = energy * self.costs.electricity_usd_per_kwh
        # Repairs over the lifetime, from the reliability model.
        from ..reliability.afr import server_afr

        repairs = (
            server_afr(sku).repair_rate() / 100.0 * dc.lifetime_years
        )
        opex += repairs * self.costs.maintenance_usd_per_repair
        return TcoAssessment(
            sku_name=sku.name,
            capex_usd=capex,
            opex_usd=opex,
            cores=sku.cores,
        )

    def per_core_delta(
        self, cost_efficient: ServerSKU, carbon_efficient: ServerSKU
    ) -> float:
        """How much cheaper per core the cost-efficient SKU is (fraction).

        The paper reports ~5%: the carbon-efficient GreenSKU's TCO is only
        slightly above the cost-optimal design's.
        """
        cheap = self.assess(cost_efficient).usd_per_core
        green = self.assess(carbon_efficient).usd_per_core
        return (green - cheap) / green


def cost_efficient_sku() -> ServerSKU:
    """The TCO-optimal design under the default cost data.

    All-new parts on the efficient CPU: no CXL carriers, adapters, or
    requalification — the configuration a purely cost-driven designer
    would pick for the same core count and memory:core ratio of 8.
    """
    from ..hardware import catalog
    from ..hardware.sku import _platform_parts

    return ServerSKU.build(
        "Cost-Efficient",
        [
            (catalog.BERGAMO, 1),
            (catalog.DDR5_64GB, 16),
            (catalog.SSD_4TB_NEW, 5),
        ]
        + _platform_parts(),
    )
