"""TCO model tests (Section VII-A)."""

import pytest

from repro.analysis.tco import CostData, TcoModel, cost_efficient_sku
from repro.core.errors import ConfigError
from repro.hardware.sku import (
    baseline_gen3,
    greensku_cxl,
    greensku_efficient,
    greensku_full,
)


@pytest.fixture(scope="module")
def tco():
    return TcoModel()


class TestAssessment:
    def test_capex_positive(self, tco):
        assert tco.assess(baseline_gen3()).capex_usd > 0

    def test_total_is_capex_plus_opex(self, tco):
        a = tco.assess(greensku_full())
        assert a.total_usd == pytest.approx(a.capex_usd + a.opex_usd)

    def test_per_core(self, tco):
        a = tco.assess(baseline_gen3())
        assert a.usd_per_core == pytest.approx(a.total_usd / 80)

    def test_reuse_discount_applied(self, tco):
        # GreenSKU-Full's reused memory/SSDs cost less than new parts of
        # the same capacity would.
        full_price = tco.assess(greensku_full()).capex_usd
        all_new = TcoModel(CostData(reused_part_discount=1.0))
        assert all_new.assess(greensku_full()).capex_usd > full_price

    def test_more_power_more_opex(self, tco):
        # GreenSKU-Full draws more power than GreenSKU-CXL (reused SSDs).
        assert (
            tco.assess(greensku_full()).opex_usd
            > tco.assess(greensku_cxl()).opex_usd
        )


class TestPaperInsight:
    def test_cost_efficient_about_5pct_cheaper(self, tco):
        # Section VII-A: "a cost-efficient server SKU is only 5% less
        # costly compared to our carbon-efficient GreenSKU."
        delta = tco.per_core_delta(cost_efficient_sku(), greensku_full())
        assert 0.02 <= delta <= 0.08

    def test_greensku_cheaper_per_core_than_baseline(self, tco):
        # More cores per server amortize platform costs.
        assert (
            tco.assess(greensku_efficient()).usd_per_core
            < tco.assess(baseline_gen3()).usd_per_core
        )

    def test_cost_efficient_sku_has_no_reuse(self):
        sku = cost_efficient_sku()
        assert all(not spec.reused for spec, _ in sku.iter_parts())
        assert sku.cxl_memory_gb == 0


class TestValidation:
    def test_discount_bounds(self):
        with pytest.raises(ConfigError):
            CostData(reused_part_discount=1.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cpu_usd_per_core", float("nan")),
            ("dram_usd_per_gb", float("inf")),
            ("electricity_usd_per_kwh", -1.0),
            ("maintenance_usd_per_repair", float("nan")),
            ("reused_part_discount", float("nan")),
        ],
    )
    def test_non_finite_or_negative_cost_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CostData(**{field: value})

    def test_free_parts_accepted(self):
        assert CostData(nic_usd=0.0, reused_part_discount=0.0).nic_usd == 0
