"""Pond-style tiering tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.hardware.sku import paper_skus
from repro.perf.apps import APP_BY_NAME, APPLICATIONS, get_app
from repro.perf.pond import (
    DEFAULT_PREDICTION_MARGIN,
    MITIGATED_SLOWDOWN_BOUND,
    TieringPlan,
    cxl_share,
    mitigated_share,
    plan_tiering,
    predicted_untouched_fraction,
)


class TestPredictor:
    def test_half_touched_with_margin(self):
        assert predicted_untouched_fraction(0.5, margin=0.1) == pytest.approx(
            0.4
        )

    def test_fully_touched_vm(self):
        assert predicted_untouched_fraction(1.0) == 0.0

    def test_never_negative(self):
        assert predicted_untouched_fraction(0.95, margin=0.1) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            predicted_untouched_fraction(1.5)

    @given(st.floats(min_value=0, max_value=1))
    def test_bounded(self, frac):
        u = predicted_untouched_fraction(frac)
        assert 0 <= u <= 1


class TestTolerantApps:
    def test_fully_cxl_backed(self):
        plan = plan_tiering(get_app("Redis"), 32.0, 0.5)
        assert plan.fully_cxl_backed
        assert plan.cxl_gb == 32.0
        assert plan.effective_slowdown == 1.0

    def test_cxl_fraction(self):
        plan = plan_tiering(get_app("Img-DNN"), 64.0, 0.3)
        assert plan.cxl_fraction == 1.0


class TestMitigatedApps:
    def test_untouched_memory_on_cxl(self):
        # Pond: untouched memory is almost half of a VM's allocation.
        plan = plan_tiering(get_app("Moses"), 40.0, max_memory_fraction=0.5)
        assert not plan.fully_cxl_backed
        assert plan.cxl_gb > 0
        assert plan.local_gb + plan.cxl_gb == pytest.approx(40.0)

    def test_capped_by_server_cxl_fraction(self):
        plan = plan_tiering(
            get_app("Moses"), 40.0, 0.1, server_cxl_fraction=0.25
        )
        assert plan.cxl_fraction <= 0.25 + 1e-9

    def test_mitigated_slowdown_small(self):
        # The whole point: CXL off the critical path.
        plan = plan_tiering(get_app("Moses"), 40.0, 0.5)
        assert plan.effective_slowdown < get_app("Moses").cxl_slowdown
        assert plan.effective_slowdown <= MITIGATED_SLOWDOWN_BOUND

    def test_hot_vm_gets_no_cxl(self):
        plan = plan_tiering(get_app("Moses"), 40.0, max_memory_fraction=1.0)
        assert plan.cxl_gb == 0.0
        assert plan.effective_slowdown == 1.0

    def test_invalid_memory(self):
        with pytest.raises(ConfigError):
            plan_tiering(get_app("Moses"), 0.0, 0.5)


class TestPaperClaim:
    def test_98pct_within_5pct_slowdown(self):
        # "98% of applications incur <5% slowdown with CXL."
        share = mitigated_share(APPLICATIONS)
        assert share >= 0.95

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_all_plans_valid_under_any_footprint(self, frac):
        for app_name in ("Moses", "Redis", "Silo"):
            plan = plan_tiering(get_app(app_name), 32.0, frac)
            assert plan.local_gb + plan.cxl_gb == pytest.approx(32.0)
            assert plan.effective_slowdown >= 1.0


class TestPlanValidation:
    def test_inconsistent_tiers_rejected(self):
        with pytest.raises(ConfigError):
            TieringPlan(
                vm_memory_gb=10.0,
                local_gb=4.0,
                cxl_gb=4.0,
                fully_cxl_backed=False,
                effective_slowdown=1.0,
            )

    def test_negative_tier_rejected(self):
        with pytest.raises(ConfigError):
            TieringPlan(
                vm_memory_gb=10.0,
                local_gb=-1.0,
                cxl_gb=11.0,
                fully_cxl_backed=False,
                effective_slowdown=1.0,
            )


class TestCxlShare:
    """The allocation replay's CXL share is the planner's split, exactly."""

    #: Memory fractions: both ends, and 0.9, where ``1 - 0.9 - margin``
    #: is a tiny negative float the predictor clamps to exactly 0.
    MAX_MEMORY_FRACTIONS = (0.0, 0.05, 0.3, 0.5, 0.55, 0.75, 0.9, 0.95, 1.0)
    VM_MEMORY_GB = (0.75, 3.5, 32.0, 112.3, 768.0)

    @pytest.mark.parametrize("app_name", sorted(APP_BY_NAME))
    def test_share_times_memory_is_plan_cxl_gb(self, app_name):
        assert predicted_untouched_fraction(0.9) == 0.0
        app = APP_BY_NAME[app_name]
        server_fractions = sorted(
            {sku.cxl_fraction for sku in paper_skus().values()} | {0.0, 1.0}
        )
        assert 0.25 in server_fractions
        for server_fraction in server_fractions:
            for frac in self.MAX_MEMORY_FRACTIONS:
                share = cxl_share(app, frac, server_fraction)
                untouched = 1.0 - frac - DEFAULT_PREDICTION_MARGIN
                assert share == (
                    1.0
                    if app.cxl_tolerant
                    else min(max(0.0, untouched), server_fraction)
                )
                for memory_gb in self.VM_MEMORY_GB:
                    plan = plan_tiering(
                        app,
                        memory_gb,
                        frac,
                        server_cxl_fraction=server_fraction,
                    )
                    assert (memory_gb * share).hex() == plan.cxl_gb.hex(), (
                        server_fraction,
                        frac,
                        memory_gb,
                    )
