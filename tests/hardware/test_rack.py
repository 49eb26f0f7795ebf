"""Rack constraint tests, anchored on the Section V worked example."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import CarbonModelError, ConfigError
from repro.hardware.rack import RackConfig


class TestDefaults:
    def test_table_vi_values(self):
        rack = RackConfig()
        assert rack.space_capacity_u == 32  # 42U minus 10U overhead
        assert rack.power_capacity_watts == 15000.0
        assert rack.overhead_power_watts == 500.0
        assert rack.overhead_embodied_kg == 500.0


class TestServersPerRack:
    def test_paper_example_space_bound(self):
        # Section V: P_s = 403 W -> power allows 35, space allows 16.
        rack = RackConfig()
        assert rack.servers_per_rack(403.0, 2) == 16
        assert rack.is_space_bound(403.0, 2)

    def test_power_bound_case(self):
        rack = RackConfig()
        # A 1.5 kW server: power allows floor(14500/1500) = 9 < 16.
        assert rack.servers_per_rack(1500.0, 2) == 9
        assert not rack.is_space_bound(1500.0, 2)

    def test_power_bound_math(self):
        rack = RackConfig()
        assert rack.servers_per_rack(403.0, 32) == 1

    def test_nothing_fits_raises(self):
        rack = RackConfig()
        with pytest.raises(CarbonModelError):
            rack.servers_per_rack(20_000.0, 2)

    def test_zero_power_rejected(self):
        with pytest.raises(ConfigError):
            RackConfig().servers_per_rack(0.0, 2)

    @given(st.floats(min_value=50, max_value=5000))
    def test_never_exceeds_power_capacity(self, power):
        rack = RackConfig()
        n = rack.servers_per_rack(power, 2)
        assert n * power <= rack.power_capacity_watts - rack.overhead_power_watts or (
            n == rack.space_capacity_u // 2
        )

    @given(st.floats(min_value=50, max_value=5000))
    def test_never_exceeds_space(self, power):
        rack = RackConfig()
        assert rack.servers_per_rack(power, 2) <= 16


class TestRackPower:
    def test_paper_example(self):
        # Section V: P_r = 16 * 403.3 + 500 ~ 6953 W.
        rack = RackConfig()
        assert rack.rack_power_watts(403.3, 16) == pytest.approx(6952.8)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            RackConfig(power_capacity_watts=400.0, overhead_power_watts=500.0)

    def test_zero_space_rejected(self):
        with pytest.raises(ConfigError):
            RackConfig(space_capacity_u=0)

    @pytest.mark.parametrize(
        "field",
        (
            "space_capacity_u",
            "power_capacity_watts",
            "overhead_power_watts",
            "overhead_embodied_kg",
        ),
    )
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0))
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            RackConfig(**{field: value})
