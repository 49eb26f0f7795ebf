"""Growth buffer tests."""

import pytest

from repro.core.errors import ConfigError
from repro.gsf.buffer import (
    BufferPlan,
    baseline_only_buffer,
    proportional_dual_buffer,
)


class TestBaselineOnlyBuffer:
    def test_sizing(self):
        # 15% of 800 cores = 120 cores = 2 baseline servers (ceil 1.5).
        plan = baseline_only_buffer(800, 80, buffer_fraction=0.15)
        assert plan.baseline_buffer_servers == 2
        assert plan.green_buffer_servers == 0

    def test_ceil_behaviour(self):
        plan = baseline_only_buffer(81, 80, buffer_fraction=1e-6)
        assert plan.baseline_buffer_servers == 1

    def test_zero_capacity(self):
        assert baseline_only_buffer(0, 80).total == 0

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            baseline_only_buffer(100, 80, buffer_fraction=1.0)

    def test_invalid_cores_per_server(self):
        with pytest.raises(ConfigError):
            baseline_only_buffer(100, 0)

    def test_negative_capacity(self):
        with pytest.raises(ConfigError):
            baseline_only_buffer(-1, 80)

    @pytest.mark.parametrize(
        "args",
        [
            (float("nan"), 80),
            (float("inf"), 80),
            (100, float("nan")),
            (100, 80, float("nan")),
        ],
    )
    def test_non_finite_inputs_rejected(self, args):
        with pytest.raises(ConfigError):
            baseline_only_buffer(*args)


class TestDualBuffer:
    def test_per_pool_sizing(self):
        plan = proportional_dual_buffer(800, 1280, 80, 128,
                                        buffer_fraction=0.10)
        assert plan.baseline_buffer_servers == 1
        assert plan.green_buffer_servers == 1

    def test_total(self):
        plan = BufferPlan(baseline_buffer_servers=3, green_buffer_servers=2)
        assert plan.total == 5

    def test_dual_buffer_validation(self):
        with pytest.raises(ConfigError):
            proportional_dual_buffer(-1, 0, 80, 128)

    @pytest.mark.parametrize(
        "args",
        [
            (float("nan"), 0, 80, 128),
            (0, float("nan"), 80, 128),
            (800, 1280, float("inf"), 128),
            (800, 1280, 80, float("nan")),
            (800, 1280, 80, 128, float("nan")),
        ],
    )
    def test_dual_buffer_non_finite_inputs_rejected(self, args):
        with pytest.raises(ConfigError):
            proportional_dual_buffer(*args)


class TestPolicyComparison:
    def test_single_buffer_uses_more_baseline(self):
        # The paper's workaround keeps the whole buffer on (carbon-
        # inefficient) baseline SKUs.
        single = baseline_only_buffer(2080, 80, 0.15)
        dual = proportional_dual_buffer(800, 1280, 80, 128, 0.15)
        assert single.baseline_buffer_servers > dual.baseline_buffer_servers
        assert single.green_buffer_servers == 0
