"""Synthetic DIMM failure-trace tests (Fig. 2 behaviour)."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.reliability.traces import (
    FailureTraceParams,
    expected_rate,
    moving_average,
    steady_state_slope,
    synthesize_failure_trace,
)


class TestExpectedRate:
    def test_starts_elevated(self):
        params = FailureTraceParams()
        rate = expected_rate(params, np.array([0]))
        assert rate[0] == pytest.approx(1 + params.infant_mortality)

    def test_decays_to_one(self):
        params = FailureTraceParams()
        rate = expected_rate(params, np.array([60]))
        assert rate[0] == pytest.approx(1.0, abs=0.01)

    def test_wearout_when_enabled(self):
        params = FailureTraceParams(
            wearout_onset_month=24, wearout_slope_per_month=0.05
        )
        rate = expected_rate(params, np.array([48]))
        assert rate[0] > 1.5


class TestSynthesis:
    def test_deterministic(self):
        m1, r1 = synthesize_failure_trace(seed=3)
        m2, r2 = synthesize_failure_trace(seed=3)
        np.testing.assert_array_equal(r1, r2)

    def test_84_months_default(self):
        months, rates = synthesize_failure_trace()
        assert len(months) == 84
        assert len(rates) == 84

    def test_all_positive(self):
        _, rates = synthesize_failure_trace(seed=9)
        assert (rates > 0).all()

    def test_noise_free_mode(self):
        params = FailureTraceParams(noise_cv=0.0)
        months, rates = synthesize_failure_trace(params)
        np.testing.assert_allclose(rates, expected_rate(params, months))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            FailureTraceParams(months=0)
        with pytest.raises(ConfigError):
            FailureTraceParams(infant_decay_months=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("wearout_slope_per_month", float("nan")),
            ("wearout_slope_per_month", float("inf")),
            ("wearout_slope_per_month", -0.01),
            ("infant_mortality", float("nan")),
            ("noise_cv", float("inf")),
            ("infant_decay_months", float("nan")),
        ],
    )
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FailureTraceParams(**{field: value})


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(np.ones(20), window=6)
        np.testing.assert_allclose(out, 1.0)

    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(moving_average(values, 1), values)

    def test_smooths_noise(self):
        _, rates = synthesize_failure_trace(seed=5)
        smoothed = moving_average(rates, window=6)
        assert smoothed[24:].std() < rates[24:].std()

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            moving_average(np.ones(5), 0)


class TestFlatness:
    def test_paper_claim_flat_after_infancy(self):
        # Fig. 2: failure rates stay constant over the 7-year window.
        months, rates = synthesize_failure_trace(seed=7)
        slope = steady_state_slope(months, rates)
        assert abs(slope) < 0.005

    def test_wearout_detected(self):
        params = FailureTraceParams(
            wearout_onset_month=30, wearout_slope_per_month=0.05
        )
        months, rates = synthesize_failure_trace(params, seed=7)
        assert steady_state_slope(months, rates) > 0.01

    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigError):
            steady_state_slope(np.array([0, 1]), np.array([1.0, 1.0]))
