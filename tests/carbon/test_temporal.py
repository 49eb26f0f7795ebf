"""Temporal carbon-aware scheduling tests."""

import numpy as np
import pytest

from repro.carbon.temporal import (
    BatchJob,
    diurnal_intensity_profile,
    job_emissions,
    schedule_batch,
    stacked_savings,
    synthetic_batch_workload,
)
from repro.core.errors import ConfigError


class TestProfile:
    def test_mean_preserved(self):
        profile = diurnal_intensity_profile(mean_ci=0.1)
        assert profile.mean() == pytest.approx(0.1, rel=1e-6)

    def test_midday_cleanest(self):
        profile = diurnal_intensity_profile()
        assert np.argmin(profile) == 13

    def test_invalid_swing(self):
        with pytest.raises(ConfigError):
            diurnal_intensity_profile(solar_swing=1.0)

    @pytest.mark.parametrize("mean_ci", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_mean_rejected(self, mean_ci):
        with pytest.raises(ConfigError, match="mean carbon intensity"):
            diurnal_intensity_profile(mean_ci=mean_ci)

    def test_zero_mean_is_a_flat_zero_profile(self):
        assert not diurnal_intensity_profile(mean_ci=0.0).any()


class TestBatchJob:
    def test_impossible_deadline_rejected(self):
        with pytest.raises(ConfigError):
            BatchJob(1, submit_hour=0, duration_hours=5, deadline_hour=3,
                     power_kw=1.0)

    @pytest.mark.parametrize(
        "power_kw", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_non_finite_or_non_positive_power_rejected(self, power_kw):
        with pytest.raises(ConfigError, match="job 1: power"):
            BatchJob(1, 0, 3, 10, power_kw=power_kw)

    def test_emissions_sum_over_hours(self):
        profile = [0.1] * 24
        job = BatchJob(1, 0, 3, 10, power_kw=2.0)
        assert job_emissions(job, 0, profile) == pytest.approx(0.6)

    def test_start_before_submit_rejected(self):
        job = BatchJob(1, 5, 2, 10, power_kw=1.0)
        with pytest.raises(ConfigError):
            job_emissions(job, 4, [0.1] * 24)

    def test_start_missing_deadline_rejected(self):
        job = BatchJob(1, 0, 3, 5, power_kw=1.0)
        with pytest.raises(ConfigError):
            job_emissions(job, 4, [0.1] * 24)


class TestScheduler:
    def test_shifting_never_hurts(self):
        result = schedule_batch(synthetic_batch_workload())
        assert result.shifted_kg <= result.immediate_kg
        assert result.savings_fraction >= 0

    def test_shifting_saves_with_solar_swing(self):
        result = schedule_batch(synthetic_batch_workload(jobs=60))
        assert result.savings_fraction > 0.05

    def test_flat_grid_saves_nothing(self):
        profile = [0.1] * 24
        result = schedule_batch(synthetic_batch_workload(), profile=profile)
        assert result.savings_fraction == pytest.approx(0.0)

    def test_deadlines_respected(self):
        result = schedule_batch(synthetic_batch_workload())
        for s in result.shifted:
            assert s.start_hour >= s.job.submit_hour
            assert (
                s.start_hour + s.job.duration_hours <= s.job.deadline_hour
            )

    def test_zero_slack_job_cannot_move(self):
        job = BatchJob(1, 10, 4, 14, power_kw=1.0)
        result = schedule_batch([job])
        assert result.shifted[0].start_hour == 10


class TestStacking:
    def test_complements_not_substitutes(self):
        # Stacking adds to the GreenSKU's savings but far less than the
        # naive sum: temporal shifting only touches flexible op carbon.
        combined = stacked_savings(
            greensku_per_core_savings=0.26,
            batch_operational_share=0.05,
            temporal_savings_on_batch=0.25,
        )
        assert 0.26 < combined < 0.28

    def test_zero_greensku_leaves_temporal_only(self):
        combined = stacked_savings(0.0, 1.0, 0.3, operational_share=0.5)
        assert combined == pytest.approx(0.15)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            stacked_savings(1.5, 0.1, 0.1)


class TestSchedulerBoundaries:
    def test_job_longer_than_profile_wraps(self):
        # A 30 h job against a 24 h profile: emissions wrap modulo the
        # period and the scheduler still respects the (tight) window.
        job = BatchJob(1, 0, 30, 30, power_kw=1.0)
        profile = diurnal_intensity_profile()
        assert job_emissions(job, 0, profile) == pytest.approx(
            sum(profile[h % 24] for h in range(30))
        )
        result = schedule_batch([job], profile=profile)
        assert result.shifted[0].start_hour == 0

    def test_job_longer_than_horizon_with_slack_still_schedules(self):
        # Duration exceeds one period *and* the job has slack: every
        # candidate start stays within [submit, deadline - duration].
        job = BatchJob(1, 0, 26, 60, power_kw=1.0)
        result = schedule_batch([job])
        s = result.shifted[0]
        assert 0 <= s.start_hour <= 60 - 26
        assert result.shifted_kg <= result.immediate_kg

    def test_zero_length_job_rejected(self):
        with pytest.raises(ConfigError, match="duration must be > 0"):
            BatchJob(1, 0, 0, 5, power_kw=1.0)
        with pytest.raises(ConfigError, match="duration must be > 0"):
            BatchJob(1, 0, -2, 5, power_kw=1.0)

    def test_flat_profile_tie_picks_earliest_start(self):
        # Every start is equal-emission on a flat grid; the scheduler's
        # min() must break ties toward the earliest feasible hour.
        job = BatchJob(1, 2, 3, 20, power_kw=1.0)
        result = schedule_batch([job], profile=[0.1] * 24)
        assert result.shifted[0].start_hour == 2

    def test_equal_intensity_trough_tie_is_deterministic(self):
        # Two identical minima -> the earlier one wins, every run.
        profile = [0.3] * 24
        profile[5] = profile[11] = 0.1
        job = BatchJob(1, 0, 1, 24, power_kw=1.0)
        result = schedule_batch([job], profile=profile)
        assert result.shifted[0].start_hour == 5
