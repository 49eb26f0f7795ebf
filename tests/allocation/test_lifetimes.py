"""Lifetime-aware placement tests."""

import pytest

from repro.allocation.lifetimes import (
    DEFAULT_LONG_LIVED_THRESHOLD_HOURS,
    LifetimePredictor,
    _long_lived_mask,
    segregation_study,
    stranded_capacity_fraction,
)
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core.errors import ConfigError


def make_vm(vm_id, lifetime, cores=8, arrival=0.0):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=arrival,
        lifetime_hours=lifetime,
        cores=cores,
        memory_gb=cores * 4.0,
        generation=3,
        app_name="Redis",
    )


class TestPredictor:
    def test_perfect_oracle(self):
        predictor = LifetimePredictor(accuracy=1.0)
        long_vm = make_vm(1, lifetime=1000.0)
        short_vm = make_vm(2, lifetime=2.0)
        assert predictor.predict_long_lived(long_vm)
        assert not predictor.predict_long_lived(short_vm)

    def test_deterministic_per_vm(self):
        predictor = LifetimePredictor(accuracy=0.7)
        vm = make_vm(5, lifetime=1000.0)
        assert predictor.predict_long_lived(vm) == predictor.predict_long_lived(vm)

    def test_noisy_oracle_errs_sometimes(self):
        predictor = LifetimePredictor(accuracy=0.6, seed=3)
        long_vms = [make_vm(i, lifetime=1000.0) for i in range(200)]
        predictions = [predictor.predict_long_lived(vm) for vm in long_vms]
        accuracy = sum(predictions) / len(predictions)
        assert 0.45 <= accuracy <= 0.75

    @pytest.mark.parametrize("accuracy", (0.6, 0.9, 1.0))
    def test_column_mask_matches_row_predictions(self, accuracy):
        trace = generate_trace(
            seed=29,
            params=TraceParams(duration_days=10, mean_concurrent_vms=40),
        )
        predictor = LifetimePredictor(accuracy=accuracy, seed=5)
        expected = [predictor.predict_long_lived(vm) for vm in trace.vms]
        mask = _long_lived_mask(trace, predictor)
        assert mask.dtype == bool
        assert mask.tolist() == expected
        assert 0 < mask.sum() < trace.vm_count

    def test_invalid_accuracy(self):
        with pytest.raises(ConfigError):
            LifetimePredictor(accuracy=0.3)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            LifetimePredictor(threshold_hours=0)


class TestSegregation:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(
            seed=31,
            params=TraceParams(duration_days=5, mean_concurrent_vms=100),
        )

    def test_outcome_consistency(self, trace):
        outcome = segregation_study(trace)
        assert (
            outcome.segregated_servers
            == outcome.anchor_servers + outcome.churn_servers
        )
        assert outcome.interleaved_servers > 0

    def test_segregation_within_one_pool_peak(self, trace):
        # Splitting pays at most each pool's own peak; it never needs
        # more than double the interleaved size in practice.
        outcome = segregation_study(trace)
        assert (
            outcome.segregated_servers
            <= 2 * outcome.interleaved_servers
        )


class TestStrandedCapacity:
    def test_fraction_bounded(self):
        trace = generate_trace(
            seed=33,
            params=TraceParams(duration_days=4, mean_concurrent_vms=80),
        )
        fraction = stranded_capacity_fraction(trace)
        assert 0.0 <= fraction <= 1.0

    def test_pure_short_lived_strands_nothing(self):
        vms = tuple(
            make_vm(i, lifetime=1.0, arrival=float(i) * 0.1)
            for i in range(30)
        )
        trace = VmTrace(
            name="short", params=TraceParams(duration_days=2), vms=vms
        )
        assert stranded_capacity_fraction(trace, min_servers=2) == 0.0

    def test_long_lived_sliver_strands_capacity(self):
        # One small VM that never leaves pins a near-empty server.
        vms = (make_vm(1, lifetime=10_000.0, cores=2),)
        trace = VmTrace(
            name="pin",
            params=TraceParams(duration_days=30),
            vms=vms,
        )
        fraction = stranded_capacity_fraction(trace, min_servers=1)
        assert fraction > 0.5

    def test_departure_after_last_arrival_frees_its_cores(self):
        # VM 2 leaves at 601 h, after the last arrival and before the
        # window closes at 720 h.  The 60 snapshots (every 12 h) see the
        # server pinned by VM 1 from 168 h on: 37 of them with 70 free
        # cores, then 10 with 78 once VM 2 has left.
        vms = (
            make_vm(1, lifetime=10_000.0, cores=2),
            make_vm(2, lifetime=600.0, cores=8, arrival=1.0),
        )
        trace = VmTrace(
            name="tail", params=TraceParams(duration_days=30), vms=vms
        )
        fraction = stranded_capacity_fraction(trace, min_servers=1)
        assert fraction == pytest.approx((37 * 70 + 10 * 78) / (80 * 60))

    def test_non_positive_snapshot_interval_rejected(self):
        trace = VmTrace(
            name="one",
            params=TraceParams(duration_days=1),
            vms=(make_vm(1, lifetime=2.0),),
        )
        with pytest.raises(ConfigError, match="snapshot interval"):
            stranded_capacity_fraction(
                trace, snapshot_hours=0.0, min_servers=1
            )
