"""Synthetic VM trace generator tests."""

import math

import numpy as np
import pytest

from repro.allocation.traces import (
    TraceParams,
    VmTrace,
    generate_trace,
    production_trace_suite,
)
from repro.allocation.vm import VmRequest
from repro.core.errors import ConfigError
from repro.perf.apps import APP_BY_NAME, FLEET_CORE_HOUR_SHARE, apps_in_class
from tests.oracles.traces import _assign_app


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        seed=11, params=TraceParams(duration_days=7, mean_concurrent_vms=150)
    )


class TestDeterminism:
    def test_same_seed_same_trace(self, trace):
        again = generate_trace(
            seed=11,
            params=TraceParams(duration_days=7, mean_concurrent_vms=150),
        )
        assert len(again.vms) == len(trace.vms)
        assert all(
            a.arrival_hours == b.arrival_hours and a.cores == b.cores
            for a, b in zip(trace.vms, again.vms)
        )

    def test_different_seeds_differ(self, trace):
        other = generate_trace(
            seed=12,
            params=TraceParams(duration_days=7, mean_concurrent_vms=150),
        )
        assert len(other.vms) != len(trace.vms) or any(
            a.cores != b.cores for a, b in zip(trace.vms, other.vms)
        )


class TestShape:
    def test_arrivals_sorted(self, trace):
        arrivals = [vm.arrival_hours for vm in trace.vms]
        assert arrivals == sorted(arrivals)

    def test_arrivals_within_window(self, trace):
        assert all(
            0 <= vm.arrival_hours < trace.duration_hours for vm in trace.vms
        )

    def test_vm_ids_unique(self, trace):
        ids = [vm.vm_id for vm in trace.vms]
        assert len(set(ids)) == len(ids)

    def test_population_near_target(self, trace):
        """Little's law: mean concurrent VMs ~ target (loosely)."""
        times = np.linspace(12, trace.duration_hours - 12, 12)
        pops = [
            sum(
                1
                for vm in trace.vms
                if vm.arrival_hours <= t < vm.departure_hours
            )
            for t in times
        ]
        assert np.mean(pops) == pytest.approx(150, rel=0.5)

    def test_core_sizes_from_menu(self, trace):
        menu = set(trace.params.core_sizes) | {80}  # full-node shape
        assert all(vm.cores in menu for vm in trace.vms)

    def test_apps_are_known(self, trace):
        assert all(vm.app_name in APP_BY_NAME for vm in trace.vms)

    def test_generations_valid(self, trace):
        assert all(vm.generation in (1, 2, 3) for vm in trace.vms)

    def test_gen3_dominates(self, trace):
        gen3 = sum(1 for vm in trace.vms if vm.generation == 3)
        assert gen3 > len(trace.vms) * 0.4

    def test_full_node_vms_have_server_shape(self, trace):
        for vm in trace.vms:
            if vm.full_node:
                assert vm.cores == 80
                assert vm.memory_gb == pytest.approx(80 * 9.6)

    def test_memory_fractions_in_unit_interval(self, trace):
        assert all(0 <= vm.max_memory_fraction <= 1 for vm in trace.vms)

    def test_peak_concurrent_cores_positive(self, trace):
        assert trace.peak_concurrent_cores() > 0


class TestParams:
    def test_mean_lifetime(self):
        p = TraceParams(
            short_lifetime_hours=4,
            long_lifetime_hours=100,
            long_lived_fraction=0.5,
        )
        assert p.mean_lifetime_hours == pytest.approx(52.0)

    def test_arrival_rate_littles_law(self):
        p = TraceParams(mean_concurrent_vms=100)
        assert p.arrival_rate_per_hour == pytest.approx(
            100 / p.mean_lifetime_hours
        )

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            TraceParams(core_size_weights=(1.0,))

    def test_weight_sum_validation(self):
        with pytest.raises(ConfigError):
            TraceParams(
                core_sizes=(1, 2),
                core_size_weights=(0.5, 0.6),
            )

    def test_generation_mix_validation(self):
        with pytest.raises(ConfigError):
            TraceParams(generation_mix=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("field", [
        "short_lifetime_hours",
        "long_lifetime_hours",
        "full_node_lifetime_hours",
    ])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_lifetime_validation(self, field, value):
        with pytest.raises(ConfigError):
            TraceParams(**{field: value})

    @pytest.mark.parametrize("field", ["mem_touch_alpha", "mem_touch_beta"])
    @pytest.mark.parametrize("value", [0.0, -2.75, math.inf, math.nan])
    def test_mem_touch_validation(self, field, value):
        with pytest.raises(ConfigError):
            TraceParams(**{field: value})

    def test_long_lived_fraction_validation(self):
        with pytest.raises(ConfigError):
            TraceParams(long_lived_fraction=1.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            # An infinite duration would never stop the arrivals loop;
            # only the params are built here, never a trace.
            ("duration_days", math.inf),
            ("duration_days", math.nan),
            ("mean_concurrent_vms", math.nan),
        ],
    )
    def test_non_finite_duration_and_population_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            TraceParams(**{field: value})


def _spike_vm(vm_id, arrival, lifetime, cores):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=arrival,
        lifetime_hours=lifetime,
        cores=cores,
        memory_gb=cores * 4.0,
        generation=3,
        app_name="Redis",
    )


def _sampled_peak(trace, step_hours):
    """The pre-sweep implementation: sample every ``step_hours``."""
    times = np.arange(0.0, trace.duration_hours + step_hours, step_hours)
    peak = 0
    for t in times:
        live = sum(
            vm.cores
            for vm in trace.vms
            if vm.arrival_hours <= t < vm.departure_hours
        )
        peak = max(peak, live)
    return peak


class TestPeakConcurrentCores:
    def test_exact_sweep_catches_interior_spike(self):
        """Regression: step sampling misses peaks between sample points.

        The spike VMs live on [0.5, 1.5) — strictly inside the old
        sampler's (0, 2) gap — so sampling reports only the long-lived
        background VM while the event sweep sees background + spike.
        """
        vms = [_spike_vm(0, 0.0, 48.0, 8)]
        vms += [_spike_vm(1 + i, 0.5, 1.0, 16) for i in range(3)]
        trace = VmTrace(
            name="spike", params=TraceParams(duration_days=2), vms=tuple(vms)
        )
        assert _sampled_peak(trace, step_hours=2.0) == 8
        assert trace.peak_concurrent_cores() == 8 + 3 * 16
        assert trace.columns.peak_concurrent_vms() == 4

    def test_half_open_interval_back_to_back(self):
        """A departure releases cores before an arrival at the same time."""
        vms = (_spike_vm(0, 0.0, 5.0, 32), _spike_vm(1, 5.0, 5.0, 32))
        trace = VmTrace(
            name="handoff", params=TraceParams(duration_days=1), vms=vms
        )
        assert trace.peak_concurrent_cores() == 32
        assert trace.columns.peak_concurrent_vms() == 1

    def test_matches_sampling_on_generated_trace(self, trace):
        """On real traces the sweep can only find >= the sampled peak."""
        exact = trace.peak_concurrent_cores()
        assert exact >= _sampled_peak(trace, step_hours=2.0)

    def test_empty_trace(self):
        trace = VmTrace(
            name="empty", params=TraceParams(duration_days=1), vms=()
        )
        assert trace.peak_concurrent_cores() == 0
        assert trace.columns.peak_concurrent_vms() == 0


class TestAssignApp:
    @staticmethod
    def _old_assign_app(rng):
        """Pre-hoist implementation: rebuild the tables on every call."""
        classes = list(FLEET_CORE_HOUR_SHARE.keys())
        shares = np.array([FLEET_CORE_HOUR_SHARE[c] for c in classes])
        shares = shares / shares.sum()
        app_class = classes[rng.choice(len(classes), p=shares)]
        members = apps_in_class(app_class)
        return members[rng.integers(len(members))].name

    def test_identical_rng_draws(self):
        """The hoisted tables change no draw: same names, same rng state."""
        rng_new = np.random.default_rng(1234)
        rng_old = np.random.default_rng(1234)
        new_names = [_assign_app(rng_new) for _ in range(500)]
        old_names = [self._old_assign_app(rng_old) for _ in range(500)]
        assert new_names == old_names
        # The streams consumed exactly the same entropy.
        assert rng_new.integers(1 << 30) == rng_old.integers(1 << 30)


class TestSuite:
    def test_suite_count(self):
        suite = production_trace_suite(
            count=5, params=TraceParams(duration_days=3, mean_concurrent_vms=60)
        )
        assert len(suite) == 5

    def test_suite_names_unique(self):
        suite = production_trace_suite(
            count=4, params=TraceParams(duration_days=3, mean_concurrent_vms=60)
        )
        names = [t.name for t in suite]
        assert len(set(names)) == 4

    def test_suite_traces_vary(self):
        suite = production_trace_suite(
            count=3, params=TraceParams(duration_days=3, mean_concurrent_vms=60)
        )
        sizes = [len(t.vms) for t in suite]
        assert len(set(sizes)) > 1

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            production_trace_suite(count=0)
