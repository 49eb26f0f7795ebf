"""Tests of the discrete-event queueing oracle (``tests/oracles/queueing``)."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.perf.apps import get_app
from tests.oracles.queueing import (
    grid_digest,
    sample_service_times,
    simulate_fcfs,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "golden_queueing_digests.json"
)


class TestServiceSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(0)
        times = sample_service_times(rng, 200_000, mean_ms=2.0, cv=1.0)
        assert times.mean() == pytest.approx(2.0, rel=0.02)

    def test_lognormal_mean_and_cv(self):
        rng = np.random.default_rng(0)
        times = sample_service_times(rng, 200_000, mean_ms=5.0, cv=0.5)
        assert times.mean() == pytest.approx(5.0, rel=0.02)
        assert times.std() / times.mean() == pytest.approx(0.5, rel=0.05)

    def test_all_positive(self):
        rng = np.random.default_rng(1)
        assert (sample_service_times(rng, 10_000, 1.0, 2.0) > 0).all()

    def test_invalid_mean_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            sample_service_times(rng, 10, 0.0)

    def test_invalid_cv_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            sample_service_times(rng, 10, 1.0, cv=-1)


class TestSimulation:
    def test_deterministic_given_seed(self):
        a = simulate_fcfs(1000, 4, 2.0, seed=3, requests=5000, warmup=500)
        b = simulate_fcfs(1000, 4, 2.0, seed=3, requests=5000, warmup=500)
        assert a.p95_ms == b.p95_ms

    def test_different_seed_different_result(self):
        a = simulate_fcfs(1000, 4, 2.0, seed=3, requests=5000, warmup=500)
        b = simulate_fcfs(1000, 4, 2.0, seed=4, requests=5000, warmup=500)
        assert a.p95_ms != b.p95_ms

    def test_latency_at_least_service_time_scale(self):
        result = simulate_fcfs(100, 8, 2.0, seed=0, requests=5000, warmup=500)
        # p50 of an exponential with mean 2 is ln(2)*2 ~ 1.39 ms.
        assert result.p50_ms > 0.5

    def test_percentile_ordering(self):
        result = simulate_fcfs(3000, 8, 2.0, seed=0, requests=20000)
        assert result.p50_ms <= result.p95_ms <= result.p99_ms

    def test_latency_grows_with_load(self):
        low = simulate_fcfs(1000, 8, 2.0, seed=0, requests=20000)
        high = simulate_fcfs(3600, 8, 2.0, seed=0, requests=20000)
        assert high.p95_ms > low.p95_ms

    def test_utilization_computed(self):
        result = simulate_fcfs(2000, 8, 2.0, seed=0, requests=1000, warmup=100)
        assert result.utilization == pytest.approx(0.5)
        assert not result.saturated

    def test_saturated_flag(self):
        result = simulate_fcfs(
            5000, 8, 2.0, seed=0, requests=2000, warmup=100
        )
        assert result.saturated

    def test_invalid_load_rejected(self):
        with pytest.raises(SimulationError):
            simulate_fcfs(0, 8, 1.0)

    def test_invalid_cores_rejected(self):
        with pytest.raises(SimulationError):
            simulate_fcfs(100, 0, 1.0)

    def test_mm1_mean_matches_theory(self):
        # M/M/1 at rho=0.5: E[R] = E[S]/(1-rho) = 2*E[S].
        result = simulate_fcfs(
            250, 1, 2.0, seed=2, requests=200_000, warmup=20_000
        )
        assert result.mean_ms == pytest.approx(4.0, rel=0.05)

    @settings(deadline=None, max_examples=10)
    @given(cores=st.integers(min_value=1, max_value=16))
    def test_more_cores_never_hurt(self, cores):
        lam, service = 800.0, 2.0
        if lam >= cores * 1000 / service:
            return  # skip unstable starting point
        few = simulate_fcfs(lam, cores, service, seed=1, requests=8000)
        more = simulate_fcfs(lam, cores + 4, service, seed=1, requests=8000)
        assert more.p95_ms <= few.p95_ms * 1.25  # noise tolerance


def _reference_percentiles(
    offered_qps, cores, mean_service_ms, cv, requests, warmup, seed
):
    """The pre-optimization dispatch loop: heapq over numpy scalars."""
    import heapq

    from repro.core.rng import RngFactory

    total = requests + warmup
    rngs = RngFactory(seed)
    inter_ms = rngs.stream("arrivals").exponential(
        1000.0 / offered_qps, size=total
    )
    arrivals = np.cumsum(inter_ms)
    services = sample_service_times(
        rngs.stream("services"), total, mean_service_ms, cv
    )
    free_at = [0.0] * cores
    heapq.heapify(free_at)
    responses = np.empty(total)
    for i in range(total):
        core_free = heapq.heappop(free_at)
        start = max(core_free, arrivals[i])
        done = start + services[i]
        heapq.heappush(free_at, done)
        responses[i] = done - arrivals[i]
    measured = responses[warmup:]
    p50, p95, p99 = np.percentile(measured, [50, 95, 99])
    return float(p50), float(p95), float(p99), float(measured.mean())


class TestDispatchEquivalence:
    """Both optimized dispatch paths are bit-identical to the naive loop."""

    @pytest.mark.parametrize("cores", [1, 4])
    def test_matches_reference_loop(self, cores):
        qps = 0.7 * (cores * 1000.0)
        result = simulate_fcfs(
            qps, cores, 1.0, requests=4000, warmup=500, seed=3
        )
        ref = _reference_percentiles(qps, cores, 1.0, 1.0, 4000, 500, 3)
        assert (
            result.p50_ms,
            result.p95_ms,
            result.p99_ms,
            result.mean_ms,
        ) == ref


class TestGoldenGrid:
    """The committed simulator digests, rebuilt from per-point runs."""

    #: (app, cores, load fraction) profiles spanning single/multi-core
    #: and short/long service times, crossed with the CVs below.
    PROFILES = (
        ("Xapian", 8, 0.7),
        ("Nginx", 4, 0.5),
        ("Moses", 2, 0.8),
        ("Img-DNN", 1, 0.6),
    )
    CVS = (1.0, 2.0)
    SEEDS = (0, 1, 2, 3, 4)

    def test_matches_golden_digests(self):
        digests = {}
        for name, cores, fraction in self.PROFILES:
            service_ms = get_app(name).service_ms_on("gen3")
            qps = fraction * (cores * 1000.0 / service_ms)
            for cv in self.CVS:
                digests[f"{name.lower()}-c{cores}-cv{cv:g}"] = grid_digest(
                    [qps] * len(self.SEEDS),
                    cores,
                    service_ms,
                    cv=cv,
                    seeds=list(self.SEEDS),
                    requests=4000,
                    warmup=500,
                    quantiles=(0.9, 0.99),
                )
        assert digests == json.loads(GOLDEN_PATH.read_text())
