"""Analytic M/M/c model tests, cross-validated against the DES oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.perf.mmc import (
    erlang_c,
    mean_response_ms,
    mean_wait_ms,
    response_percentile_ms,
    response_tail_probability,
)
from tests.oracles.queueing import simulate_fcfs


class TestErlangC:
    def test_single_server_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5)

    def test_zero_load(self):
        assert erlang_c(8, 0.0) == 0.0

    def test_monotone_in_load(self):
        values = [erlang_c(8, a) for a in (2.0, 4.0, 6.0, 7.5)]
        assert values == sorted(values)

    def test_unstable_rejected(self):
        with pytest.raises(SimulationError):
            erlang_c(4, 4.0)

    def test_known_value(self):
        # c=2, A=1 (rho=0.5): Pw = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1 / 3)

    @given(
        cores=st.integers(min_value=1, max_value=64),
        rho=st.floats(min_value=0.01, max_value=0.98),
    )
    def test_probability_bounds(self, cores, rho):
        pw = erlang_c(cores, rho * cores)
        assert 0 <= pw <= 1


class TestResponseTail:
    def test_tail_at_zero_is_one(self):
        assert response_tail_probability(0.0, 500, 100, 8) == pytest.approx(1.0)

    def test_tail_decreasing(self):
        probs = [
            response_tail_probability(t, 500, 100, 8)
            for t in (1, 5, 10, 50)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_negative_time(self):
        assert response_tail_probability(-1, 500, 100, 8) == 1.0

    def test_mm1_response_exponential(self):
        # M/M/1 response time is Exp(mu - lam).
        lam, mu = 50.0, 100.0
        t = 20.0
        expected = math.exp(-(mu - lam) * t / 1000.0)
        assert response_tail_probability(t, lam, mu, 1) == pytest.approx(
            expected, rel=1e-6
        )


class TestPercentiles:
    def test_percentile_inverts_tail(self):
        lam, mu, c = 700.0, 100.0, 8
        t95 = response_percentile_ms(0.95, lam, mu, c)
        assert response_tail_probability(t95, lam, mu, c) == pytest.approx(
            0.05, abs=1e-6
        )

    def test_saturated_is_infinite(self):
        assert math.isinf(response_percentile_ms(0.95, 800, 100, 8))

    def test_invalid_quantile(self):
        with pytest.raises(SimulationError):
            response_percentile_ms(1.5, 100, 100, 8)

    def test_p99_above_p95(self):
        lam, mu, c = 700.0, 100.0, 8
        assert response_percentile_ms(
            0.99, lam, mu, c
        ) > response_percentile_ms(0.95, lam, mu, c)

    @settings(deadline=None, max_examples=8)
    @given(
        rho=st.floats(min_value=0.3, max_value=0.9),
        cores=st.integers(min_value=1, max_value=12),
    )
    def test_matches_simulation(self, rho, cores):
        """The analytic p95 agrees with the DES within sampling noise."""
        mu = 1000.0  # 1 ms service
        lam = rho * cores * mu
        analytic = response_percentile_ms(0.95, lam, mu, cores)
        sim = simulate_fcfs(
            lam, cores, 1.0, cv=1.0, requests=60_000, warmup=10_000, seed=11
        )
        assert sim.p95_ms == pytest.approx(analytic, rel=0.12)


class TestArrayPaths:
    """The array entry points track the scalar reference element-wise."""

    def test_erlang_c_array_matches_scalar(self):
        cores = np.array([1, 2, 4, 8, 16, 3])
        loads = np.array([0.5, 1.0, 3.5, 7.9, 0.0, 2.2])
        batched = erlang_c(cores, loads)
        scalar = [
            erlang_c(int(c), float(a)) for c, a in zip(cores, loads)
        ]
        assert batched == pytest.approx(scalar, rel=1e-12, abs=1e-15)

    def test_erlang_c_array_unstable_rejected(self):
        with pytest.raises(SimulationError):
            erlang_c(np.array([4, 4]), np.array([2.0, 4.0]))

    def test_tail_probability_array_matches_scalar(self):
        t = np.array([0.5, 2.0, 10.0, -1.0])
        lam = np.array([100.0, 500.0, 700.0, 300.0])
        mu = np.array([200.0, 300.0, 100.0, 400.0])
        cores = np.array([1, 2, 8, 4])
        batched = response_tail_probability(t, lam, mu, cores)
        scalar = [
            response_tail_probability(
                float(ti), float(l), float(m), int(c)
            )
            for ti, l, m, c in zip(t, lam, mu, cores)
        ]
        assert batched == pytest.approx(scalar, rel=1e-12)

    def test_percentile_array_matches_scalar(self):
        lam = np.array([100.0, 500.0, 700.0, 1500.0])
        mu = np.array([200.0, 300.0, 100.0, 200.0])
        cores = np.array([1, 2, 8, 8])
        for q in (0.5, 0.9, 0.95, 0.99):
            batched = response_percentile_ms(q, lam, mu, cores)
            scalar = [
                response_percentile_ms(q, float(l), float(m), int(c))
                for l, m, c in zip(lam, mu, cores)
            ]
            assert batched == pytest.approx(scalar, rel=1e-9)

    def test_percentile_array_unstable_is_inf(self):
        out = response_percentile_ms(
            0.95, np.array([500.0, 900.0]), 100.0, 8
        )
        assert np.isfinite(out[0])
        assert math.isinf(out[1])

    def test_percentile_quantile_broadcasts(self):
        out = response_percentile_ms(
            np.array([0.5, 0.95, 0.99]), 700.0, 100.0, 8
        )
        assert out.shape == (3,)
        assert (np.diff(out) > 0).all()

    def test_percentile_array_bad_quantile_rejected(self):
        with pytest.raises(SimulationError):
            response_percentile_ms(np.array([0.5, 1.5]), 100.0, 100.0, 8)

    def test_shape_preserved(self):
        out = response_percentile_ms(
            0.95, np.full((2, 3), 300.0), 100.0, 8
        )
        assert out.shape == (2, 3)


class TestMonotonicity:
    """Hypothesis: percentiles are monotone in quantile and in load."""

    @settings(deadline=None, max_examples=50)
    @given(
        q1=st.floats(min_value=0.05, max_value=0.99),
        q2=st.floats(min_value=0.05, max_value=0.99),
        rho=st.floats(min_value=0.05, max_value=0.95),
        cores=st.integers(min_value=1, max_value=32),
    )
    def test_monotone_in_quantile(self, q1, q2, rho, cores):
        lo, hi = sorted((q1, q2))
        mu = 500.0
        lam = rho * cores * mu
        assert response_percentile_ms(
            lo, lam, mu, cores
        ) <= response_percentile_ms(hi, lam, mu, cores) * (1 + 1e-9)

    @settings(deadline=None, max_examples=50)
    @given(
        rho1=st.floats(min_value=0.02, max_value=0.98),
        rho2=st.floats(min_value=0.02, max_value=0.98),
        q=st.floats(min_value=0.05, max_value=0.99),
        cores=st.integers(min_value=1, max_value=32),
    )
    def test_monotone_in_load(self, rho1, rho2, q, cores):
        lo, hi = sorted((rho1, rho2))
        mu = 500.0
        assert response_percentile_ms(
            q, lo * cores * mu, mu, cores
        ) <= response_percentile_ms(q, hi * cores * mu, mu, cores) * (
            1 + 1e-9
        )


class TestSimCrossValidation:
    """DES vs analytic at cv=1 across the quantile range."""

    @pytest.mark.parametrize(
        "quantile,tolerance",
        [(0.5, 0.05), (0.9, 0.08), (0.95, 0.1), (0.99, 0.2)],
    )
    def test_sim_matches_analytic_quantiles(self, quantile, tolerance):
        service_ms, cores, rho = 2.0, 4, 0.75
        mu = 1000.0 / service_ms
        lam = rho * cores * mu
        result = simulate_fcfs(
            lam, cores, service_ms, cv=1.0, requests=60_000,
            warmup=5_000, seed=11, quantiles=(quantile,),
        )
        analytic = response_percentile_ms(quantile, lam, mu, cores)
        assert result.quantiles_ms[0] == pytest.approx(
            analytic, rel=tolerance
        )


class TestMeans:
    def test_mean_wait_zero_load(self):
        assert mean_wait_ms(0, 100, 8) == 0.0

    def test_mean_wait_unstable_inf(self):
        assert math.isinf(mean_wait_ms(900, 100, 8))

    def test_mean_response_includes_service(self):
        # At very low load, response ~ service time.
        assert mean_response_ms(1.0, 100.0, 8) == pytest.approx(10.0, rel=0.01)

    def test_mm1_textbook(self):
        # M/M/1 rho=0.5: W = rho/(mu-lam) -> mean response 2/mu.
        assert mean_response_ms(50, 100, 1) == pytest.approx(20.0)
