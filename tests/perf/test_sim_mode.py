"""The analytic latency model against the discrete-event oracle.

The simulator in ``tests/oracles/queueing.py`` derives SLOs and Table
III factors from simulated tails; where the analytic model's answer is
far from a grid threshold, both must agree.
"""

import math

import pytest

from repro.perf.apps import get_app
from repro.perf.scaling import scaling_factor
from tests.oracles import queueing


class TestSimCurves:
    def test_heavy_tailed_service_raises_tail(self):
        """A service-time CV of 2 (lognormal) produces a heavier p95 than
        the exponential at the same mean and load."""
        app = get_app("Nginx")
        service_ms = app.service_ms_on("gen3")
        load = 0.7 * 8 / (app.base_service_ms / 1000.0)
        exp_tail = queueing.tail_ms(load, 8, service_ms)
        heavy_tail = queueing.tail_ms(load, 8, service_ms, cv=2.0)
        assert heavy_tail > exp_tail

    def test_sim_slo_derivation(self):
        slo = queueing.scaling_factor(get_app("Xapian"), 3).slo
        assert slo.latency_ms > 0
        assert slo.load_qps == pytest.approx(
            0.9 * slo.baseline_peak_qps
        )


class TestSimScaling:
    @pytest.mark.parametrize("app_name", ["Redis", "Silo"])
    def test_sim_factors_match_analytic_clear_cases(self, app_name):
        """The DES and the analytic model agree on Table III factors for
        cases far from the grid thresholds (Redis: equal speed -> 1;
        Silo: collapsed speed -> >1.5)."""
        app = get_app(app_name)
        analytic = scaling_factor(app, 3).factor
        sim = queueing.scaling_factor(app, 3).factor
        assert sim == analytic or (
            math.isinf(sim) and math.isinf(analytic)
        )

    def test_sim_factor_near_boundary_adjacent(self):
        """Xapian's 1.5 sits near the SLO boundary: the DES may land on
        the same factor or the adjacent outcome, never below 1.5."""
        sim = queueing.scaling_factor(get_app("Xapian"), 3).factor
        assert sim == 1.5 or math.isinf(sim)
