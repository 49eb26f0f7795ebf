"""Latency-curve and SLO tests."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.perf.apps import get_app
from repro.perf.latency import (
    CurveSpec,
    derive_slo,
    derive_slos,
    latency_curve,
    latency_curves,
    low_load_comparison,
    low_load_latency_ms,
    meets_slo,
    peak_qps,
    tail_latencies,
    tail_latency_ms,
)
from tests.oracles.queueing import tail_ms


class TestPeak:
    def test_peak_qps_formula(self):
        app = get_app("Redis")  # 0.25 ms service, speed 1 on gen3
        assert peak_qps(app, "gen3", 8) == pytest.approx(8 / 0.00025)

    def test_peak_scales_with_cores(self):
        app = get_app("Xapian")
        assert peak_qps(app, "gen3", 12) == pytest.approx(
            1.5 * peak_qps(app, "gen3", 8)
        )

    def test_cxl_lowers_peak(self):
        app = get_app("Moses")
        assert peak_qps(app, "bergamo", 10, cxl=True) < peak_qps(
            app, "bergamo", 10
        )


class TestTailLatency:
    def test_saturated_is_inf(self):
        app = get_app("Redis")
        peak = peak_qps(app, "gen3", 8)
        assert math.isinf(tail_latency_ms(app, "gen3", 8, 1.1 * peak))

    def test_increases_with_load(self):
        app = get_app("Xapian")
        peak = peak_qps(app, "gen3", 8)
        low = tail_latency_ms(app, "gen3", 8, 0.3 * peak)
        high = tail_latency_ms(app, "gen3", 8, 0.9 * peak)
        assert high > low

    def test_sim_and_analytic_agree(self):
        app = get_app("Nginx")
        peak = peak_qps(app, "gen3", 8)
        analytic = tail_latency_ms(app, "gen3", 8, 0.7 * peak)
        sim = tail_ms(0.7 * peak, 8, app.service_ms_on("gen3"))
        assert sim == pytest.approx(analytic, rel=0.15)

    def test_zero_load_rejected(self):
        with pytest.raises(ConfigError):
            tail_latency_ms(get_app("Redis"), "gen3", 8, 0)


class TestQuantileSemantics:
    @pytest.mark.parametrize("quantile", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_invalid_quantile_raises_config_error(self, quantile):
        app = get_app("Redis")
        with pytest.raises(ConfigError):
            tail_latency_ms(app, "gen3", 8, 100.0, quantile=quantile)


class TestInputValidation:
    """Regression: bad loads, service times and core counts returned
    ``nan``, ``inf`` or a near-zero latency instead of raising."""

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_non_finite_load_rejected(self, load):
        with pytest.raises(ConfigError):
            tail_latency_ms(get_app("Nginx"), "gen3", 8, load)
        with pytest.raises(ConfigError):
            tail_latencies(2.0, 4, np.array([100.0, load]))

    @pytest.mark.parametrize("service_ms", [0.0, float("nan"), float("inf")])
    def test_bad_service_time_rejected(self, service_ms):
        with pytest.raises(ConfigError):
            tail_latencies(service_ms, 4, 100.0)

    def test_non_finite_profile_service_time_rejected(self):
        nginx = get_app("Nginx")
        with pytest.raises(ConfigError):
            dataclasses.replace(nginx, base_service_ms=float("nan"))
        # The latency layer keeps its own check for a profile whose
        # field was set past the constructor.
        app = dataclasses.replace(nginx)
        object.__setattr__(app, "base_service_ms", float("nan"))
        with pytest.raises(ConfigError):
            tail_latency_ms(app, "gen3", 8, 100.0)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            tail_latencies(2.0, 0, 100.0)
        with pytest.raises(ConfigError):
            tail_latency_ms(get_app("Nginx"), "gen3", 0, 100.0)

    def test_empty_panel_has_no_curves(self):
        assert latency_curves(get_app("Nginx"), []) == []


class TestTailLatencies:
    """The batched grid evaluator matches the scalar path point-for-point."""

    def test_analytic_matches_scalar(self):
        app = get_app("Xapian")
        service_ms = app.service_ms_on("gen3")
        peak = peak_qps(app, "gen3", 8)
        loads = np.array([0.3, 0.6, 0.9]) * peak
        batched = tail_latencies(service_ms, 8, loads)
        for load, got in zip(loads, batched):
            assert got == pytest.approx(
                tail_latency_ms(app, "gen3", 8, float(load)), rel=1e-9
            )

    def test_saturated_points_are_inf(self):
        out = tail_latencies(2.0, 2, np.array([500.0, 5000.0]))
        assert np.isfinite(out[0])
        assert math.isinf(out[1])

    def test_shape_preserved(self):
        out = tail_latencies(2.0, np.array([[2, 4], [8, 16]]), 500.0)
        assert out.shape == (2, 2)

    def test_invalid_load_rejected(self):
        with pytest.raises(ConfigError):
            tail_latencies(2.0, 4, np.array([100.0, 0.0]))


class TestReferencePeak:
    """Regression: reference_peak_qps=0.0 silently meant 'use own peak'."""

    @pytest.mark.parametrize("bad_peak", [0.0, -100.0])
    def test_non_positive_reference_peak_rejected(self, bad_peak):
        app = get_app("Nginx")
        with pytest.raises(ConfigError):
            latency_curve(
                app, "gen3", 8, load_fractions=(0.5,),
                reference_peak_qps=bad_peak,
            )
        with pytest.raises(ConfigError):
            latency_curves(
                app,
                [CurveSpec("gen3", 8, reference_peak_qps=bad_peak)],
                load_fractions=(0.5,),
            )

    def test_none_uses_own_peak(self):
        app = get_app("Nginx")
        curve = latency_curve(
            app, "gen3", 8, load_fractions=(0.5,), reference_peak_qps=None
        )
        assert curve.qps[0] == pytest.approx(0.5 * curve.peak_qps)


class TestBatchedCurvesAndSlos:
    def test_latency_curves_match_per_curve_calls(self):
        app = get_app("Xapian")
        base_peak = peak_qps(app, "gen3", 8)
        specs = [
            CurveSpec("gen3", 8, label="base"),
            CurveSpec("bergamo", 10, reference_peak_qps=base_peak,
                      label="green"),
        ]
        panel = latency_curves(app, specs, load_fractions=(0.3, 0.7))
        for spec, curve in zip(specs, panel):
            single = latency_curve(
                app, spec.platform, spec.cores, cxl=spec.cxl,
                load_fractions=(0.3, 0.7),
                reference_peak_qps=spec.reference_peak_qps,
                label=spec.label,
            )
            assert curve == single

    def test_derive_slos_matches_derive_slo(self):
        apps = [get_app("Xapian"), get_app("Nginx")]
        slos = derive_slos(apps, (1, 3))
        assert set(slos) == {(a.name, g) for a in apps for g in (1, 3)}
        for app in apps:
            for gen in (1, 3):
                single = derive_slo(app, gen)
                batched = slos[(app.name, gen)]
                assert batched.load_qps == single.load_qps
                assert batched.latency_ms == pytest.approx(
                    single.latency_ms, rel=1e-12, abs=0.0
                )


class TestSlo:
    def test_slo_load_is_90pct_of_peak(self):
        app = get_app("Xapian")
        slo = derive_slo(app, 3)
        assert slo.load_qps == pytest.approx(0.9 * slo.baseline_peak_qps)

    def test_equal_platform_meets_own_slo(self):
        # An app with bergamo speed == gen3 speed meets the gen3 SLO at
        # 8 cores.
        app = get_app("Redis")
        slo = derive_slo(app, 3)
        assert meets_slo(app, slo, 8)

    def test_slower_platform_fails_at_equal_cores(self):
        app = get_app("Xapian")  # bergamo speed 0.72
        slo = derive_slo(app, 3)
        assert not meets_slo(app, slo, 8)

    def test_scaling_up_helps(self):
        app = get_app("Xapian")
        slo = derive_slo(app, 3)
        assert meets_slo(app, slo, 12)

    def test_cxl_never_helps(self):
        app = get_app("Moses")
        slo = derive_slo(app, 3)
        for cores in (8, 10, 12):
            if meets_slo(app, slo, cores, cxl=True):
                assert meets_slo(app, slo, cores)

    def test_gen1_slo_easier_than_gen3(self):
        app = get_app("Xapian")
        slo1, slo3 = derive_slo(app, 1), derive_slo(app, 3)
        assert slo1.load_qps < slo3.load_qps


class TestCurves:
    def test_curve_has_points_for_all_fractions(self):
        app = get_app("Nginx")
        curve = latency_curve(app, "gen3", 8, load_fractions=(0.2, 0.5, 0.8))
        assert len(curve.qps) == 3
        assert len(curve.p95_ms) == 3

    def test_hockey_stick_past_saturation(self):
        # A GreenSKU curve swept over the baseline's load axis goes to
        # infinity once the load exceeds its own (lower) peak.
        app = get_app("Masstree")
        base_peak = peak_qps(app, "gen3", 8)
        curve = latency_curve(
            app,
            "bergamo",
            8,
            load_fractions=(0.5, 0.9),
            reference_peak_qps=base_peak,
        )
        assert math.isinf(curve.p95_ms[-1])

    def test_max_load_meeting(self):
        app = get_app("Nginx")
        slo = derive_slo(app, 3)
        curve = latency_curve(
            app, "gen3", 8, load_fractions=(0.3, 0.6, 0.9, 0.95)
        )
        best = curve.max_load_meeting(slo.latency_ms * 1.0000001)
        assert best == pytest.approx(0.9 * curve.peak_qps, rel=0.01)

    def test_latency_at_nearest_point(self):
        app = get_app("Nginx")
        curve = latency_curve(app, "gen3", 8, load_fractions=(0.3, 0.6))
        assert curve.latency_at(curve.qps[0]) == curve.p95_ms[0]


class TestLowLoad:
    def test_low_load_latency_close_to_service_floor(self):
        app = get_app("Img-DNN")
        lat = low_load_latency_ms(app, "gen3", 8)
        # p95 of Exp(service) at negligible wait is ~3x the mean.
        assert lat == pytest.approx(3.0 * app.base_service_ms, rel=0.1)

    def test_greensku_low_load_higher_than_gen3(self):
        # Section VI: GreenSKU-Efficient's median low-load latency is
        # ~16% above Gen3.
        apps = [
            get_app(n)
            for n in ("Xapian", "Moses", "Nginx", "Sphinx", "WebF-Dynamic")
        ]
        ratios = low_load_comparison(
            apps, scaled_cores={}, generation=3
        )
        assert all(r >= 0.99 for r in ratios)
        assert max(r for r in ratios) > 1.05
