"""Application profile tests."""

import pytest

from repro.core.errors import ConfigError
from repro.perf.apps import (
    APP_BY_NAME,
    APPLICATIONS,
    FLEET_CORE_HOUR_SHARE,
    AppClass,
    ApplicationProfile,
    apps_in_class,
    cxl_tolerant_core_hour_share,
    get_app,
    platform_for_generation,
    table3_apps,
)


class TestRegistry:
    def test_twenty_applications(self):
        # Section V: "we benchmark 20 open-source and closed-source
        # applications".
        assert len(APPLICATIONS) == 20

    def test_table3_has_nineteen_rows(self):
        # Table III omits WebF-Mix.
        assert len(table3_apps()) == 19

    def test_class_shares_match_table3(self):
        assert FLEET_CORE_HOUR_SHARE[AppClass.BIG_DATA] == 0.32
        assert FLEET_CORE_HOUR_SHARE[AppClass.WEB_APP] == 0.27
        assert FLEET_CORE_HOUR_SHARE[AppClass.RTC] == 0.24
        assert FLEET_CORE_HOUR_SHARE[AppClass.ML_INFERENCE] == 0.11
        assert FLEET_CORE_HOUR_SHARE[AppClass.WEB_PROXY] == 0.04
        assert FLEET_CORE_HOUR_SHARE[AppClass.DEVOPS] == 0.01

    def test_every_class_has_members(self):
        for app_class in AppClass:
            assert apps_in_class(app_class), app_class

    def test_four_production_webf_services(self):
        production = [a.name for a in APPLICATIONS if a.production]
        assert sorted(production) == [
            "WebF-Cold",
            "WebF-Dynamic",
            "WebF-Hot",
            "WebF-Mix",
        ]

    def test_get_app(self):
        assert get_app("Redis").app_class == AppClass.BIG_DATA

    def test_get_unknown_app(self):
        with pytest.raises(ConfigError):
            get_app("Memcached")

    def test_unique_names(self):
        assert len(APP_BY_NAME) == len(APPLICATIONS)


class TestSpeeds:
    def test_every_app_has_all_platforms(self):
        for app in APPLICATIONS:
            for platform in ("gen1", "gen2", "gen3", "bergamo"):
                assert app.speed_on(platform) > 0

    def test_gen3_is_reference(self):
        for app in APPLICATIONS:
            assert app.speed_on("gen3") == 1.0

    def test_gen1_never_faster_than_gen3(self):
        for app in APPLICATIONS:
            assert app.speed_on("gen1") <= 1.0

    def test_gen_progression(self):
        # Successive baseline generations get faster for every app.
        for app in APPLICATIONS:
            assert app.speed_on("gen1") <= app.speed_on("gen2") <= 1.0

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigError):
            get_app("Redis").speed_on("gen4")

    def test_service_time_scales_inverse_speed(self):
        app = get_app("Moses")
        assert app.service_ms_on("bergamo") == pytest.approx(
            app.base_service_ms / app.speed_on("bergamo")
        )


class TestCxlBehaviour:
    def test_tolerant_apps_see_no_cxl_penalty(self):
        for app in APPLICATIONS:
            if app.cxl_tolerant:
                assert app.speed_on("bergamo", cxl=True) == app.speed_on(
                    "bergamo"
                )

    def test_non_tolerant_apps_slow_down(self):
        moses = get_app("Moses")
        assert moses.speed_on("bergamo", cxl=True) < moses.speed_on("bergamo")

    def test_moses_most_cxl_hurt_latency_app(self):
        # Fig. 8: Moses is the exemplar of a CXL-hurt application.
        latency_apps = [a for a in APPLICATIONS if a.latency_critical]
        worst = max(latency_apps, key=lambda a: a.cxl_slowdown)
        assert worst.name == "Moses"

    def test_haproxy_low_penalty(self):
        # Fig. 8: HAProxy loses ~11% peak throughput.
        assert get_app("HAProxy").cxl_slowdown == pytest.approx(1.11)

    def test_tolerant_share_near_paper(self):
        # Section VI: 20.2% of applications by fleet core-hours run fully
        # CXL-backed without penalty.
        assert cxl_tolerant_core_hour_share() == pytest.approx(0.202, abs=0.02)

    def test_cxl_slowdown_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ApplicationProfile(
                name="bad",
                app_class=AppClass.WEB_PROXY,
                speed={"gen1": 1, "gen2": 1, "gen3": 1, "bergamo": 1},
                cxl_slowdown=0.9,
            )

    def test_tolerant_with_slowdown_rejected(self):
        with pytest.raises(ConfigError):
            ApplicationProfile(
                name="bad",
                app_class=AppClass.WEB_PROXY,
                speed={"gen1": 1, "gen2": 1, "gen3": 1, "bergamo": 1},
                cxl_slowdown=1.2,
                cxl_tolerant=True,
            )


class TestValidation:
    def test_missing_platform_rejected(self):
        with pytest.raises(ConfigError):
            ApplicationProfile(
                name="partial",
                app_class=AppClass.RTC,
                speed={"gen3": 1.0},
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_speed_rejected(self, bad):
        # ``value <= 0`` is false for NaN; a NaN profile would also key
        # the Table III memo by a value that never equals itself.
        with pytest.raises(ConfigError, match="finite"):
            ApplicationProfile(
                name="bad",
                app_class=AppClass.RTC,
                speed={"gen1": 1, "gen2": 1, "gen3": 1, "bergamo": bad},
            )

    @pytest.mark.parametrize("field", ["base_service_ms", "cxl_slowdown"])
    def test_nan_service_time_and_slowdown_rejected(self, field):
        with pytest.raises(ConfigError, match="finite"):
            ApplicationProfile(
                name="bad",
                app_class=AppClass.RTC,
                speed={"gen1": 1, "gen2": 1, "gen3": 1, "bergamo": 1},
                **{field: float("nan")},
            )

    def test_platform_for_generation(self):
        assert platform_for_generation(1) == "gen1"
        assert platform_for_generation(3) == "gen3"

    def test_platform_for_bad_generation(self):
        with pytest.raises(ConfigError):
            platform_for_generation(4)

    def test_devops_not_latency_critical(self):
        for name in ("Build-Python", "Build-Wasm", "Build-PHP"):
            assert not get_app(name).latency_critical
