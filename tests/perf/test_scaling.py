"""Scaling-factor tests: Table III reproduced cell by cell."""

import math

import pytest

import dataclasses

from repro.core.errors import ConfigError
from repro.perf import scaling
from repro.perf.apps import APPLICATIONS, get_app, table3_apps
from repro.perf.scaling import (
    CANDIDATE_CORES,
    FACTOR_GRID,
    ScalingResult,
    factors_by_app,
    scaling_factor,
    scaling_table,
)

#: Published Table III (app -> factors vs Gen1, Gen2, Gen3).
TABLE3 = {
    "Redis": (1, 1, 1),
    "Masstree": (1, 1, math.inf),
    "Silo": (math.inf, math.inf, math.inf),
    "Shore": (1, 1, 1),
    "Xapian": (1, 1, 1.5),
    "WebF-Dynamic": (1, 1.25, 1.25),
    "WebF-Hot": (1, 1.25, 1.5),
    "WebF-Cold": (1, 1, 1),
    "Moses": (1, 1, 1.25),
    "Sphinx": (1, 1.25, 1.25),
    "Img-DNN": (1, 1, 1),
    "Nginx": (1, 1, 1.25),
    "Caddy": (1, 1, 1),
    "Envoy": (1, 1, 1),
    "HAProxy": (1, 1, 1.25),
    "Traefik": (1, 1, 1.25),
    "Build-Python": (1, 1, 1.25),
    "Build-Wasm": (1, 1, 1.25),
    "Build-PHP": (1, 1, 1.25),
}


@pytest.fixture(scope="module")
def table():
    return scaling_table()


class TestTable3:
    @pytest.mark.parametrize("app_name", sorted(TABLE3))
    def test_every_published_cell(self, table, app_name):
        expected = TABLE3[app_name]
        got = tuple(table[app_name][gen].factor for gen in (1, 2, 3))
        assert got == expected

    def test_seven_apps_need_no_scaling_vs_gen3(self):
        # Section VI: "For seven applications, GreenSKU-Efficient meets
        # Gen3's SLO without any scaling."  Counted over all 20 apps
        # (Table III's 19 rows show six; WebF-Mix is the seventh).
        factors = factors_by_app(generation=3)
        unscaled = [name for name, f in factors.items() if f == 1.0]
        assert len(unscaled) == 7

    def test_nine_apps_need_25pct_scaling_vs_gen3(self, table):
        # "For another nine applications, scaling by 25% is required."
        scaled = [name for name in TABLE3 if table[name][3].factor == 1.25]
        assert len(scaled) == 9

    def test_silo_cannot_adopt_anywhere(self, table):
        for gen in (1, 2, 3):
            assert not table["Silo"][gen].adoptable_performance


class TestScalingResult:
    def test_display_formats(self):
        assert ScalingResult("a", 3, 1.0, 8).display == "1"
        assert ScalingResult("a", 3, 1.25, 10).display == "1.25"
        assert ScalingResult("a", 3, math.inf, None).display == ">1.5"

    def test_factor_maps_to_cores(self, table):
        for app_name, per_gen in table.items():
            for result in per_gen.values():
                if result.cores is not None:
                    assert result.cores == int(8 * result.factor)

    def test_invalid_generation_rejected(self):
        with pytest.raises(ConfigError):
            scaling_factor(get_app("Redis"), 4)


class TestCxlScaling:
    def test_cxl_factor_never_lower(self):
        # Adding CXL latency can only increase the required scaling.
        for app in table3_apps():
            plain = scaling_factor(app, 3).factor
            with_cxl = scaling_factor(app, 3, cxl=True).factor
            assert with_cxl >= plain

    def test_tolerant_app_unchanged(self):
        app = get_app("Redis")
        assert scaling_factor(app, 3, cxl=True).factor == scaling_factor(
            app, 3
        ).factor


class TestBatchedEquivalence:
    @pytest.mark.parametrize("cxl", [False, True])
    def test_table_matches_scalar_oracle(self, cxl):
        # The vectorized grid evaluation behind scaling_table must agree
        # cell-for-cell with the per-app scalar scaling_factor path on
        # every cell an AdoptionModel reads (all apps, both CXL settings).
        # Derived afresh, not read from the memo.
        table = scaling._derive_table(tuple(APPLICATIONS), (1, 2, 3), cxl)
        for app in APPLICATIONS:
            for gen in (1, 2, 3):
                assert table[app.name][gen] == scaling_factor(
                    app, gen, cxl=cxl
                ), (app.name, gen)


class TestBatchedProbeRegression:
    """The batched feasibility probe inside scaling_factor must make the
    same decisions as the historical per-candidate meets_slo loop."""

    @pytest.mark.parametrize("cxl", [False, True])
    def test_matches_per_point_meets_slo(self, cxl):
        from repro.perf.latency import derive_slo, meets_slo
        from repro.perf.scaling import BASELINE_CORES

        lc_apps = [a for a in table3_apps() if a.latency_critical]
        for app in lc_apps:
            for gen in (1, 2, 3):
                slo = derive_slo(app, gen, BASELINE_CORES)
                expected = math.inf
                for cores in CANDIDATE_CORES:
                    if meets_slo(app, slo, cores, cxl=cxl):
                        expected = cores / BASELINE_CORES
                        break
                got = scaling_factor(app, gen, cxl=cxl)
                assert got.factor == expected, (app.name, gen)
                assert got.slo == slo


class TestFactorsByApp:
    def test_includes_all_apps(self):
        factors = factors_by_app(generation=3)
        assert len(factors) == 20  # includes WebF-Mix

    def test_grid_values_only(self):
        for factor in factors_by_app(generation=3).values():
            assert factor in FACTOR_GRID or math.isinf(factor)

    def test_candidate_cores(self):
        assert CANDIDATE_CORES == (8, 10, 12)


class TestTableMemo:
    """``scaling_table`` derives each distinct input value once."""

    def test_equal_profiles_hit(self, table_derivations):
        first = scaling_table(list(APPLICATIONS))
        copies = [dataclasses.replace(app) for app in APPLICATIONS]
        assert copies[0] is not APPLICATIONS[0]
        assert scaling_table(copies) == first
        assert len(table_derivations) == 1

    def test_changed_speed_misses(self, table_derivations):
        apps = list(APPLICATIONS)
        scaling_table(apps)
        xapian = apps.index(get_app("Xapian"))
        apps[xapian] = dataclasses.replace(
            apps[xapian], speed={**apps[xapian].speed, "bergamo": 0.9}
        )
        table = scaling_table(apps)
        assert len(table_derivations) == 2
        assert table == scaling._derive_table(tuple(apps), (1, 2, 3), False)
        # 0.72 -> 0.9 lets Xapian meet Gen3's SLO with fewer cores.
        assert table["Xapian"][3].factor < 1.5

    def test_generations_and_cxl_are_part_of_the_key(self, table_derivations):
        apps = list(APPLICATIONS)
        for _ in range(2):
            scaling_table(apps, (1, 2, 3))
            scaling_table(apps, (3,))
            scaling_table(apps, (1, 2, 3), cxl=True)
        assert [call[1:] for call in table_derivations] == [
            ((1, 2, 3), False),
            ((3,), False),
            ((1, 2, 3), True),
        ]

    def test_mutating_a_result_leaves_the_next_unchanged(
        self, table_derivations
    ):
        table = scaling_table(list(APPLICATIONS))
        expected = {name: dict(row) for name, row in table.items()}
        for _ in range(2):
            table["Redis"][3] = ScalingResult("Redis", 3, math.inf, None)
            del table["Silo"][1]
            table.pop("Moses")
            table["Extra"] = {}
            table = scaling_table(list(APPLICATIONS))
            assert table == expected
        assert len(table_derivations) == 1

    def test_invalid_generation_caches_nothing(self, table_derivations):
        with pytest.raises(ConfigError):
            scaling_table(list(APPLICATIONS), (3, 4))
        assert table_derivations == []
        assert scaling._memo_table.cache_info().currsize == 0

    def test_memo_is_bounded(self, table_derivations):
        redis = get_app("Redis")
        maxsize = scaling._memo_table.cache_info().maxsize
        for i in range(maxsize + 5):
            app = dataclasses.replace(redis, base_service_ms=1.0 + i / 100)
            scaling_table([app], (3,))
        assert scaling._memo_table.cache_info().currsize == maxsize
        assert len(table_derivations) == maxsize + 5
