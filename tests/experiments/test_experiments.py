"""Experiment harness tests: every paper artifact regenerates.

Heavy experiments run with reduced trace counts/sizes; the benchmark
harness runs the full-size versions.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    end_to_end,
    fig1_breakdown,
    fig2_failures,
    fig7_latency,
    fig8_cxl,
    fig9_packing,
    fig10_memutil,
    fig11_cluster_savings,
    section5_maintenance,
    section7_alternatives,
    section7_tco,
    table1_cpus,
    table2_devops,
    table3_scaling,
    table4_savings,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_all
from repro.core.errors import ConfigError
from repro.gsf.results import IntensitySweepPoint


class TestRegistry:
    def test_sixteen_experiments(self):
        assert len(EXPERIMENTS) == 16

    def test_lookup(self):
        assert get_experiment("fig11").module is fig11_cluster_savings

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_all_have_run_and_render(self):
        for exp in EXPERIMENTS.values():
            assert hasattr(exp.module, "run")
            assert hasattr(exp.module, "render")
            assert hasattr(exp.module, "main")


class TestFig1:
    def test_headline_shares(self):
        result = fig1_breakdown.run()
        assert result.operational_share == pytest.approx(0.58, abs=0.05)
        assert result.compute_share == pytest.approx(0.57, abs=0.05)

    def test_render(self):
        text = fig1_breakdown.render(fig1_breakdown.run())
        assert "compute" in text and "dram" in text


class TestFig2:
    def test_flat_steady_state(self):
        result = fig2_failures.run()
        assert abs(result.steady_slope_per_month) < 0.005
        assert result.steady_mean == pytest.approx(1.0, abs=0.1)

    def test_csv_has_84_rows(self):
        csv = fig2_failures.to_csv(fig2_failures.run())
        assert len(csv.splitlines()) == 85  # header + 84 months


class TestTable1:
    def test_rows(self):
        result = table1_cpus.run()
        assert result.rows[0] == ("Cores per socket", 128, 64, 64, 80)
        assert "Bergamo" in table1_cpus.render(result)


class TestFig7:
    @pytest.fixture(scope="class")
    def panels(self):
        return fig7_latency.run()

    def test_five_panels(self, panels):
        assert [p.app_name for p in panels] == list(fig7_latency.FIG7_APPS)

    def test_masstree_cannot_meet_slo(self, panels):
        masstree = next(p for p in panels if p.app_name == "Masstree")
        assert not masstree.meets_slo

    def test_xapian_meets_with_12(self, panels):
        xapian = next(p for p in panels if p.app_name == "Xapian")
        assert xapian.green_cores_needed == 12

    def test_curves_cover_load_axis(self, panels):
        for panel in panels:
            assert len(panel.baseline_curve.qps) == len(
                fig7_latency.LOAD_FRACTIONS
            )

    def test_csv_parses(self, panels):
        csv = fig7_latency.to_csv(panels)
        assert csv.splitlines()[0] == "app,curve,qps,p95_ms"


class TestFig8:
    @pytest.fixture(scope="class")
    def panels(self):
        return fig8_cxl.run()

    def test_moses_more_impacted_than_haproxy(self, panels):
        moses = next(p for p in panels if p.app_name == "Moses")
        haproxy = next(p for p in panels if p.app_name == "HAProxy")
        assert moses.peak_reduction > haproxy.peak_reduction

    def test_haproxy_peak_reduction_near_11pct(self, panels):
        haproxy = next(p for p in panels if p.app_name == "HAProxy")
        assert haproxy.peak_reduction == pytest.approx(0.11, abs=0.03)

    def test_moses_fails_slo_before_slo_load(self, panels):
        moses = next(p for p in panels if p.app_name == "Moses")
        assert moses.cxl_slo_load_qps < moses.slo.load_qps

    def test_haproxy_meets_slo_over_most_of_range(self, panels):
        haproxy = next(p for p in panels if p.app_name == "HAProxy")
        assert haproxy.cxl_slo_load_qps > 0.8 * haproxy.slo.load_qps


class TestTable2:
    def test_exact_reproduction(self):
        result = table2_devops.run()
        assert result.max_abs_error() < 0.005


class TestTable3:
    def test_all_cells_match(self):
        result = table3_scaling.run()
        assert result.mismatches() == []
        assert result.matched_cells == 57


class TestTable4:
    def test_within_tolerance(self):
        result = table4_savings.run()
        assert result.max_abs_deviation_points <= 1

    def test_render_mentions_deviations(self):
        text = table4_savings.render(table4_savings.run())
        assert "deviation" in text


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_packing.run(trace_count=4, mean_concurrent_vms=120)

    def test_memory_core_tradeoff(self, result):
        # Fig. 9: GreenSKU-Full packs memory better and cores worse.
        s = result.summary()
        assert s["green_memory_median"] > s["baseline_memory_median"]
        assert s["green_core_median"] < s["baseline_core_median"]

    def test_point_per_trace(self, result):
        assert len(result.baseline_points) == 4
        assert len(result.green_points) == 4

    def test_csv(self, result):
        csv = fig9_packing.to_csv(result)
        assert len(csv.splitlines()) == 1 + 8


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_memutil.run(trace_count=4, mean_concurrent_vms=120)

    def test_most_traces_below_60pct(self, result):
        assert result.share_below_60pct >= 0.75

    def test_few_traces_need_cxl(self, result):
        # Paper: only ~3% of traces cross into the CXL region.
        assert result.share_needing_cxl <= 0.25

    def test_boundary_is_75pct(self, result):
        assert result.cxl_boundary == pytest.approx(0.75)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_cluster_savings.run(
            mean_concurrent_vms=300, intensities=[0.0, 0.1, 0.3]
        )

    def test_full_wins_clean_grid(self, result):
        assert result.best_at(0.0) == "GreenSKU-Full"

    def test_savings_positive_modulo_granularity(self, result):
        # At this reduced trace scale (~25 servers) integer server counts
        # can push a point fractionally negative; the full-scale benchmark
        # run keeps every point positive.  The best SKU per point must
        # still clearly save carbon.
        for point in result.points:
            assert point.best_sku()[1] > 0.02
            for savings in point.savings_by_sku.values():
                assert savings > -0.02

    def test_average_in_paper_band(self, result):
        # Artifact Fig. 12: average cluster savings ~14%; we land in a
        # wide band around it.
        avg = result.average_savings("GreenSKU-Full")
        assert 0.04 < avg < 0.25

    def test_regions_annotated(self, result):
        assert len(result.regions) == 3

    def test_ci_labels_distinct_and_match_csv(self):
        # The default nine-point axis steps by 0.05; one decimal printed
        # 0.1, 0.2 and 0.4 twice.  Rendering needs no replay.
        points = [
            IntensitySweepPoint(ci, {"GreenSKU-Full": 0.1})
            for ci in fig11_cluster_savings.DEFAULT_INTENSITIES
        ]
        result = fig11_cluster_savings.Fig11Result(points, regions={})
        table = fig11_cluster_savings.render(result).splitlines()
        first = table.index(next(l for l in table if l.startswith("---")))
        labels = [line.split("|")[0].strip() for line in table[first + 1:]]
        labels = labels[: len(points)]
        assert len(set(labels)) == len(points) == 9
        csv_values = [
            line.split(",")[0]
            for line in fig11_cluster_savings.to_csv(result).splitlines()[1:]
        ]
        assert [float(x) for x in labels] == [float(x) for x in csv_values]
        assert labels[:3] == ["0.00", "0.05", "0.10"]


class TestSection5:
    def test_negligible_overhead(self):
        result = section5_maintenance.run()
        assert abs(result.overhead_delta) < 0.1


class TestSection7:
    def test_alternatives(self):
        result = section7_alternatives.run()
        assert result.report.lifetime_years > 6

    def test_tco_within_band(self):
        result = section7_tco.run()
        assert result.within_paper_band


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        return end_to_end.run(mean_concurrent_vms=300)

    def test_chain_ordering(self, result):
        # Each accounting level gives up some savings: per-core >
        # cluster > DC.
        assert (
            result.per_core_savings
            > result.cluster_savings
            > result.dc_savings
            > 0
        )

    def test_per_core_near_paper(self, result):
        # Open data: 26%.
        assert result.per_core_savings == pytest.approx(0.26, abs=0.02)

    def test_render(self, result):
        assert "per-core savings" in end_to_end.render(result)
