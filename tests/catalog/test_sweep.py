"""Tests for the incremental sweep driver and the CXL-fraction axis."""

import dataclasses

import pytest

from repro.analysis.ablations import ADOPTION_RULES
from repro.catalog import (
    ResultsCatalog,
    SweepSpec,
    closure_key,
    current_leaf_inputs,
    point_inputs,
    run_sweep,
    sweep_points,
    with_cxl_dimms,
)
from repro.catalog.sweep import _compute_point
from repro.core.errors import ConfigError, SimulationError
from repro.core.provenance import ProvenanceLog
from repro.hardware.components import CxlControllerSpec, DramSpec
from repro.hardware.sku import (
    all_greenskus,
    greensku_cxl,
    greensku_full,
    paper_skus,
)

#: A tiny two-point grid every driver test shares (fast: ~0.1 s total).
TINY = SweepSpec(
    skus=("GreenSKU-Full",),
    adoption_rules=("carbon-aware", "always"),
    buffer_fractions=(0.15,),
    cxl_dimm_counts=(None,),
    backends=("synthetic",),
    seed=3,
    vms=30,
    days=0.5,
)


def _memory_layout(sku):
    """(local_gb, cxl_gb, controllers) of a SKU's memory subsystem."""
    local = cxl = controllers = 0
    for spec, count in sku.parts:
        if isinstance(spec, DramSpec):
            if spec.via_cxl:
                cxl += spec.capacity_gb * count
            else:
                local += spec.capacity_gb * count
        elif isinstance(spec, CxlControllerSpec):
            controllers += count
    return local, cxl, controllers


class TestSpec:
    def test_grid_is_axis_product(self):
        spec = SweepSpec(
            skus=("GreenSKU-Full", "Baseline"),
            adoption_rules=("carbon-aware",),
            buffer_fractions=(0.15, 0.25),
            cxl_dimm_counts=(None, 8),
            backends=("synthetic",),
        )
        points = sweep_points(spec)
        assert len(points) == 2 * 1 * 2 * 2 * 1
        assert len({p.artifact_id for p in points}) == len(points)

    def test_unknown_sku_rejected(self):
        with pytest.raises(ConfigError, match="unknown SKU"):
            SweepSpec(skus=("MegaSKU",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown trace backend"):
            SweepSpec(backends=("s3",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="at least one value"):
            SweepSpec(adoption_rules=())

    @pytest.mark.parametrize("days", (float("nan"), float("inf"), 0.0))
    def test_non_finite_days_rejected(self, days):
        with pytest.raises(ConfigError, match="days must be finite"):
            SweepSpec(days=days)

    @pytest.mark.parametrize(
        "fraction", (float("nan"), float("inf"), -0.1, 1.0)
    )
    def test_buffer_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match="buffer fraction must be"):
            SweepSpec(buffer_fractions=(0.15, fraction))

    @pytest.mark.parametrize("ci", (float("nan"), float("inf"), -0.1))
    def test_non_finite_carbon_intensity_rejected(self, ci):
        with pytest.raises(ConfigError, match="carbon intensity must be"):
            SweepSpec(carbon_intensity=ci)

    def test_artifact_id_excludes_trace_shape(self):
        a, b = sweep_points(TINY), sweep_points(
            dataclasses.replace(TINY, seed=99)
        )
        assert [p.artifact_id for p in a] == [p.artifact_id for p in b]

    def test_closure_key_moves_with_trace_shape(self):
        mutated = dataclasses.replace(TINY, seed=99)
        keys_a = [
            closure_key(point_inputs(p, current_leaf_inputs(TINY)))
            for p in sweep_points(TINY)
        ]
        keys_b = [
            closure_key(point_inputs(p, current_leaf_inputs(mutated)))
            for p in sweep_points(mutated)
        ]
        assert set(keys_a).isdisjoint(keys_b)


class TestWithCxlDimms:
    def test_reproduces_stock_greensku_cxl(self):
        stock = greensku_cxl()
        rebuilt = with_cxl_dimms(stock, 8)
        assert _memory_layout(rebuilt) == _memory_layout(stock)
        assert rebuilt.memory_gb == stock.memory_gb

    def test_zero_dimms_strips_cxl(self):
        sku = with_cxl_dimms(greensku_full(), 0)
        local, cxl_gb, controllers = _memory_layout(sku)
        assert cxl_gb == 0 and controllers == 0
        assert local == greensku_full().memory_gb

    def test_capacity_preserved_across_counts(self):
        target = greensku_full().memory_gb
        for dimms in (2, 4, 8):
            sku = with_cxl_dimms(greensku_full(), dimms)
            local, cxl_gb, controllers = _memory_layout(sku)
            assert cxl_gb == dimms * 32
            assert local + cxl_gb == target
            assert controllers == -(-dimms // 4)

    def test_odd_count_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            with_cxl_dimms(greensku_full(), 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            with_cxl_dimms(greensku_full(), -2)

    def test_all_cxl_rejected(self):
        # Enough reused DIMMs to displace all local memory is an error.
        target = greensku_full().memory_gb
        too_many = 2 * ((target // 32) + 2)
        with pytest.raises(ConfigError, match="local memory"):
            with_cxl_dimms(greensku_full(), too_many)

    def test_name_encodes_count(self):
        assert with_cxl_dimms(greensku_full(), 4).name.endswith("-cxl4")


class TestRunSweep:
    def test_cold_then_warm(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        cold = run_sweep(TINY, catalog, log)
        assert len(cold.recomputed) == 2 and cold.warm == []
        assert all(p is not None for p in cold.payloads)
        warm = run_sweep(TINY, catalog, log)
        assert warm.recomputed == [] and len(warm.warm) == 2
        assert warm.payloads == cold.payloads
        assert warm.summary == cold.summary
        assert warm.summary_key == cold.summary_key

    def test_summary_rolls_up_every_point(self, tmp_path):
        outcome = run_sweep(
            TINY,
            ResultsCatalog(tmp_path / "catalog"),
            ProvenanceLog(tmp_path / "p.jsonl"),
        )
        assert outcome.summary["count"] == 2
        rows = {row["id"]: row for row in outcome.summary["points"]}
        for point, payload in zip(outcome.points, outcome.payloads):
            assert rows[point.artifact_id]["cluster_savings"] == (
                payload["cluster_savings"]
            )

    def test_incremental_recompute_after_input_change(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        run_sweep(TINY, catalog, log)
        mutated = dataclasses.replace(TINY, seed=TINY.seed + 1)
        outcome = run_sweep(mutated, catalog, log)
        assert outcome.invalidation.changed_inputs == ("trace/synthetic",)
        assert set(outcome.invalidation.invalid) == {
            p.artifact_id for p in outcome.points
        } | {"sweep/summary"}
        assert len(outcome.recomputed) == 2

    def test_provenance_records_points_and_summary(self, tmp_path):
        log = ProvenanceLog(tmp_path / "p.jsonl")
        outcome = run_sweep(TINY, ResultsCatalog(tmp_path / "catalog"), log)
        latest = log.latest()
        assert "sweep/summary" in latest
        for point in outcome.points:
            assert latest[point.artifact_id].kind == "point"
        summary_inputs = latest["sweep/summary"].inputs_map
        for point in outcome.points:
            assert point.artifact_id in summary_inputs

    def test_live_keys_cover_points_and_summary(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "catalog")
        outcome = run_sweep(
            TINY, catalog, ProvenanceLog(tmp_path / "p.jsonl")
        )
        assert set(outcome.live_keys()) == set(catalog.keys())

    def test_payload_shape(self, tmp_path):
        outcome = run_sweep(
            TINY,
            ResultsCatalog(tmp_path / "catalog"),
            ProvenanceLog(tmp_path / "p.jsonl"),
        )
        payload = outcome.payloads[0]
        assert payload["point"]["sku"] == "GreenSKU-Full"
        # Tiny clusters can price below baseline; just bound the share.
        assert -1.0 < payload["cluster_savings"] < 1.0
        assert payload["sizing"]["mixed_green_servers"] >= 0
        assert payload["mixed"]["total_kg"] > 0

    def test_reconciliation_accepts_matching_recompute(self, tmp_path):
        # A catalog that forgets its reads forces a recompute onto
        # existing entries; identical bytes must reconcile silently.
        class AmnesiacCatalog(ResultsCatalog):
            def get(self, key):
                self.misses += 1
                return None

        catalog = AmnesiacCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        run_sweep(TINY, catalog, log)
        outcome = run_sweep(TINY, catalog, log)
        assert len(outcome.recomputed) == 2
        assert catalog.unchanged >= 2  # republished byte-identically

    def test_reconciliation_rejects_divergent_entry(self, tmp_path):
        class AmnesiacCatalog(ResultsCatalog):
            def get(self, key):
                self.misses += 1
                return None

        catalog = AmnesiacCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        outcome = run_sweep(TINY, catalog, log)
        # Tamper: republish one point's entry with a divergent payload
        # at the same closure key (what nondeterminism would look like).
        key = outcome.keys[0]
        leaves = current_leaf_inputs(TINY)
        inputs = point_inputs(outcome.points[0], leaves)
        data = ResultsCatalog.encode_entry(inputs, {"tampered": True})
        catalog.entry_path(key).write_bytes(data)
        with pytest.raises(SimulationError, match="reconciliation"):
            run_sweep(TINY, catalog, log)

    def test_paper_skus_all_sweepable(self, tmp_path):
        # Every paper SKU name is accepted by the spec (cheap check:
        # grid construction only, no evaluation).
        spec = SweepSpec(skus=tuple(sorted(paper_skus())))
        assert len(sweep_points(spec)) == len(paper_skus())


class TestSharedScalingTable:
    def test_grid_pass_derives_table_once(self, table_derivations):
        # Every GreenSKU x adoption rule x buffer point of one pass, in
        # process, through the calls run_sweep's workers make.
        spec = SweepSpec(
            skus=tuple(sku.name for sku in all_greenskus()),
            adoption_rules=ADOPTION_RULES,
            buffer_fractions=(0.15, 0.25),
            seed=1,
            vms=20,
            days=0.5,
        )
        points = sweep_points(spec)
        assert len(points) == 18
        for point in points:
            _compute_point(point)
        assert len(table_derivations) == 1


class TestCarbonAxes:
    """The ``grid_signal`` x ``placement_policy`` axes (PR 10)."""

    def test_new_axes_multiply_the_grid(self):
        spec = dataclasses.replace(
            TINY,
            grid_signals=("diurnal", "seasonal"),
            placement_policies=("blind", "carbon_aware"),
        )
        points = sweep_points(spec)
        assert len(points) == 2 * 2 * 2  # rules x signals x policies
        assert len({p.artifact_id for p in points}) == len(points)

    def test_default_axes_are_singletons(self):
        # The pre-axis grid cardinality must be preserved exactly.
        assert len(sweep_points(TINY)) == 2
        point = sweep_points(TINY)[0]
        assert point.grid_signal is None
        assert point.placement_policy == "blind"

    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigError, match="unknown grid signal"):
            dataclasses.replace(TINY, grid_signals=("lunar",))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            dataclasses.replace(TINY, placement_policies=("greedy",))

    def test_carbon_aware_requires_signals(self):
        with pytest.raises(ConfigError, match="needs a grid signal"):
            dataclasses.replace(
                TINY,
                grid_signals=(None,),
                placement_policies=("blind", "carbon_aware"),
            )

    def test_axes_rekey_points(self):
        leaves = current_leaf_inputs(TINY)
        base = {
            closure_key(point_inputs(p, leaves)) for p in sweep_points(TINY)
        }
        signed = dataclasses.replace(TINY, grid_signals=("diurnal",))
        keyed = {
            closure_key(point_inputs(p, leaves))
            for p in sweep_points(signed)
        }
        assert base.isdisjoint(keyed)

    def test_signal_points_carry_carbon_payload(self, tmp_path):
        spec = dataclasses.replace(
            TINY,
            adoption_rules=("always",),
            grid_signals=("diurnal",),
            placement_policies=("blind", "carbon_aware"),
        )
        catalog = ResultsCatalog(tmp_path / "catalog")
        log = ProvenanceLog(tmp_path / "p.jsonl")
        cold = run_sweep(spec, catalog, log)
        assert len(cold.recomputed) == 2
        for point, payload in zip(cold.points, cold.payloads):
            section = payload["carbon_aware"]
            assert section["signal"] == "diurnal"
            assert section["policy"] == point.placement_policy
            assert section["blind_kg"] > section["aware_kg"] > 0
            assert section["blind_digest"] != section["aware_digest"]
            assert payload["point"]["grid_signal"] == "diurnal"
        rows = {row["id"]: row for row in cold.summary["points"]}
        for point in cold.points:
            assert "carbon_delta_kg" in rows[point.artifact_id]
        # Warm pass: every carbon point served from the catalog.
        warm = run_sweep(spec, catalog, log)
        assert warm.recomputed == [] and len(warm.warm) == 2
        assert warm.payloads == cold.payloads

    def test_signalless_payload_keeps_pre_axis_shape(self, tmp_path):
        outcome = run_sweep(
            TINY,
            ResultsCatalog(tmp_path / "catalog"),
            ProvenanceLog(tmp_path / "p.jsonl"),
        )
        for payload in outcome.payloads:
            assert "carbon_aware" not in payload
